//! Router logfiles and the doomed-run corpora of paper §3.3.
//!
//! The paper trains its MDP strategy card on "1200 logfiles from artificial
//! layouts" and tests on "3742 logfiles from floorplans of an embedded
//! CPU". A [`RouterLogfile`] is the time series a logfile parser would
//! extract; the two corpus generators below differ in class mix and initial
//! DRV distribution, mirroring the domain shift between the paper's
//! training and testing sets.

use crate::drv::{simulate, DrvConfig, DrvTrajectory, RouterBehavior};
use crate::RouteError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A parsed detailed-router logfile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterLogfile {
    /// Identifier (synthetic design/run name).
    pub name: String,
    /// Per-iteration DRV counts.
    pub trajectory: DrvTrajectory,
}

impl RouterLogfile {
    /// Whether the run (allowed to complete) succeeded at `threshold` DRVs.
    #[must_use]
    pub fn succeeded(&self, threshold: u64) -> bool {
        self.trajectory.succeeded(threshold)
    }
}

/// A weighted mix of behaviour classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Weight of [`RouterBehavior::FastConverge`].
    pub fast: f64,
    /// Weight of [`RouterBehavior::SlowConverge`].
    pub slow: f64,
    /// Weight of [`RouterBehavior::Plateau`].
    pub plateau: f64,
    /// Weight of [`RouterBehavior::Diverge`].
    pub diverge: f64,
}

impl ClassMix {
    /// Samples a class.
    fn sample(&self, rng: &mut StdRng) -> RouterBehavior {
        let total = self.fast + self.slow + self.plateau + self.diverge;
        let mut t = rng.gen::<f64>() * total;
        for (b, w) in [
            (RouterBehavior::FastConverge, self.fast),
            (RouterBehavior::SlowConverge, self.slow),
            (RouterBehavior::Plateau, self.plateau),
            (RouterBehavior::Diverge, self.diverge),
        ] {
            if t < w {
                return b;
            }
            t -= w;
        }
        RouterBehavior::Diverge
    }

    /// The training-corpus mix ("artificial layouts"): a broad spread with
    /// a substantial doomed fraction so the card sees every card region.
    #[must_use]
    pub fn artificial() -> Self {
        Self {
            fast: 0.30,
            slow: 0.25,
            plateau: 0.25,
            diverge: 0.20,
        }
    }

    /// The testing-corpus mix ("embedded CPU floorplans"): more convergent
    /// runs, fewer divergent ones — the domain shift of the paper's table.
    #[must_use]
    pub fn cpu_floorplans() -> Self {
        Self {
            fast: 0.42,
            slow: 0.28,
            plateau: 0.18,
            diverge: 0.12,
        }
    }
}

/// Generates a corpus of `count` logfiles with the given class mix.
///
/// Initial DRV counts are log-uniform in `10^3.2 .. 10^4.0`, matching the
/// Fig 9 starting range (the Fig 9 y-axis tops out at 10^4; larger counts
/// are left to the strategy card's programmatic fill rules, as in the
/// paper).
///
/// # Errors
///
/// Returns [`RouteError::InvalidParameter`] if `count == 0`.
pub fn generate_corpus(
    prefix: &str,
    count: usize,
    mix: ClassMix,
    cfg: DrvConfig,
    seed: u64,
) -> Result<Vec<RouterLogfile>, RouteError> {
    if count == 0 {
        return Err(RouteError::InvalidParameter {
            name: "count",
            detail: "corpus must be non-empty".into(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let behavior = mix.sample(&mut rng);
        let log_initial = rng.gen_range(3.2..4.0);
        let initial = 10f64.powf(log_initial).round() as u64;
        let run_seed = rng.gen::<u64>();
        let trajectory = simulate(behavior, initial.max(1), cfg, run_seed)?;
        out.push(RouterLogfile {
            name: format!("{prefix}_{i:05}"),
            trajectory,
        });
    }
    Ok(out)
}

/// The paper's training corpus: 1200 artificial-layout logfiles.
///
/// # Errors
///
/// Propagates [`generate_corpus`] errors (none for these parameters).
pub fn artificial_corpus(seed: u64) -> Result<Vec<RouterLogfile>, RouteError> {
    generate_corpus(
        "artificial",
        1_200,
        ClassMix::artificial(),
        DrvConfig::default(),
        seed,
    )
}

/// The paper's testing corpus: 3742 embedded-CPU-floorplan logfiles.
///
/// # Errors
///
/// Propagates [`generate_corpus`] errors (none for these parameters).
pub fn cpu_floorplan_corpus(seed: u64) -> Result<Vec<RouterLogfile>, RouteError> {
    generate_corpus(
        "cpu_fp",
        3_742,
        ClassMix::cpu_floorplans(),
        DrvConfig::default(),
        seed,
    )
}

/// The strategy-card derivation corpus of Fig 10: 1400 logfiles.
///
/// # Errors
///
/// Propagates [`generate_corpus`] errors (none for these parameters).
pub fn fig10_corpus(seed: u64) -> Result<Vec<RouterLogfile>, RouteError> {
    generate_corpus(
        "industry",
        1_400,
        ClassMix::artificial(),
        DrvConfig::default(),
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_sizes_match_paper() {
        let train = artificial_corpus(1).unwrap();
        assert_eq!(train.len(), 1_200);
        let test = cpu_floorplan_corpus(2).unwrap();
        assert_eq!(test.len(), 3_742);
        let card = fig10_corpus(3).unwrap();
        assert_eq!(card.len(), 1_400);
    }

    #[test]
    fn corpora_contain_both_outcomes() {
        let train =
            generate_corpus("t", 300, ClassMix::artificial(), DrvConfig::default(), 5).unwrap();
        let succ = train.iter().filter(|l| l.succeeded(200)).count();
        assert!(succ > 60, "too few successes: {succ}");
        assert!(succ < 240, "too few failures: {}", 300 - succ);
    }

    #[test]
    fn test_mix_is_more_successful_than_train_mix() {
        let train =
            generate_corpus("t", 500, ClassMix::artificial(), DrvConfig::default(), 7).unwrap();
        let test = generate_corpus(
            "e",
            500,
            ClassMix::cpu_floorplans(),
            DrvConfig::default(),
            7,
        )
        .unwrap();
        let s_train = train.iter().filter(|l| l.succeeded(200)).count();
        let s_test = test.iter().filter(|l| l.succeeded(200)).count();
        assert!(s_test > s_train, "test {s_test} vs train {s_train}");
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = generate_corpus("x", 50, ClassMix::artificial(), DrvConfig::default(), 9).unwrap();
        let b = generate_corpus("x", 50, ClassMix::artificial(), DrvConfig::default(), 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_corpus_is_rejected() {
        assert!(generate_corpus("x", 0, ClassMix::artificial(), DrvConfig::default(), 0).is_err());
    }

    #[test]
    fn names_are_unique() {
        let c = generate_corpus("u", 100, ClassMix::artificial(), DrvConfig::default(), 4).unwrap();
        let mut names: Vec<&str> = c.iter().map(|l| l.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 100);
    }
}

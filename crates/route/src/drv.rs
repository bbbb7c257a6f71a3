//! Detailed-route DRV trajectory simulation (paper Fig 9).
//!
//! "Modern detailed routers default to 20-40 iterations which can take many
//! days of runtime." Each iteration reports a design-rule-violation count;
//! Fig 9 shows four characteristic progressions on a log scale. We model a
//! run as a multiplicative stochastic process whose per-iteration
//! improvement ratio depends on a latent behaviour class — the class itself
//! being driven by physical congestion when trajectories are generated from
//! a routed design.

use crate::RouteError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Latent behaviour class of a detailed-routing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RouterBehavior {
    /// DRVs fall quickly; run cleanly converges (Fig 9 green).
    FastConverge,
    /// DRVs fall slowly but reach a routable count by the end.
    SlowConverge,
    /// DRVs fall, then stall above the fixable threshold (Fig 9 orange).
    Plateau,
    /// DRVs rebound and grow (Fig 9 red).
    Diverge,
}

impl RouterBehavior {
    /// All classes in a stable order.
    pub const ALL: [RouterBehavior; 4] = [
        RouterBehavior::FastConverge,
        RouterBehavior::SlowConverge,
        RouterBehavior::Plateau,
        RouterBehavior::Diverge,
    ];

    /// Mean per-iteration DRV multiplier in the early phase.
    fn early_ratio(self) -> f64 {
        match self {
            RouterBehavior::FastConverge => 0.55,
            RouterBehavior::SlowConverge => 0.76,
            RouterBehavior::Plateau => 0.80,
            RouterBehavior::Diverge => 0.92,
        }
    }

    /// Whether runs of this class should ultimately succeed.
    #[must_use]
    pub fn is_doomed(self) -> bool {
        matches!(self, RouterBehavior::Plateau | RouterBehavior::Diverge)
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrvConfig {
    /// Router iterations (commercial default per the paper: 20).
    pub iterations: usize,
    /// DRV count below which a finished run counts as a success (the
    /// paper's manual-fix threshold: 200).
    pub success_threshold: u64,
}

impl Default for DrvConfig {
    fn default() -> Self {
        Self {
            iterations: 20,
            success_threshold: 200,
        }
    }
}

/// One run's per-iteration DRV counts (`counts\[0\]` is iteration 1's
/// report; length = configured iterations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrvTrajectory {
    /// DRV count after each iteration.
    pub counts: Vec<u64>,
    /// The latent class that generated this trajectory (ground truth for
    /// evaluation; a real logfile would not carry it).
    pub behavior: RouterBehavior,
}

impl DrvTrajectory {
    /// DRVs at the final iteration.
    ///
    /// # Panics
    ///
    /// Panics on an empty trajectory (never produced by [`simulate`]).
    #[must_use]
    pub fn final_drvs(&self) -> u64 {
        *self.counts.last().expect("non-empty trajectory")
    }

    /// Whether the completed run succeeded at `threshold`.
    #[must_use]
    pub fn succeeded(&self, threshold: u64) -> bool {
        self.final_drvs() < threshold
    }

    /// `log10(max(count, 1))` series — the Fig 9 y-axis.
    #[must_use]
    pub fn log10_series(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| (c.max(1) as f64).log10())
            .collect()
    }
}

/// Simulates one detailed-routing run.
///
/// # Errors
///
/// Returns [`RouteError::InvalidParameter`] if `initial_drvs == 0` or
/// `cfg.iterations == 0`.
pub fn simulate(
    behavior: RouterBehavior,
    initial_drvs: u64,
    cfg: DrvConfig,
    seed: u64,
) -> Result<DrvTrajectory, RouteError> {
    if initial_drvs == 0 {
        return Err(RouteError::InvalidParameter {
            name: "initial_drvs",
            detail: "must be positive".into(),
        });
    }
    if cfg.iterations == 0 {
        return Err(RouteError::InvalidParameter {
            name: "iterations",
            detail: "must be positive".into(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let noise: Normal<f64> = Normal::new(0.0, 0.09).expect("valid normal");
    let mut level = initial_drvs as f64;
    // Plateau floor: where stalling runs level off. Congestion-limited
    // designs stall at a fraction of their initial violation count (and
    // always above the success threshold), so the stall is visible well
    // before the iteration budget runs out.
    let plateau_floor = (initial_drvs as f64 * rng.gen_range(0.10..0.40)).max(900.0);
    // Divergence turning point.
    let turn = rng.gen_range(3..7);
    let mut counts = Vec::with_capacity(cfg.iterations);
    for t in 0..cfg.iterations {
        let mean_ratio = match behavior {
            RouterBehavior::FastConverge => behavior.early_ratio(),
            RouterBehavior::SlowConverge => behavior.early_ratio(),
            RouterBehavior::Plateau => {
                if level > plateau_floor {
                    behavior.early_ratio()
                } else {
                    1.0
                }
            }
            RouterBehavior::Diverge => {
                if t < turn {
                    behavior.early_ratio()
                } else {
                    1.12
                }
            }
        };
        let ratio = mean_ratio * noise.sample(&mut rng).exp();
        level = (level * ratio).max(0.0);
        counts.push(level.round() as u64);
    }
    Ok(DrvTrajectory { counts, behavior })
}

/// Samples a behaviour class given routing congestion: heavily overflowed
/// designs are far more likely to plateau or diverge. `hot` is the fraction
/// of bins above capacity (see
/// [`GlobalRoute::hot_fraction`](crate::global::GlobalRoute::hot_fraction)).
#[must_use]
pub fn behavior_from_congestion(hot: f64, rng: &mut StdRng) -> RouterBehavior {
    let hot = hot.clamp(0.0, 1.0);
    // Class weights interpolate between a clean design and a congested one.
    let w_fast = 0.55 * (1.0 - hot) + 0.02 * hot;
    let w_slow = 0.30 * (1.0 - hot) + 0.08 * hot;
    let w_plateau = 0.10 * (1.0 - hot) + 0.45 * hot;
    let w_diverge = 0.05 * (1.0 - hot) + 0.45 * hot;
    let total = w_fast + w_slow + w_plateau + w_diverge;
    let mut t = rng.gen::<f64>() * total;
    for (b, w) in [
        (RouterBehavior::FastConverge, w_fast),
        (RouterBehavior::SlowConverge, w_slow),
        (RouterBehavior::Plateau, w_plateau),
        (RouterBehavior::Diverge, w_diverge),
    ] {
        if t < w {
            return b;
        }
        t -= w;
    }
    RouterBehavior::Diverge
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(b: RouterBehavior, seed: u64) -> DrvTrajectory {
        simulate(b, 8_000, DrvConfig::default(), seed).unwrap()
    }

    #[test]
    fn fast_runs_succeed() {
        let mut ok = 0;
        for seed in 0..20 {
            if run(RouterBehavior::FastConverge, seed).succeeded(200) {
                ok += 1;
            }
        }
        assert!(ok >= 19, "only {ok}/20 fast runs succeeded");
    }

    #[test]
    fn slow_runs_mostly_succeed() {
        let mut ok = 0;
        for seed in 0..20 {
            if run(RouterBehavior::SlowConverge, seed).succeeded(200) {
                ok += 1;
            }
        }
        assert!(ok >= 14, "only {ok}/20 slow runs succeeded");
    }

    #[test]
    fn plateau_and_diverge_fail() {
        for seed in 0..20 {
            assert!(
                !run(RouterBehavior::Plateau, seed).succeeded(200),
                "plateau seed {seed} unexpectedly succeeded"
            );
            assert!(
                !run(RouterBehavior::Diverge, seed).succeeded(200),
                "diverge seed {seed} unexpectedly succeeded"
            );
        }
    }

    #[test]
    fn diverging_runs_rebound() {
        let t = run(RouterBehavior::Diverge, 3);
        let min = *t.counts.iter().min().unwrap();
        let last = t.final_drvs();
        assert!(last > min, "diverging run should end above its minimum");
    }

    #[test]
    fn trajectories_have_configured_length() {
        let t = simulate(
            RouterBehavior::FastConverge,
            5_000,
            DrvConfig {
                iterations: 35,
                success_threshold: 200,
            },
            1,
        )
        .unwrap();
        assert_eq!(t.counts.len(), 35);
    }

    #[test]
    fn log10_series_is_safe_at_zero() {
        let t = run(RouterBehavior::FastConverge, 2);
        for v in t.log10_series() {
            assert!(v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn congestion_drives_doom() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut doomed_clean = 0;
        let mut doomed_hot = 0;
        for _ in 0..300 {
            if behavior_from_congestion(0.02, &mut rng).is_doomed() {
                doomed_clean += 1;
            }
            if behavior_from_congestion(0.8, &mut rng).is_doomed() {
                doomed_hot += 1;
            }
        }
        assert!(
            doomed_hot > doomed_clean * 2,
            "hot {doomed_hot} vs clean {doomed_clean}"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(simulate(RouterBehavior::FastConverge, 0, DrvConfig::default(), 0).is_err());
        let cfg = DrvConfig {
            iterations: 0,
            success_threshold: 200,
        };
        assert!(simulate(RouterBehavior::FastConverge, 100, cfg, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(RouterBehavior::Plateau, 42);
        let b = run(RouterBehavior::Plateau, 42);
        assert_eq!(a, b);
    }
}

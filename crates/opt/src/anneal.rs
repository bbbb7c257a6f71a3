//! Simulated annealing — the canonical physical-design optimizer (and the
//! per-thread engine inside Go-With-The-Winners).

use crate::{Landscape, SearchOutcome};
use ideaflow_trace::Journal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Annealing schedule and budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Starting temperature.
    pub t_initial: f64,
    /// Final temperature (must be positive and below `t_initial`).
    pub t_final: f64,
    /// Total number of proposed moves.
    pub moves: usize,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            t_initial: 10.0,
            t_final: 0.01,
            moves: 5_000,
        }
    }
}

impl AnnealConfig {
    /// Geometric cooling factor per move for this schedule.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        (self.t_final / self.t_initial).powf(1.0 / self.moves.max(1) as f64)
    }
}

/// Runs simulated annealing from `start` with Metropolis acceptance and a
/// geometric cooling schedule.
///
/// The returned trajectory records best-so-far cost (not current cost), so
/// it is comparable across strategies.
///
/// # Panics
///
/// Panics if the schedule is invalid (`t_final <= 0` or
/// `t_final > t_initial`).
pub fn simulated_annealing<L: Landscape>(
    landscape: &L,
    start: L::State,
    cfg: AnnealConfig,
    seed: u64,
) -> SearchOutcome<L::State> {
    simulated_annealing_journaled(landscape, start, cfg, seed, &Journal::disabled())
}

/// [`simulated_annealing`] with a run-journal hook: emits one
/// `anneal.run` event summarizing the schedule, acceptance counters and
/// the best cost reached. A disabled journal makes this identical to the
/// plain entry point.
pub fn simulated_annealing_journaled<L: Landscape>(
    landscape: &L,
    start: L::State,
    cfg: AnnealConfig,
    seed: u64,
    journal: &Journal,
) -> SearchOutcome<L::State> {
    assert!(
        cfg.t_final > 0.0 && cfg.t_final <= cfg.t_initial,
        "invalid annealing schedule"
    );
    let _span = journal.span("anneal.run");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start;
    let mut current_cost = landscape.cost(&current);
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut trajectory = vec![best_cost];
    let alpha = cfg.alpha();
    let mut t = cfg.t_initial;
    let mut accepted: u64 = 0;
    let mut uphill_accepted: u64 = 0;
    for _ in 0..cfg.moves {
        let cand = landscape.neighbor(&current, &mut rng);
        let c = landscape.cost(&cand);
        let downhill = c <= current_cost;
        let accept = downhill || rng.gen::<f64>() < ((current_cost - c) / t).exp();
        if accept {
            accepted += 1;
            if !downhill {
                uphill_accepted += 1;
            }
            current = cand;
            current_cost = c;
            if c < best_cost {
                best = current.clone();
                best_cost = c;
            }
        }
        trajectory.push(best_cost);
        t *= alpha;
    }
    if journal.is_enabled() {
        journal.emit(
            "anneal.run",
            &[
                ("seed", (seed as i64).into()),
                ("moves", (cfg.moves as i64).into()),
                ("t_initial", cfg.t_initial.into()),
                ("t_final", cfg.t_final.into()),
                ("accepted", (accepted as i64).into()),
                ("uphill_accepted", (uphill_accepted as i64).into()),
                (
                    "acceptance_rate",
                    (accepted as f64 / cfg.moves.max(1) as f64).into(),
                ),
                ("best_cost", best_cost.into()),
            ],
        );
        journal.count("anneal.runs", 1);
        journal.observe("anneal.best_cost", best_cost);
    }
    SearchOutcome {
        best_state: best,
        best_cost,
        trajectory,
        evaluations: cfg.moves + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landscape::{BigValley, NkLandscape};
    use crate::local::{local_search, LocalSearchConfig};

    #[test]
    fn anneal_escapes_local_minima_better_than_descent() {
        // On a rugged landscape, annealing with the same budget should (in
        // expectation over seeds) reach lower cost than pure descent.
        let l = BigValley::new(6, 4.0, 17);
        let mut anneal_wins = 0;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = l.random_state(&mut rng);
            let a = simulated_annealing(
                &l,
                start.clone(),
                AnnealConfig {
                    t_initial: 5.0,
                    t_final: 0.01,
                    moves: 4_000,
                },
                seed + 100,
            );
            let d = local_search(
                &l,
                start,
                LocalSearchConfig {
                    max_evaluations: 4_001,
                    stall_limit: 4_001,
                },
                seed + 100,
            );
            if a.best_cost < d.best_cost - 1e-9 {
                anneal_wins += 1;
            }
        }
        assert!(anneal_wins >= 6, "annealing won only {anneal_wins}/10");
    }

    #[test]
    fn trajectory_is_monotone_best_so_far() {
        let l = NkLandscape::new(20, 3, 23);
        let mut rng = StdRng::seed_from_u64(0);
        let start = l.random_state(&mut rng);
        let out = simulated_annealing(&l, start, AnnealConfig::default(), 1);
        out.assert_invariants();
        assert_eq!(out.trajectory.len(), AnnealConfig::default().moves + 1);
    }

    #[test]
    fn alpha_reaches_final_temperature() {
        let cfg = AnnealConfig {
            t_initial: 8.0,
            t_final: 0.02,
            moves: 1_000,
        };
        let t_end = cfg.t_initial * cfg.alpha().powi(cfg.moves as i32);
        assert!((t_end - cfg.t_final).abs() / cfg.t_final < 1e-6);
    }

    #[test]
    #[should_panic(expected = "invalid annealing schedule")]
    fn rejects_bad_schedule() {
        let l = BigValley::new(2, 0.0, 0);
        let cfg = AnnealConfig {
            t_initial: 1.0,
            t_final: 2.0,
            moves: 10,
        };
        let _ = simulated_annealing(&l, vec![0.0, 0.0], cfg, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let l = NkLandscape::new(16, 2, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let start = l.random_state(&mut rng);
        let a = simulated_annealing(&l, start.clone(), AnnealConfig::default(), 9);
        let b = simulated_annealing(&l, start, AnnealConfig::default(), 9);
        assert_eq!(a.best_cost, b.best_cost);
    }

    #[test]
    fn journaled_run_emits_acceptance_summary() {
        let l = NkLandscape::new(16, 2, 11);
        let mut rng = StdRng::seed_from_u64(3);
        let start = l.random_state(&mut rng);
        let journal = Journal::in_memory("anneal-test");
        let cfg = AnnealConfig {
            t_initial: 1.0,
            t_final: 0.01,
            moves: 500,
        };
        let out = simulated_annealing_journaled(&l, start.clone(), cfg, 4, &journal);
        // Same result as the unjournaled path.
        let plain = simulated_annealing(&l, start, cfg, 4);
        assert_eq!(out.best_cost, plain.best_cost);

        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };
        let runs = reader.events_for_step("anneal.run");
        assert_eq!(runs.len(), 1);
        let obj = runs[0].payload.as_object().unwrap();
        let accepted = obj
            .iter()
            .find(|(k, _)| k == "accepted")
            .map(|(_, v)| v.clone())
            .unwrap();
        let rate = reader.field_stats("anneal.run", "acceptance_rate").unwrap();
        assert!(rate.mean > 0.0 && rate.mean <= 1.0, "rate {}", rate.mean);
        assert!(matches!(accepted, ideaflow_trace::PayloadValue::Int(n) if n > 0));
    }
}

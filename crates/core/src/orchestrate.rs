//! Stage 2 — orchestrating N robot engineers over the flow-option tree.
//!
//! "The second stage of ML-based cost and effort reduction will
//! orchestrate N robot engineers to concurrently search multiple flow
//! trajectories... simple multistart, or depth-first or breadth-first
//! traversal of the tree of flow options, is hopeless. Rather, strategies
//! such as go-with-the-winners might be applied." This module exposes the
//! Fig 5(a) option tree as an [`ideaflow_opt::Landscape`] so the generic
//! GWTW / adaptive-multistart orchestrators search real flow trajectories.

use crate::CoreError;
use ideaflow_flow::options::SpnrOptions;
use ideaflow_flow::spnr::{QorSample, SpnrFlow};
use ideaflow_flow::supervise::{SupervisedError, Supervisor};
use ideaflow_flow::tree::{options_for_trajectory, standard_axes, OptionAxis, Trajectory};
use ideaflow_opt::gwtw::{gwtw_journaled, independent_baseline, GwtwConfig, GwtwOutcome};
use ideaflow_opt::Landscape;
use ideaflow_trace::Journal;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Scalarized QoR objective for a trajectory (lower is better): normalized
/// area plus a large penalty for failing timing plus a runtime term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryObjective {
    /// Weight on area (per unit of `area / base_area`).
    pub area_weight: f64,
    /// Penalty added when the run misses timing.
    pub fail_penalty: f64,
    /// Weight on runtime hours.
    pub runtime_weight: f64,
}

impl Default for TrajectoryObjective {
    fn default() -> Self {
        Self {
            area_weight: 1.0,
            fail_penalty: 3.0,
            runtime_weight: 0.02,
        }
    }
}

/// The flow-option tree as a search landscape. Each cost evaluation is
/// a tool run — exactly what orchestrating robot engineers spends —
/// deterministic per trajectory (sample index derived from the
/// trajectory's contents), like a deterministic EDA tool re-invoked on
/// identical inputs.
#[derive(Debug)]
pub struct TrajectoryLandscape<'a> {
    flow: &'a SpnrFlow,
    axes: Vec<OptionAxis>,
    target_ghz: f64,
    objective: TrajectoryObjective,
    base_area: f64,
    counter: AtomicU32,
    supervisor: Option<Supervisor>,
    /// Model hours refunded by early-killed runs, in microhours (fixed
    /// point so the counter can be a plain atomic).
    refunded_microhours: AtomicU64,
}

impl<'a> TrajectoryLandscape<'a> {
    /// Creates the landscape at a fixed target frequency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an invalid target.
    pub fn new(
        flow: &'a SpnrFlow,
        target_ghz: f64,
        objective: TrajectoryObjective,
    ) -> Result<Self, CoreError> {
        SpnrOptions::with_target_ghz(target_ghz).map_err(|e| CoreError::InvalidParameter {
            name: "target_ghz",
            detail: e.to_string(),
        })?;
        let base_area = flow.netlist().total_area_um2();
        Ok(Self {
            flow,
            axes: standard_axes(),
            target_ghz,
            objective,
            base_area,
            counter: AtomicU32::new(0),
            supervisor: None,
            refunded_microhours: AtomicU64::new(0),
        })
    }

    /// Runs every evaluation under the given supervisor: crashes are
    /// retried with fresh samples, deadline blowouts are treated as
    /// hangs, and early-killed runs refund their downstream model hours
    /// to this landscape's budget (see
    /// [`TrajectoryLandscape::refunded_hours`]).
    #[must_use]
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    /// Number of tool runs spent so far.
    #[must_use]
    pub fn runs_spent(&self) -> u32 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Model hours refunded to the budget by early-killed runs.
    #[must_use]
    pub fn refunded_hours(&self) -> f64 {
        self.refunded_microhours.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Scores one trajectory with a tool run. The flow's sample index
    /// is derived from the trajectory's *contents* (not from call
    /// order), so scoring is deterministic per trajectory regardless
    /// of how a parallel searcher schedules its evaluations — re-runs
    /// of the same trajectory reproduce the same tool run, exactly as
    /// a deterministic EDA tool re-invoked on identical inputs would
    /// (and exactly what [`ideaflow_flow::cache::QorCache`] memoizes).
    #[must_use]
    pub fn score(&self, trajectory: &Trajectory) -> f64 {
        let opts = options_for_trajectory(trajectory, self.target_ghz)
            .expect("trajectories from this landscape are valid");
        self.counter.fetch_add(1, Ordering::Relaxed);
        let q = self.flow.run(&opts, trajectory_sample(trajectory));
        self.objective_of(&q)
    }

    /// [`TrajectoryLandscape::score`] over a fallible flow: `None` means
    /// the tool run failed terminally — the supervisor exhausted its
    /// retries, or the early-kill predictor declared the run doomed (in
    /// which case the skipped model hours are refunded to the budget).
    /// Without a supervisor this falls back to a single unsupervised
    /// [`SpnrFlow::try_run`].
    #[must_use]
    pub fn try_score(&self, trajectory: &Trajectory) -> Option<f64> {
        let opts = options_for_trajectory(trajectory, self.target_ghz)
            .expect("trajectories from this landscape are valid");
        self.counter.fetch_add(1, Ordering::Relaxed);
        let sample = trajectory_sample(trajectory);
        match &self.supervisor {
            Some(sup) => match sup.run(self.flow, &opts, sample) {
                Ok(run) => Some(self.objective_of(&run.qor)),
                Err(SupervisedError::Killed { hours_saved, .. }) => {
                    self.refunded_microhours
                        .fetch_add((hours_saved * 1e6) as u64, Ordering::Relaxed);
                    None
                }
                Err(_) => None,
            },
            None => self
                .flow
                .try_run(&opts, sample)
                .ok()
                .map(|q| self.objective_of(&q)),
        }
    }

    fn objective_of(&self, q: &QorSample) -> f64 {
        let mut cost = self.objective.area_weight * q.area_um2 / self.base_area
            + self.objective.runtime_weight * q.runtime_hours;
        if !q.meets_timing() {
            cost += self.objective.fail_penalty;
        }
        cost
    }
}

/// FNV-1a over the trajectory's axis choices: an order-independent,
/// content-derived sample index, so parallel scorers agree bit-for-bit
/// with sequential ones.
fn trajectory_sample(t: &Trajectory) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &choice in &t.0 {
        h ^= choice as u64 + 1;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

impl Landscape for TrajectoryLandscape<'_> {
    type State = Trajectory;

    fn random_state(&self, rng: &mut StdRng) -> Trajectory {
        Trajectory(
            self.axes
                .iter()
                .map(|a| rng.gen_range(0..a.settings.len()))
                .collect(),
        )
    }

    fn cost(&self, state: &Trajectory) -> f64 {
        self.score(state)
    }

    fn try_cost(&self, state: &Trajectory) -> Option<f64> {
        self.try_score(state)
    }

    fn neighbor(&self, state: &Trajectory, rng: &mut StdRng) -> Trajectory {
        let mut t = state.clone();
        let axis = rng.gen_range(0..self.axes.len());
        let n = self.axes[axis].settings.len();
        let mut c = rng.gen_range(0..n);
        if c == t.0[axis] {
            c = (c + 1) % n;
        }
        t.0[axis] = c;
        t
    }

    fn distance(&self, a: &Trajectory, b: &Trajectory) -> f64 {
        a.0.iter().zip(&b.0).filter(|(x, y)| x != y).count() as f64
    }

    /// Axis-wise weighted majority over the pool (adaptive multistart on
    /// flow trajectories).
    fn combine(&self, pool: &[(Trajectory, f64)], rng: &mut StdRng) -> Trajectory {
        if pool.is_empty() {
            return self.random_state(rng);
        }
        let worst = pool
            .iter()
            .map(|(_, c)| *c)
            .fold(f64::NEG_INFINITY, f64::max);
        Trajectory(
            self.axes
                .iter()
                .enumerate()
                .map(|(axis, a)| {
                    if rng.gen::<f64>() < 0.1 {
                        return rng.gen_range(0..a.settings.len());
                    }
                    let mut votes = vec![0.0f64; a.settings.len()];
                    for (t, c) in pool {
                        votes[t.0[axis]] += worst - c + 1e-9;
                    }
                    votes
                        .iter()
                        .enumerate()
                        .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite votes"))
                        .map(|(i, _)| i)
                        .expect("non-empty settings")
                })
                .collect(),
        )
    }
}

/// Result of an orchestration comparison at equal tool-run budget.
#[derive(Debug, Clone)]
pub struct OrchestrationComparison {
    /// GWTW outcome over trajectories.
    pub gwtw_best_cost: f64,
    /// Independent multistart baseline best cost.
    pub independent_best_cost: f64,
    /// The winning trajectory found by GWTW.
    pub gwtw_trajectory: Trajectory,
    /// Tool runs spent in total (both searches).
    pub total_runs: u32,
}

/// Runs GWTW and the equal-budget independent baseline over the option
/// tree.
///
/// # Errors
///
/// Propagates landscape construction errors.
pub fn compare_orchestration(
    flow: &SpnrFlow,
    target_ghz: f64,
    cfg: GwtwConfig,
    seed: u64,
) -> Result<OrchestrationComparison, CoreError> {
    compare_orchestration_journaled(flow, target_ghz, cfg, seed, &Journal::disabled())
}

/// [`compare_orchestration`] with a run-journal hook: the GWTW search
/// journals its per-round population snapshots (`gwtw.round`), and the
/// comparison itself closes with one `orchestrate.compare` event. Pass a
/// flow built with [`SpnrFlow::with_journal`] on the same journal to also
/// capture every underlying tool run.
///
/// # Errors
///
/// Propagates landscape construction errors.
pub fn compare_orchestration_journaled(
    flow: &SpnrFlow,
    target_ghz: f64,
    cfg: GwtwConfig,
    seed: u64,
    journal: &Journal,
) -> Result<OrchestrationComparison, CoreError> {
    let span = journal.span("orchestrate.compare");
    let scape = TrajectoryLandscape::new(flow, target_ghz, TrajectoryObjective::default())?;
    let g: GwtwOutcome<Trajectory> = {
        let _gwtw_span = journal.span("orchestrate.gwtw");
        gwtw_journaled(&scape, cfg, seed, journal)
    };
    let ind = {
        let _baseline_span = journal.span("orchestrate.baseline");
        independent_baseline(&scape, cfg, seed ^ 0xBEEF)
    };
    let cmp = OrchestrationComparison {
        gwtw_best_cost: g.best.best_cost,
        independent_best_cost: ind.best_cost,
        gwtw_trajectory: g.best.best_state,
        total_runs: scape.runs_spent(),
    };
    if journal.is_enabled() {
        journal.emit(
            "orchestrate.compare",
            &[
                ("target_ghz", target_ghz.into()),
                ("gwtw_best_cost", cmp.gwtw_best_cost.into()),
                ("independent_best_cost", cmp.independent_best_cost.into()),
                ("total_runs", i64::from(cmp.total_runs).into()),
            ],
        );
        journal.count("orchestrate.comparisons", 1);
    }
    drop(span);
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};

    fn flow() -> SpnrFlow {
        SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 250).unwrap(), 55)
    }

    fn small_cfg() -> GwtwConfig {
        GwtwConfig {
            population: 6,
            review_period: 25,
            rounds: 4,
            survivor_fraction: 0.5,
            t_initial: 0.5,
            t_final: 0.02,
        }
    }

    #[test]
    fn landscape_scores_are_finite_and_penalize_failure() {
        let f = flow();
        let fmax = f.fmax_ref_ghz();
        let scape =
            TrajectoryLandscape::new(&f, fmax * 0.7, TrajectoryObjective::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let t = scape.random_state(&mut rng);
        let c = scape.cost(&t);
        assert!(c.is_finite() && c > 0.0);
        // A hopeless target mostly incurs the fail penalty.
        let hopeless =
            TrajectoryLandscape::new(&f, fmax * 3.0, TrajectoryObjective::default()).unwrap();
        let ch = hopeless.cost(&t);
        assert!(ch > TrajectoryObjective::default().fail_penalty);
    }

    use rand::SeedableRng;

    #[test]
    fn neighbor_changes_exactly_one_axis() {
        let f = flow();
        let scape = TrajectoryLandscape::new(&f, 0.4, TrajectoryObjective::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let t = scape.random_state(&mut rng);
        for _ in 0..20 {
            let n = scape.neighbor(&t, &mut rng);
            assert_eq!(scape.distance(&t, &n), 1.0);
        }
    }

    #[test]
    fn gwtw_orchestration_is_competitive_with_baseline() {
        let f = flow();
        let fmax = f.fmax_ref_ghz();
        let cmp = compare_orchestration(&f, fmax * 0.85, small_cfg(), 3).unwrap();
        // GWTW should not lose badly at equal budget on the option tree.
        assert!(
            cmp.gwtw_best_cost <= cmp.independent_best_cost * 1.10,
            "gwtw {} vs independent {}",
            cmp.gwtw_best_cost,
            cmp.independent_best_cost
        );
        assert!(cmp.total_runs > 0);
        // The winning trajectory is valid.
        let opts = options_for_trajectory(&cmp.gwtw_trajectory, fmax * 0.85).unwrap();
        opts.validate().unwrap();
    }

    #[test]
    fn journaled_orchestration_captures_rounds_and_tool_runs() {
        let journal = Journal::in_memory("orch-test");
        let f = flow().with_journal(journal.clone());
        let fmax = f.fmax_ref_ghz();
        let cmp =
            compare_orchestration_journaled(&f, fmax * 0.85, small_cfg(), 3, &journal).unwrap();
        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };
        assert_eq!(
            reader.events_for_step("gwtw.round").len(),
            small_cfg().rounds
        );
        assert_eq!(reader.events_for_step("orchestrate.compare").len(), 1);
        // Every underlying tool run of the GWTW search is captured too
        // (the baseline runs against the same landscape afterwards, so
        // flow.sample count covers both searches).
        let samples = reader.events_for_step("flow.sample").len();
        assert_eq!(samples as u32, cmp.total_runs);
        assert!(reader.seq_strictly_increasing_per_run());
    }

    #[test]
    fn run_counter_tracks_budget() {
        let f = flow();
        let scape = TrajectoryLandscape::new(&f, 0.4, TrajectoryObjective::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let t = scape.random_state(&mut rng);
        for _ in 0..7 {
            let _ = scape.cost(&t);
        }
        assert_eq!(scape.runs_spent(), 7);
    }

    #[test]
    fn invalid_target_is_rejected() {
        let f = flow();
        assert!(TrajectoryLandscape::new(&f, -1.0, TrajectoryObjective::default()).is_err());
    }

    #[test]
    fn supervised_try_cost_matches_plain_cost_when_healthy() {
        let f = flow();
        let fmax = f.fmax_ref_ghz();
        let plain =
            TrajectoryLandscape::new(&f, fmax * 0.85, TrajectoryObjective::default()).unwrap();
        let supervised = TrajectoryLandscape::new(&f, fmax * 0.85, TrajectoryObjective::default())
            .unwrap()
            .with_supervisor(Supervisor::default());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let t = plain.random_state(&mut rng);
            assert_eq!(supervised.try_cost(&t), Some(plain.cost(&t)));
        }
        assert_eq!(supervised.refunded_hours(), 0.0);
    }

    #[test]
    fn killed_runs_refund_their_downstream_hours() {
        use crate::watchdog::DoomedKill;
        use std::sync::Arc;
        let f = flow();
        let fmax = f.fmax_ref_ghz();
        // A hopeless target misses timing by hundreds of ps: the
        // fill-rule card reads the deepening negative slack as doomed.
        let scape = TrajectoryLandscape::new(&f, fmax * 3.0, TrajectoryObjective::default())
            .unwrap()
            .with_supervisor(
                Supervisor::default()
                    .with_early_kill(Arc::new(DoomedKill::from_fill_rules(1, 100.0))),
            );
        let mut rng = StdRng::seed_from_u64(10);
        let t = scape.random_state(&mut rng);
        assert_eq!(scape.try_cost(&t), None, "doomed run must be killed");
        assert!(
            scape.refunded_hours() > 0.0,
            "the kill must refund the skipped steps"
        );
        // The plain (infallible) path still works for callers that opt
        // out of supervision.
        assert!(scape.cost(&t).is_finite());
    }

    #[test]
    fn exhausted_retries_surface_as_none_without_refund() {
        use ideaflow_faults::{FaultInjector, FaultPlan};
        use ideaflow_flow::supervise::RetryPolicy;
        let f = flow().with_faults(FaultInjector::new(FaultPlan {
            crash_rate: 1.0,
            ..FaultPlan::uniform(3, 0.0)
        }));
        let fmax = f.fmax_ref_ghz();
        let scape = TrajectoryLandscape::new(&f, fmax * 0.85, TrajectoryObjective::default())
            .unwrap()
            .with_supervisor(Supervisor::new(RetryPolicy::none()));
        let mut rng = StdRng::seed_from_u64(11);
        let t = scape.random_state(&mut rng);
        assert_eq!(scape.try_cost(&t), None);
        assert_eq!(scape.refunded_hours(), 0.0);
    }
}

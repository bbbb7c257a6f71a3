//! E-F6 — Go-With-The-Winners and adaptive multistart (paper Fig 6).
//!
//! Panel (a): GWTW populations vs independent threads at equal budget, on
//! both a synthetic big-valley landscape and the real flow-option tree.
//! Panel (b): adaptive multistart vs random multistart, plus the
//! big-valley evidence (cost/distance correlation of local minima).

use ideaflow_core::orchestrate::{TrajectoryLandscape, TrajectoryObjective};
use ideaflow_core::watchdog::DoomedKill;
use ideaflow_exec::CancelToken;
use ideaflow_faults::{FaultInjector, FaultPlan};
use ideaflow_flow::cache::QorCache;
use ideaflow_flow::spnr::SpnrFlow;
use ideaflow_flow::supervise::Supervisor;
use ideaflow_metrics::alerts::AlertEngine;
use ideaflow_netlist::generate::{DesignClass, DesignSpec};
use ideaflow_opt::gwtw::{gwtw, gwtw_controlled, independent_baseline, GwtwConfig};
use ideaflow_opt::landscape::BigValley;
use ideaflow_opt::local::LocalSearchConfig;
use ideaflow_opt::multistart::{
    adaptive_multistart, big_valley_correlation, random_multistart, MultistartConfig,
};
use ideaflow_trace::Journal;
use std::sync::Arc;

/// Panel (a) data: per-round population-best costs for GWTW and the final
/// best of the equal-budget independent baseline.
#[derive(Debug, Clone)]
pub struct GwtwPanel {
    /// Population best per review round.
    pub round_best: Vec<f64>,
    /// GWTW final best.
    pub gwtw_best: f64,
    /// Independent multistart best at the same budget.
    pub independent_best: f64,
    /// Number of threads.
    pub population: usize,
}

/// Panel (b) data: adaptive vs random multistart and big-valley evidence.
#[derive(Debug, Clone)]
pub struct AmsPanel {
    /// Best cost per completed start, adaptive.
    pub adaptive_minima: Vec<f64>,
    /// Best cost per completed start, random.
    pub random_minima: Vec<f64>,
    /// Adaptive final best.
    pub adaptive_best: f64,
    /// Random final best.
    pub random_best: f64,
    /// Pearson correlation between minima cost and distance to the best
    /// minimum (positive = big valley).
    pub big_valley_corr: f64,
}

/// Runs panel (a) on a rugged big-valley landscape.
#[must_use]
pub fn run_gwtw(dim: usize, seed: u64) -> GwtwPanel {
    let scape = BigValley::new(dim, 4.0, seed);
    let cfg = GwtwConfig {
        population: 16,
        review_period: 200,
        rounds: 10,
        survivor_fraction: 0.5,
        t_initial: 4.0,
        t_final: 0.02,
    };
    let g = gwtw(&scape, cfg, seed ^ 0x6A);
    let ind = independent_baseline(&scape, cfg, seed ^ 0x6B);
    GwtwPanel {
        round_best: g.rounds.iter().map(|r| r.best).collect(),
        gwtw_best: g.best.best_cost,
        independent_best: ind.best_cost,
        population: cfg.population,
    }
}

/// Runs panel (b) on the same landscape family.
#[must_use]
pub fn run_ams(dim: usize, starts: usize, seed: u64) -> AmsPanel {
    let scape = BigValley::new(dim, 3.0, seed);
    let cfg = MultistartConfig {
        starts,
        local: LocalSearchConfig {
            max_evaluations: 800,
            stall_limit: 150,
        },
        pool_size: 5,
    };
    let ams = adaptive_multistart(&scape, cfg, seed ^ 0xA1);
    let rnd = random_multistart(&scape, cfg, seed ^ 0xA2);
    let corr = big_valley_correlation(&scape, &rnd.minima);
    AmsPanel {
        adaptive_minima: ams.minima.iter().map(|m| m.cost).collect(),
        random_minima: rnd.minima.iter().map(|m| m.cost).collect(),
        adaptive_best: ams.best.best_cost,
        random_best: rnd.best.best_cost,
        big_valley_corr: corr,
    }
}

/// Configuration of the fault-injected GWTW campaign over the real
/// flow-option tree — the `fig06a_gwtw --chaos` workload.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Design seed for the SP&R flow.
    pub flow_seed: u64,
    /// Fault-plan seed.
    pub fault_seed: u64,
    /// Per-mode fault rate (crash / hang / corrupt each).
    pub fault_rate: f64,
    /// Target frequency as a fraction of the design's reference fmax.
    pub target_frac: f64,
    /// GWTW review rounds of the full (uninterrupted) campaign.
    pub rounds: usize,
    /// Search seed.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            flow_seed: 55,
            fault_seed: 0xC_4A05,
            fault_rate: 0.02,
            target_frac: 0.85,
            rounds: 6,
            seed: 17,
        }
    }
}

/// Outcome of one chaos campaign; every field is a pure function of
/// the [`ChaosConfig`] (and the rounds actually run), at any thread
/// count, warm or cold cache.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Final best cost.
    pub best_cost: f64,
    /// The winning trajectory's axis choices.
    pub best_trajectory: Vec<usize>,
    /// GWTW threads lost to exhausted-retry failures, summed over rounds.
    pub casualties: usize,
    /// Faults injected by the plan (all modes).
    pub faults_injected: u64,
    /// Model hours refunded by early-killed runs.
    pub refunded_hours: f64,
    /// Tool runs spent (cache hits included).
    pub runs_spent: u32,
    /// QoR-cache hits — nonzero exactly when the campaign resumed from
    /// a checkpoint (or re-visited trajectories).
    pub cache_hits: u64,
}

/// Runs the fault-injected GWTW campaign for `rounds` review rounds
/// with the given (possibly journal-warmed) QoR cache. A truncated
/// `rounds` simulates a campaign killed mid-flight; re-running with a
/// cache seeded from the killed campaign's journal is the
/// checkpoint-resume path, and reaches a final best bit-identical to
/// the uninterrupted campaign.
#[must_use]
pub fn run_chaos_gwtw(
    cfg: &ChaosConfig,
    rounds: usize,
    cache: QorCache,
    journal: &Journal,
) -> ChaosOutcome {
    run_chaos_gwtw_alerted(cfg, rounds, cache, journal, None)
}

/// [`run_chaos_gwtw`] with an optional alerting engine, ticked once per
/// GWTW review round from the orchestrating thread — the deterministic
/// evaluation points the alert transitions are keyed to. Alerting is
/// observational: the search is bit-identical with or without an
/// engine.
#[must_use]
pub fn run_chaos_gwtw_alerted(
    cfg: &ChaosConfig,
    rounds: usize,
    cache: QorCache,
    journal: &Journal,
    alerts: Option<&AlertEngine>,
) -> ChaosOutcome {
    run_chaos_gwtw_cancellable(cfg, rounds, cache, journal, alerts, None, None)
}

/// [`run_chaos_gwtw_alerted`] with an optional cooperative
/// [`CancelToken`], checked at each GWTW round barrier (the only place
/// the campaign may stop without perturbing the rng stream). A
/// cancelled campaign's journal is a bit-exact prefix of the
/// uninterrupted run, so seeding a fresh cache from it and re-running
/// is the graceful-drain resume path — same contract as a kill -9,
/// minus the torn journal tail.
///
/// `round_hold` pauses the orchestrating thread after every round —
/// pure pacing for harnesses that must land a kill or cancel
/// mid-campaign (release builds finish a whole campaign in tens of
/// milliseconds otherwise). The search itself never observes the
/// clock, so the outcome stays bit-identical with or without a hold.
#[must_use]
pub fn run_chaos_gwtw_cancellable(
    cfg: &ChaosConfig,
    rounds: usize,
    cache: QorCache,
    journal: &Journal,
    alerts: Option<&AlertEngine>,
    cancel: Option<&CancelToken>,
    round_hold: Option<std::time::Duration>,
) -> ChaosOutcome {
    let flow = SpnrFlow::new(
        DesignSpec::new(DesignClass::Cpu, 250).expect("valid spec"),
        cfg.flow_seed,
    )
    .with_journal(journal.clone())
    .with_cache(cache.clone())
    .with_faults(FaultInjector::new(FaultPlan::uniform(
        cfg.fault_seed,
        cfg.fault_rate,
    )));
    let target = flow.fmax_ref_ghz() * cfg.target_frac;
    let supervisor = Supervisor::default()
        .with_seed(cfg.seed)
        .with_deadline_hours(36.0)
        .with_early_kill(Arc::new(DoomedKill::from_fill_rules(2, 100.0)));
    let scape = TrajectoryLandscape::new(&flow, target, TrajectoryObjective::default())
        .expect("valid target")
        .with_supervisor(supervisor);
    let gwtw_cfg = GwtwConfig {
        population: 8,
        review_period: 40,
        rounds,
        survivor_fraction: 0.5,
        t_initial: 0.5,
        t_final: 0.02,
    };
    let g = gwtw_controlled(&scape, gwtw_cfg, cfg.seed, journal, |_, _| {
        if let Some(engine) = alerts {
            engine.tick();
        }
        // Round barriers are the checkpoint grain: flush so the round
        // is durable (and visible to journal tails) the moment it
        // completes, not whenever a thread buffer happens to fill.
        journal.flush();
        if let Some(hold) = round_hold {
            std::thread::sleep(hold);
        }
        !cancel.is_some_and(CancelToken::is_cancelled)
    });
    let faults_injected = flow
        .faults()
        .map_or(0, ideaflow_faults::FaultInjector::total);
    ChaosOutcome {
        best_cost: g.best.best_cost,
        best_trajectory: g.best.best_state.0.clone(),
        casualties: g.rounds.iter().map(|r| r.casualties).sum(),
        faults_injected,
        refunded_hours: scape.refunded_hours(),
        runs_spent: scape.runs_spent(),
        cache_hits: cache.hits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gwtw_wins_or_ties_at_equal_budget() {
        let mut gwtw_total = 0.0;
        let mut ind_total = 0.0;
        for seed in 0..5 {
            let p = run_gwtw(8, seed);
            gwtw_total += p.gwtw_best;
            ind_total += p.independent_best;
            // Round-best trace exists and roughly improves.
            assert_eq!(p.round_best.len(), 10);
            assert!(p.round_best.last().unwrap() <= &(p.round_best[0] + 1e-9));
        }
        assert!(
            gwtw_total <= ind_total + 0.5,
            "gwtw {gwtw_total} vs independent {ind_total}"
        );
    }

    #[test]
    fn chaos_campaign_is_deterministic_and_survives_faults() {
        let cfg = ChaosConfig {
            rounds: 2,
            ..ChaosConfig::default()
        };
        let a = run_chaos_gwtw(&cfg, 2, QorCache::new(), &Journal::disabled());
        assert!(a.faults_injected > 0, "the plan must actually inject");
        assert!(a.best_cost.is_finite());
        assert!(a.runs_spent > 0);
        let b = run_chaos_gwtw(&cfg, 2, QorCache::new(), &Journal::disabled());
        assert_eq!(a, b, "chaos campaign must be bit-identical per seed");
    }

    #[test]
    fn cancelled_campaign_is_a_resumable_prefix() {
        let cfg = ChaosConfig {
            rounds: 3,
            ..ChaosConfig::default()
        };
        let full = run_chaos_gwtw(&cfg, 3, QorCache::new(), &Journal::disabled());

        // Cancel at the first round barrier: one round runs, then stop.
        let token = CancelToken::new();
        token.cancel();
        let journal = Journal::in_memory("cancelled");
        let partial = run_chaos_gwtw_cancellable(
            &cfg,
            3,
            QorCache::new(),
            &journal,
            None,
            Some(&token),
            None,
        );
        assert!(partial.runs_spent < full.runs_spent, "must stop early");

        // Resume: seed a fresh cache from the cancelled campaign's
        // journal, re-run in full — bit-identical to uninterrupted.
        let cache = QorCache::new();
        let mut warmed = 0;
        for event in &journal.drain_events() {
            if cache.seed_event(event) {
                warmed += 1;
            }
        }
        assert!(warmed > 0, "the cancelled round must have checkpoints");
        let resumed = run_chaos_gwtw(&cfg, 3, cache.clone(), &Journal::disabled());
        assert!(cache.hits() > 0, "resume must replay from cache");
        assert_eq!(
            resumed.best_cost.to_bits(),
            full.best_cost.to_bits(),
            "resumed best must be bit-identical"
        );
        assert_eq!(resumed.best_trajectory, full.best_trajectory);
    }

    #[test]
    fn adaptive_multistart_wins_and_landscape_is_big_valley() {
        let mut a_total = 0.0;
        let mut r_total = 0.0;
        let mut corr_total = 0.0;
        for seed in 0..5 {
            let p = run_ams(8, 16, seed);
            a_total += p.adaptive_best;
            r_total += p.random_best;
            corr_total += p.big_valley_corr;
            assert_eq!(p.adaptive_minima.len(), 16);
        }
        assert!(
            a_total < r_total + 0.5,
            "adaptive {a_total} vs random {r_total}"
        );
        assert!(
            corr_total / 5.0 > 0.0,
            "mean big-valley corr {}",
            corr_total / 5.0
        );
    }
}

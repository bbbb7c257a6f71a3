//! Go-With-The-Winners orchestration (paper Fig 6(a), refs \[2\]\[24\]).
//!
//! GWTW launches a population of optimization threads, lets each run for a
//! review period, then ranks them, terminates the laggards and clones the
//! leaders in their place. The paper proposes exactly this for orchestrating
//! N robot engineers over flow trajectories; here it is implemented
//! generically over any [`Landscape`] (and reused in `ideaflow-core` over
//! whole SP&R flows).

use crate::anneal::AnnealConfig;
use crate::{Landscape, SearchOutcome};
use ideaflow_exec::current_par_map;
use ideaflow_trace::Journal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// GWTW population parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GwtwConfig {
    /// Number of concurrent threads (the paper: "tens to thousands,
    /// constrained chiefly by compute and license resources").
    pub population: usize,
    /// Moves each thread makes between reviews.
    pub review_period: usize,
    /// Number of review rounds.
    pub rounds: usize,
    /// Fraction of the population cloned at each review (the "winners").
    pub survivor_fraction: f64,
    /// Per-thread annealing temperature at the first round.
    pub t_initial: f64,
    /// Per-thread annealing temperature at the last round.
    pub t_final: f64,
}

impl Default for GwtwConfig {
    fn default() -> Self {
        Self {
            population: 16,
            review_period: 250,
            rounds: 8,
            survivor_fraction: 0.5,
            t_initial: 5.0,
            t_final: 0.05,
        }
    }
}

/// Per-round record of the population (for the Fig 6(a) trajectory plot).
#[derive(Debug, Clone, PartialEq)]
pub struct GwtwRound {
    /// Cost of every thread at review time, unsorted (thread order).
    pub costs: Vec<f64>,
    /// Best cost in the population at this review.
    pub best: f64,
    /// Number of threads terminated and replaced by clones.
    pub terminated: usize,
    /// Threads whose evaluation failed this round (a crashed tool run
    /// whose supervisor gave up). Casualties keep their last good state
    /// but are excluded from the survivor ranking; the round proceeds
    /// with whoever is left. Always 0 for infallible landscapes.
    pub casualties: usize,
}

/// Outcome of a GWTW run.
#[derive(Debug, Clone)]
pub struct GwtwOutcome<S> {
    /// Final best search outcome (trajectory = population best per round).
    pub best: SearchOutcome<S>,
    /// Per-round population snapshots.
    pub rounds: Vec<GwtwRound>,
}

/// Runs Go-With-The-Winners.
///
/// Each round, every thread anneals for `review_period` moves in parallel
/// (deterministically seeded); then the population is sorted by cost, the
/// worst `1 - survivor_fraction` are terminated, and clones of the winners
/// (uniformly chosen among survivors) take their slots.
///
/// # Panics
///
/// Panics if `population == 0`, `rounds == 0`, or `survivor_fraction` is
/// outside `(0, 1]`.
pub fn gwtw<L: Landscape>(landscape: &L, cfg: GwtwConfig, seed: u64) -> GwtwOutcome<L::State> {
    gwtw_journaled(landscape, cfg, seed, &Journal::disabled())
}

/// [`gwtw`] with a run-journal hook: emits one `gwtw.round` event per
/// review (population cost spread, best, survivor count) and a final
/// `gwtw.run` summary. A disabled journal makes this identical to the
/// plain entry point.
///
/// # Panics
///
/// Same contract as [`gwtw`].
pub fn gwtw_journaled<L: Landscape>(
    landscape: &L,
    cfg: GwtwConfig,
    seed: u64,
    journal: &Journal,
) -> GwtwOutcome<L::State> {
    gwtw_observed(landscape, cfg, seed, journal, |_, _| {})
}

/// [`gwtw_journaled`] with a per-round observer: `on_round(round,
/// record)` runs on the orchestrating thread after each review is
/// ranked, cloned and journaled — the deterministic tick point where an
/// alerting engine evaluates its rules. The observer cannot perturb the
/// search (it sees an immutable round record after all rng draws for
/// the round are done).
///
/// # Panics
///
/// Same contract as [`gwtw`].
pub fn gwtw_observed<L: Landscape>(
    landscape: &L,
    cfg: GwtwConfig,
    seed: u64,
    journal: &Journal,
    mut on_round: impl FnMut(usize, &GwtwRound),
) -> GwtwOutcome<L::State> {
    gwtw_controlled(landscape, cfg, seed, journal, |round, record| {
        on_round(round, record);
        true
    })
}

/// [`gwtw_observed`] whose observer also *controls* the campaign:
/// returning `false` stops after the current round — the cooperative
/// cancellation point a campaign daemon checks a `CancelToken` at.
/// Stopping is only possible at a round barrier, after the round's
/// journal events and rng draws are complete, so a cancelled campaign's
/// journal is a bit-exact prefix of the uninterrupted run and a resumed
/// campaign replays it from cache without divergence.
///
/// # Panics
///
/// Same contract as [`gwtw`].
pub fn gwtw_controlled<L: Landscape>(
    landscape: &L,
    cfg: GwtwConfig,
    seed: u64,
    journal: &Journal,
    mut on_round: impl FnMut(usize, &GwtwRound) -> bool,
) -> GwtwOutcome<L::State> {
    assert!(cfg.population > 0, "population must be positive");
    assert!(cfg.rounds > 0, "rounds must be positive");
    assert!(
        cfg.survivor_fraction > 0.0 && cfg.survivor_fraction <= 1.0,
        "survivor_fraction must be in (0, 1]"
    );
    let _span = journal.span("gwtw.run");
    let mut rng = StdRng::seed_from_u64(seed);
    // Initial population: a failed evaluation redraws (bounded) rather
    // than sinking the campaign. Fault-free landscapes draw exactly one
    // state per slot, preserving the historical rng stream.
    const INIT_REDRAWS: usize = 16;
    let mut population: Vec<(L::State, f64)> = (0..cfg.population)
        .map(|slot| {
            for _ in 0..INIT_REDRAWS {
                let s = landscape.random_state(&mut rng);
                if let Some(c) = landscape.try_cost(&s) {
                    return (s, c);
                }
            }
            panic!("gwtw: {INIT_REDRAWS} consecutive failed evaluations seeding slot {slot}");
        })
        .collect();

    let n_survive = ((cfg.population as f64) * cfg.survivor_fraction).ceil() as usize;
    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut trajectory = Vec::with_capacity(cfg.rounds);
    let mut evaluations = cfg.population;

    let mut best_state = population[0].0.clone();
    let mut best_cost = population[0].1;

    for round in 0..cfg.rounds {
        let _round_span = journal.span("gwtw.round");
        // Geometric ladder hitting t_final exactly at the last round.
        let frac = if cfg.rounds > 1 {
            round as f64 / (cfg.rounds - 1) as f64
        } else {
            1.0
        };
        let t_round = cfg.t_initial * (cfg.t_final / cfg.t_initial).powf(frac);
        let round_seed = seed ^ ((round as u64 + 1) << 24);
        // Each thread anneals at fixed temperature for the review
        // period. A failed evaluation (crashed tool run) makes the
        // thread a casualty: it keeps its last good state and cost but
        // stops annealing for the round. Task grain: one task is a
        // whole review period (`review_period` moves, ms-scale), so
        // replica fan-out amortizes queue/wake overhead by
        // construction; do not split the review loop across tasks.
        let annealed: Vec<(L::State, f64, bool)> =
            current_par_map(population, |i, (state, cost)| {
                let mut trng = StdRng::seed_from_u64(
                    round_seed ^ (i as u64).wrapping_mul(0xABCD_1234_5678_9EF1),
                );
                let mut s = state;
                let mut c = cost;
                let mut alive = true;
                for _ in 0..cfg.review_period {
                    let cand = landscape.neighbor(&s, &mut trng);
                    let Some(cc) = landscape.try_cost(&cand) else {
                        alive = false;
                        break;
                    };
                    if cc <= c || trng.gen::<f64>() < ((c - cc) / t_round).exp() {
                        s = cand;
                        c = cc;
                    }
                }
                (s, c, alive)
            });
        evaluations += cfg.population * cfg.review_period;

        let costs: Vec<f64> = annealed.iter().map(|(_, c, _)| *c).collect();
        let casualties = annealed.iter().filter(|(_, _, alive)| !alive).count();
        // Rank the survivors (all threads when nobody died; every
        // thread by its last good cost if the whole round failed, so
        // the campaign still makes progress).
        let mut order: Vec<usize> = (0..annealed.len()).filter(|&i| annealed[i].2).collect();
        if order.is_empty() {
            order = (0..annealed.len()).collect();
        }
        order.sort_by(|&a, &b| costs[a].partial_cmp(&costs[b]).expect("finite costs"));
        let round_best = costs[order[0]];
        if round_best < best_cost {
            best_cost = round_best;
            best_state = annealed[order[0]].0.clone();
        }
        trajectory.push(best_cost);

        // Terminate losers; clone winners into their slots. Casualties
        // never rank among the survivors, so their slots are refilled
        // from the healthy winners.
        let survivors: Vec<(L::State, f64)> = order[..n_survive.min(order.len())]
            .iter()
            .map(|&i| (annealed[i].0.clone(), annealed[i].1))
            .collect();
        let terminated = annealed.len() - survivors.len();
        // Refill terminated slots with uniformly-drawn winner clones.
        // One rng call per terminated slot, in slot order — the rng
        // stream (and thus every downstream draw) is part of the
        // bit-identity contract.
        let mut next: Vec<(L::State, f64)> = Vec::with_capacity(annealed.len());
        next.extend_from_slice(&survivors);
        for _ in 0..terminated {
            let pick = rng.gen_range(0..survivors.len());
            next.push(survivors[pick].clone());
        }
        population = next;
        if journal.is_enabled() {
            let mut sorted = costs.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            let worst = sorted[sorted.len() - 1];
            journal.emit(
                "gwtw.round",
                &[
                    ("round", (round as i64).into()),
                    ("t", t_round.into()),
                    ("best", round_best.into()),
                    ("median", median.into()),
                    ("worst", worst.into()),
                    ("terminated", (terminated as i64).into()),
                    ("survivors", (survivors.len() as i64).into()),
                    ("casualties", (casualties as i64).into()),
                    ("best_so_far", best_cost.into()),
                ],
            );
            journal.observe("gwtw.round.best", round_best);
            if casualties > 0 {
                journal.count("faults.gwtw_casualties", casualties as u64);
            }
        }
        // Campaign progress gauges: set from the orchestrating thread
        // only, so their values are order-independent at any worker
        // count (stall alerting reads `campaign.best`).
        if let Some(t) = journal.telemetry() {
            t.set_gauge("campaign.round", (round + 1) as f64);
            t.set_gauge("campaign.best", best_cost);
        }
        rounds.push(GwtwRound {
            costs,
            best: round_best,
            terminated,
            casualties,
        });
        if !on_round(round, rounds.last().expect("just pushed")) {
            break;
        }
    }

    if journal.is_enabled() {
        journal.emit(
            "gwtw.run",
            &[
                ("seed", (seed as i64).into()),
                ("population", (cfg.population as i64).into()),
                ("rounds", (cfg.rounds as i64).into()),
                ("evaluations", (evaluations as i64).into()),
                ("best_cost", best_cost.into()),
            ],
        );
        journal.count("gwtw.runs", 1);
    }

    GwtwOutcome {
        best: SearchOutcome {
            best_state,
            best_cost,
            trajectory,
            evaluations,
        },
        rounds,
    }
}

/// Independent multistart annealing at the *same total budget* as a GWTW
/// configuration — the baseline GWTW must beat (paper: "simple multistart
/// ... is hopeless").
pub fn independent_baseline<L: Landscape>(
    landscape: &L,
    cfg: GwtwConfig,
    seed: u64,
) -> SearchOutcome<L::State> {
    let moves = cfg.review_period * cfg.rounds;
    let outcomes: Vec<SearchOutcome<L::State>> =
        current_par_map((0..cfg.population).collect(), |_, i: usize| {
            let s = seed ^ (0x51_7CC1_B727_2202u64.wrapping_mul(i as u64 + 1));
            let mut rng = StdRng::seed_from_u64(s);
            let start = landscape.random_state(&mut rng);
            crate::anneal::simulated_annealing(
                landscape,
                start,
                AnnealConfig {
                    t_initial: cfg.t_initial,
                    t_final: cfg.t_final,
                    moves,
                },
                s.wrapping_add(7),
            )
        });

    outcomes
        .into_iter()
        .min_by(|a, b| a.best_cost.partial_cmp(&b.best_cost).expect("finite costs"))
        .expect("non-empty population")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landscape::{BigValley, NkLandscape};

    fn small_cfg() -> GwtwConfig {
        GwtwConfig {
            population: 8,
            review_period: 150,
            rounds: 6,
            survivor_fraction: 0.5,
            t_initial: 3.0,
            t_final: 0.05,
        }
    }

    #[test]
    fn gwtw_rounds_track_population() {
        let l = BigValley::new(5, 3.0, 3);
        let out = gwtw(&l, small_cfg(), 1);
        assert_eq!(out.rounds.len(), 6);
        for r in &out.rounds {
            assert_eq!(r.costs.len(), 8);
            assert_eq!(r.terminated, 4);
            let min = r.costs.iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(min, r.best);
        }
        out.best.assert_invariants();
    }

    #[test]
    fn gwtw_beats_or_matches_independent_on_rugged_landscape() {
        // Temperatures must match the landscape's cost scale: NK costs are
        // in [-1, 0], so deltas are ~1e-2.
        let l = NkLandscape::new(40, 6, 99);
        let cfg = GwtwConfig {
            population: 12,
            review_period: 120,
            rounds: 10,
            survivor_fraction: 0.5,
            t_initial: 0.05,
            t_final: 0.002,
        };
        let mut gwtw_total = 0.0;
        let mut ind_total = 0.0;
        for seed in 0..6u64 {
            gwtw_total += gwtw(&l, cfg, seed).best.best_cost;
            ind_total += independent_baseline(&l, cfg, seed).best_cost;
        }
        // GWTW concentrates budget on winners; expect an advantage on
        // average (allowing slight tolerance for seed noise).
        assert!(
            gwtw_total <= ind_total + 0.02,
            "gwtw {gwtw_total} vs independent {ind_total}"
        );
    }

    #[test]
    fn population_best_never_worsens_across_rounds() {
        let l = BigValley::new(4, 2.0, 8);
        let out = gwtw(&l, small_cfg(), 2);
        let bests: Vec<f64> = out.rounds.iter().map(|r| r.best).collect();
        // best-so-far trajectory is monotone even if per-round best wiggles.
        for w in out.best.trajectory.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert_eq!(bests.len(), out.best.trajectory.len());
    }

    #[test]
    fn survivor_fraction_one_disables_termination() {
        let l = BigValley::new(3, 1.0, 4);
        let cfg = GwtwConfig {
            survivor_fraction: 1.0,
            ..small_cfg()
        };
        let out = gwtw(&l, cfg, 5);
        assert!(out.rounds.iter().all(|r| r.terminated == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let l = NkLandscape::new(24, 3, 7);
        let a = gwtw(&l, small_cfg(), 10);
        let b = gwtw(&l, small_cfg(), 10);
        assert_eq!(a.best.best_cost, b.best.best_cost);
        assert_eq!(
            a.rounds.iter().map(|r| r.best).collect::<Vec<_>>(),
            b.rounds.iter().map(|r| r.best).collect::<Vec<_>>()
        );
    }

    #[test]
    fn journaled_gwtw_emits_one_event_per_round() {
        let l = BigValley::new(4, 2.0, 9);
        let journal = Journal::in_memory("gwtw-test");
        let out = gwtw_journaled(&l, small_cfg(), 3, &journal);
        // Journaling must not perturb the search.
        let plain = gwtw(&l, small_cfg(), 3);
        assert_eq!(out.best.best_cost, plain.best.best_cost);

        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };
        let per_round = reader.events_for_step("gwtw.round");
        assert_eq!(per_round.len(), small_cfg().rounds);
        assert_eq!(reader.events_for_step("gwtw.run").len(), 1);
        assert!(reader.seq_strictly_increasing_per_run());
        // Round snapshots mirror the returned outcome.
        let best = reader.field_stats("gwtw.round", "best").unwrap();
        let returned_min = out
            .rounds
            .iter()
            .map(|r| r.best)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best.min, returned_min);
    }

    /// A landscape whose evaluations fail deterministically for a
    /// state-hashed fraction of points — the pure-math stand-in for a
    /// flow whose supervisor gave up on a run.
    struct Flaky {
        inner: BigValley,
        rate: f64,
    }

    fn state_fails(s: &[f64], rate: f64) -> bool {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in s {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    impl Landscape for Flaky {
        type State = <BigValley as Landscape>::State;
        fn random_state(&self, rng: &mut StdRng) -> Self::State {
            self.inner.random_state(rng)
        }
        fn cost(&self, s: &Self::State) -> f64 {
            self.inner.cost(s)
        }
        fn neighbor(&self, s: &Self::State, rng: &mut StdRng) -> Self::State {
            self.inner.neighbor(s, rng)
        }
        fn distance(&self, a: &Self::State, b: &Self::State) -> f64 {
            self.inner.distance(a, b)
        }
        fn try_cost(&self, s: &Self::State) -> Option<f64> {
            if state_fails(s, self.rate) {
                None
            } else {
                Some(self.inner.cost(s))
            }
        }
    }

    #[test]
    fn rounds_proceed_with_survivors_under_faults() {
        let l = Flaky {
            inner: BigValley::new(5, 3.0, 3),
            rate: 0.01,
        };
        let out = gwtw(&l, small_cfg(), 1);
        let casualties: usize = out.rounds.iter().map(|r| r.casualties).sum();
        assert!(casualties > 0, "a 1% failure rate must claim some threads");
        for r in &out.rounds {
            assert_eq!(r.costs.len(), 8, "casualties keep their slots");
            assert!(r.best.is_finite());
        }
        assert!(out.best.best_cost.is_finite());
        // Chaos is deterministic: same seed, same casualties, same best.
        let again = gwtw(&l, small_cfg(), 1);
        assert_eq!(out.best.best_cost.to_bits(), again.best.best_cost.to_bits());
        assert_eq!(
            out.rounds.iter().map(|r| r.casualties).collect::<Vec<_>>(),
            again
                .rounds
                .iter()
                .map(|r| r.casualties)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fault_free_chaos_path_matches_the_plain_landscape() {
        // rate 0: the Flaky wrapper must be a perfect no-op.
        let inner = BigValley::new(5, 3.0, 3);
        let l = Flaky {
            inner: BigValley::new(5, 3.0, 3),
            rate: 0.0,
        };
        let a = gwtw(&inner, small_cfg(), 4);
        let b = gwtw(&l, small_cfg(), 4);
        assert_eq!(a.best.best_cost.to_bits(), b.best.best_cost.to_bits());
        assert!(b.rounds.iter().all(|r| r.casualties == 0));
    }

    #[test]
    fn observer_sees_every_round_and_campaign_gauges_track_best() {
        let l = BigValley::new(4, 2.0, 9);
        let registry = ideaflow_trace::TelemetryRegistry::new();
        let journal = Journal::telemetry_only("gwtw-obs").with_telemetry(registry.clone());
        let mut seen = Vec::new();
        let out = gwtw_observed(&l, small_cfg(), 3, &journal, |round, rec| {
            seen.push((round, rec.best));
        });
        assert_eq!(seen.len(), small_cfg().rounds);
        assert_eq!(
            seen.iter().map(|(_, b)| *b).collect::<Vec<_>>(),
            out.rounds.iter().map(|r| r.best).collect::<Vec<_>>()
        );
        // Gauges hold the final campaign state after the run.
        assert_eq!(
            registry.gauge_value("campaign.round"),
            Some(small_cfg().rounds as f64)
        );
        assert_eq!(
            registry.gauge_value("campaign.best"),
            Some(out.best.best_cost)
        );
        // The observer hook must not perturb the search.
        let plain = gwtw(&l, small_cfg(), 3);
        assert_eq!(out.best.best_cost.to_bits(), plain.best.best_cost.to_bits());
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn rejects_empty_population() {
        let l = BigValley::new(2, 1.0, 0);
        let cfg = GwtwConfig {
            population: 0,
            ..small_cfg()
        };
        let _ = gwtw(&l, cfg, 0);
    }
}

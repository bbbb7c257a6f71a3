//! Plain and adaptive multistart (paper Fig 6(b), refs \[5\]\[12\]).
//!
//! Plain multistart restarts local search from independent random states.
//! Adaptive multistart (AMS) instead *constructs* each new start from the
//! pool of best local minima found so far (via [`Landscape::combine`]),
//! exploiting the big-valley structure: good minima cluster, so starting
//! between them finds better minima faster.

use crate::local::{try_local_search, LocalSearchConfig};
use crate::{Landscape, SearchOutcome};
use ideaflow_exec::current_par_map;
use ideaflow_trace::Journal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration shared by both multistart variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultistartConfig {
    /// Number of local searches to run.
    pub starts: usize,
    /// Budget per local search.
    pub local: LocalSearchConfig,
    /// For adaptive multistart: size of the elite pool of local minima
    /// that new starts are combined from.
    pub pool_size: usize,
}

impl Default for MultistartConfig {
    fn default() -> Self {
        Self {
            starts: 20,
            local: LocalSearchConfig::default(),
            pool_size: 5,
        }
    }
}

/// A record of one completed local search within a multistart run.
#[derive(Debug, Clone)]
pub struct StartRecord<S> {
    /// The local minimum reached.
    pub state: S,
    /// Its cost.
    pub cost: f64,
}

/// Result of a multistart run: overall best plus every local minimum (the
/// raw material for big-valley analysis).
#[derive(Debug, Clone)]
pub struct MultistartOutcome<S> {
    /// The best search outcome (with combined trajectory over all starts).
    pub best: SearchOutcome<S>,
    /// All local minima, in completion order.
    pub minima: Vec<StartRecord<S>>,
}

/// Independent random multistart, searched in parallel. Deterministic for
/// a given seed regardless of thread scheduling (each start derives its
/// own RNG stream).
pub fn random_multistart<L: Landscape>(
    landscape: &L,
    cfg: MultistartConfig,
    seed: u64,
) -> MultistartOutcome<L::State> {
    random_multistart_journaled(landscape, cfg, seed, &Journal::disabled())
}

/// [`random_multistart`] with a run-journal hook: emits one
/// `multistart.start` event per completed local search (search runs in
/// parallel; events are emitted afterwards in start order so the journal
/// stays deterministic) and a `multistart.run` summary.
pub fn random_multistart_journaled<L: Landscape>(
    landscape: &L,
    cfg: MultistartConfig,
    seed: u64,
    journal: &Journal,
) -> MultistartOutcome<L::State> {
    // One run-level span: starts run on worker threads, so per-start
    // spans would root independently instead of nesting under the run.
    let _span = journal.span("multistart.run");
    let attempts: Vec<Option<SearchOutcome<L::State>>> =
        current_par_map((0..cfg.starts).collect(), |_, i: usize| {
            let s = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            let mut rng = StdRng::seed_from_u64(s);
            let start = landscape.random_state(&mut rng);
            try_local_search(landscape, start, cfg.local, s.wrapping_add(1))
        });
    let outcomes = keep_survivors(journal, "random", attempts);
    journal_starts(journal, "random", &outcomes);
    merge(outcomes)
}

/// Adaptive multistart: sequential rounds; each new start is combined from
/// the current elite pool of minima.
pub fn adaptive_multistart<L: Landscape>(
    landscape: &L,
    cfg: MultistartConfig,
    seed: u64,
) -> MultistartOutcome<L::State> {
    adaptive_multistart_journaled(landscape, cfg, seed, &Journal::disabled())
}

/// [`adaptive_multistart`] with a run-journal hook; see
/// [`random_multistart_journaled`] for the event vocabulary.
pub fn adaptive_multistart_journaled<L: Landscape>(
    landscape: &L,
    cfg: MultistartConfig,
    seed: u64,
    journal: &Journal,
) -> MultistartOutcome<L::State> {
    let _span = journal.span("multistart.run");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<(L::State, f64)> = Vec::new();
    let mut outcomes = Vec::with_capacity(cfg.starts);
    let mut failed = 0usize;
    for i in 0..cfg.starts {
        let start = if pool.len() < 2 {
            landscape.random_state(&mut rng)
        } else {
            landscape.combine(&pool, &mut rng)
        };
        let Some(out) =
            try_local_search(landscape, start, cfg.local, seed.wrapping_add(1 + i as u64))
        else {
            // A failed start contributes nothing to the pool; the
            // campaign proceeds with the remaining budget.
            journal_failed_start(journal, "adaptive", i);
            failed += 1;
            continue;
        };
        pool.push((out.best_state.clone(), out.best_cost));
        pool.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));
        pool.truncate(cfg.pool_size.max(1));
        outcomes.push(out);
    }
    assert!(
        !outcomes.is_empty(),
        "all {failed} adaptive multistart starts failed"
    );
    journal_starts(journal, "adaptive", &outcomes);
    merge(outcomes)
}

/// Drops failed starts from a parallel multistart batch, journaling
/// each casualty. Panics only if *every* start failed.
fn keep_survivors<S>(
    journal: &Journal,
    variant: &str,
    attempts: Vec<Option<SearchOutcome<S>>>,
) -> Vec<SearchOutcome<S>> {
    let total = attempts.len();
    let mut outcomes = Vec::with_capacity(total);
    for (i, a) in attempts.into_iter().enumerate() {
        match a {
            Some(o) => outcomes.push(o),
            None => journal_failed_start(journal, variant, i),
        }
    }
    assert!(
        !outcomes.is_empty(),
        "all {total} {variant} multistart starts failed"
    );
    outcomes
}

/// Journals one skipped start (`multistart.failed` event plus the
/// `faults.failed_starts` counter mirrored into telemetry).
fn journal_failed_start(journal: &Journal, variant: &str, start: usize) {
    if journal.is_enabled() {
        journal.emit(
            "multistart.failed",
            &[
                ("variant", variant.into()),
                ("start", (start as i64).into()),
            ],
        );
    }
    journal.count("faults.failed_starts", 1);
}

/// Emits per-start and summary journal events for a multistart run.
fn journal_starts<S>(journal: &Journal, variant: &str, outcomes: &[SearchOutcome<S>]) {
    if !journal.is_enabled() {
        return;
    }
    let mut best_so_far = f64::INFINITY;
    for (i, o) in outcomes.iter().enumerate() {
        best_so_far = best_so_far.min(o.best_cost);
        journal.emit(
            "multistart.start",
            &[
                ("variant", variant.into()),
                ("start", (i as i64).into()),
                ("cost", o.best_cost.into()),
                ("evaluations", (o.evaluations as i64).into()),
                ("best_so_far", best_so_far.into()),
            ],
        );
        journal.observe("multistart.start.cost", o.best_cost);
    }
    journal.emit(
        "multistart.run",
        &[
            ("variant", variant.into()),
            ("starts", (outcomes.len() as i64).into()),
            ("best_cost", best_so_far.into()),
        ],
    );
    journal.count("multistart.runs", 1);
}

/// Merges per-start outcomes into one overall outcome with a concatenated
/// best-so-far trajectory.
fn merge<S: Clone>(outcomes: Vec<SearchOutcome<S>>) -> MultistartOutcome<S> {
    assert!(!outcomes.is_empty(), "multistart needs at least one start");
    let minima: Vec<StartRecord<S>> = outcomes
        .iter()
        .map(|o| StartRecord {
            state: o.best_state.clone(),
            cost: o.best_cost,
        })
        .collect();
    let mut best_so_far = f64::INFINITY;
    let mut trajectory = Vec::new();
    let mut evaluations = 0;
    let mut best_idx = 0;
    for (i, o) in outcomes.iter().enumerate() {
        evaluations += o.evaluations;
        for &c in &o.trajectory {
            if c < best_so_far {
                best_so_far = c;
            }
            trajectory.push(best_so_far);
        }
        if o.best_cost < outcomes[best_idx].best_cost {
            best_idx = i;
        }
    }
    let best = SearchOutcome {
        best_state: outcomes[best_idx].best_state.clone(),
        best_cost: outcomes[best_idx].best_cost,
        trajectory,
        evaluations,
    };
    MultistartOutcome { best, minima }
}

/// Big-valley evidence: Pearson correlation between each local minimum's
/// cost and its distance to the best minimum found. Positive correlation
/// (better minima are closer to the best) is the signature Boese–Kahng
/// exploit.
pub fn big_valley_correlation<L: Landscape>(
    landscape: &L,
    minima: &[StartRecord<L::State>],
) -> f64 {
    if minima.len() < 3 {
        return 0.0;
    }
    let best = minima
        .iter()
        .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
        .expect("non-empty minima");
    let (dists, costs): (Vec<f64>, Vec<f64>) = minima
        .iter()
        .map(|m| (landscape.distance(&m.state, &best.state), m.cost))
        .unzip();
    pearson(&dists, &costs)
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx < 1e-14 || syy < 1e-14 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landscape::BigValley;

    fn cfg(starts: usize) -> MultistartConfig {
        MultistartConfig {
            starts,
            local: LocalSearchConfig {
                max_evaluations: 600,
                stall_limit: 120,
            },
            pool_size: 5,
        }
    }

    #[test]
    fn multistart_beats_single_start() {
        let l = BigValley::new(6, 3.0, 31);
        let single = random_multistart(&l, cfg(1), 5);
        let multi = random_multistart(&l, cfg(20), 5);
        assert!(multi.best.best_cost <= single.best.best_cost);
        assert_eq!(multi.minima.len(), 20);
    }

    #[test]
    fn adaptive_beats_random_at_equal_budget() {
        // Averaged over seeds on a strongly big-valley landscape.
        let l = BigValley::new(8, 3.0, 77);
        let mut adaptive_total = 0.0;
        let mut random_total = 0.0;
        for seed in 0..8u64 {
            adaptive_total += adaptive_multistart(&l, cfg(16), seed).best.best_cost;
            random_total += random_multistart(&l, cfg(16), seed).best.best_cost;
        }
        assert!(
            adaptive_total < random_total + 1e-9,
            "adaptive {adaptive_total} vs random {random_total}"
        );
    }

    #[test]
    fn big_valley_correlation_is_positive_here() {
        let l = BigValley::new(6, 3.0, 13);
        let out = random_multistart(&l, cfg(30), 3);
        let corr = big_valley_correlation(&l, &out.minima);
        assert!(
            corr > 0.0,
            "expected positive big-valley correlation, got {corr}"
        );
    }

    #[test]
    fn merged_trajectory_is_monotone() {
        let l = BigValley::new(4, 2.0, 5);
        let out = random_multistart(&l, cfg(5), 9);
        out.best.assert_invariants();
    }

    #[test]
    fn parallel_multistart_is_deterministic() {
        let l = BigValley::new(5, 2.0, 21);
        let a = random_multistart(&l, cfg(12), 4);
        let b = random_multistart(&l, cfg(12), 4);
        assert_eq!(a.best.best_cost, b.best.best_cost);
        let ca: Vec<f64> = a.minima.iter().map(|m| m.cost).collect();
        let cb: Vec<f64> = b.minima.iter().map(|m| m.cost).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn journaled_multistart_emits_one_event_per_start() {
        let l = BigValley::new(5, 2.0, 21);
        let journal = Journal::in_memory("ms-test");
        let out = random_multistart_journaled(&l, cfg(12), 4, &journal);
        let plain = random_multistart(&l, cfg(12), 4);
        assert_eq!(out.best.best_cost, plain.best.best_cost);

        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };
        let starts = reader.events_for_step("multistart.start");
        assert_eq!(starts.len(), 12);
        let summary = reader.field_stats("multistart.run", "best_cost").unwrap();
        assert_eq!(summary.min, out.best.best_cost);
        assert!(reader.seq_strictly_increasing_per_run());
    }

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
    fn random_multistart_skips_failed_starts() {
        let l = Flaky {
            inner: BigValley::new(5, 2.0, 21),
            rate: 0.002,
        };
        let journal = Journal::in_memory("flaky-ms");
        let out = random_multistart_journaled(&l, cfg(16), 4, &journal);
        assert!(out.minima.len() < 16, "some starts must fail at this rate");
        assert!(!out.minima.is_empty());
        assert!(out.best.best_cost.is_finite());
        // Deterministic: the same campaign skips the same starts.
        let again = random_multistart(&l, cfg(16), 4);
        assert_eq!(again.minima.len(), out.minima.len());
        assert_eq!(again.best.best_cost.to_bits(), out.best.best_cost.to_bits());
        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };
        assert_eq!(
            reader.events_for_step("multistart.failed").len(),
            16 - out.minima.len()
        );
        assert_eq!(
            reader.events_for_step("multistart.start").len(),
            out.minima.len()
        );
    }

    #[test]
    fn adaptive_multistart_skips_failed_starts() {
        let l = Flaky {
            inner: BigValley::new(5, 2.0, 21),
            rate: 0.002,
        };
        let journal = Journal::in_memory("flaky-ams");
        let out = adaptive_multistart_journaled(&l, cfg(16), 4, &journal);
        assert!(!out.minima.is_empty());
        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };
        assert_eq!(
            out.minima.len() + reader.events_for_step("multistart.failed").len(),
            16
        );
    }

    #[test]
    fn correlation_of_few_minima_is_zero() {
        let l = BigValley::new(2, 1.0, 2);
        let out = random_multistart(&l, cfg(2), 1);
        assert_eq!(big_valley_correlation(&l, &out.minima), 0.0);
    }
}

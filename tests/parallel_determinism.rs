//! Workspace-policy tests for the work-stealing executor: going parallel
//! must never change results. Every orchestration kernel that fans out —
//! GWTW, adaptive multistart, the concurrent bandit schedule — is run on
//! a 1-thread pool (the exact sequential baseline: `par_map` short-
//! circuits inline) and on 2- and 4-thread pools, and the outcomes must
//! be bit-identical. Likewise the QoR memo cache: a warm cache must replay
//! cold results verbatim.

use ideaflow::bandit::policy::ThompsonGaussian;
use ideaflow::bandit::sim::run_concurrent;
use ideaflow::bandit::GaussianEnv;
use ideaflow::core::mab_env::{FrequencyArms, QorConstraints};
use ideaflow::exec::{with_pool, PoolBuilder};
use ideaflow::flow::cache::QorCache;
use ideaflow::flow::options::SpnrOptions;
use ideaflow::flow::spnr::SpnrFlow;
use ideaflow::netlist::generate::{DesignClass, DesignSpec};
use ideaflow::opt::gwtw::{gwtw, GwtwConfig};
use ideaflow::opt::landscape::BigValley;
use ideaflow::opt::local::LocalSearchConfig;
use ideaflow::opt::multistart::{adaptive_multistart, MultistartConfig};

/// Runs `f` on an explicit pool of `threads` workers.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = PoolBuilder::new().threads(threads).build();
    with_pool(&pool, f)
}

/// Asserts that `run` at 2 and at 4 threads reproduces `run(1)`, the
/// sequential baseline, bit for bit.
fn assert_same_at_any_thread_count<R: PartialEq + std::fmt::Debug>(run: impl Fn(usize) -> R) {
    let sequential = run(1);
    for threads in [2, 4] {
        assert_eq!(run(threads), sequential, "{threads} threads vs 1");
    }
}

#[test]
fn gwtw_is_bit_identical_across_thread_counts() {
    let scape = BigValley::new(8, 3.0, 13);
    let cfg = GwtwConfig {
        population: 16,
        review_period: 150,
        rounds: 5,
        survivor_fraction: 0.5,
        t_initial: 3.0,
        t_final: 0.05,
    };
    let run = |threads| {
        on_pool(threads, || {
            let g = gwtw(&scape, cfg, 3);
            (
                g.best.best_cost.to_bits(),
                g.rounds
                    .iter()
                    .map(|r| r.best.to_bits())
                    .collect::<Vec<_>>(),
            )
        })
    };
    assert_same_at_any_thread_count(run);
}

#[test]
fn adaptive_multistart_is_bit_identical_across_thread_counts() {
    let scape = BigValley::new(8, 3.0, 21);
    let cfg = MultistartConfig {
        starts: 8,
        local: LocalSearchConfig {
            max_evaluations: 400,
            stall_limit: 100,
        },
        pool_size: 4,
    };
    let run = |threads| {
        on_pool(threads, || {
            let m = adaptive_multistart(&scape, cfg, 5);
            (
                m.best.best_cost.to_bits(),
                m.minima
                    .iter()
                    .map(|x| x.cost.to_bits())
                    .collect::<Vec<_>>(),
            )
        })
    };
    assert_same_at_any_thread_count(run);
}

#[test]
fn thompson_concurrent_schedule_is_bit_identical_across_thread_counts() {
    let run = |threads| {
        on_pool(threads, || {
            let mut env =
                GaussianEnv::new(vec![1.0, 2.0, 3.0, 2.5], vec![0.5, 0.5, 0.5, 0.5], 11).unwrap();
            let mut policy = ThompsonGaussian::new(4, 3.0, 1.0).unwrap();
            let iters = run_concurrent(&mut policy, &mut env, 30, 5, 7).unwrap();
            iters
                .iter()
                .flat_map(|it| it.rewards.iter().map(|r| r.to_bits()))
                .collect::<Vec<_>>()
        })
    };
    assert_same_at_any_thread_count(run);
}

#[test]
fn frequency_arms_pulls_are_bit_identical_across_thread_counts() {
    let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 300).unwrap(), 33);
    let fmax = flow.fmax_ref_ghz();
    let run = |threads| {
        on_pool(threads, || {
            let mut env = FrequencyArms::linspace(
                &flow,
                fmax * 0.5,
                fmax * 1.15,
                17,
                QorConstraints::timing_only(),
            )
            .unwrap();
            let mut policy = ThompsonGaussian::new(17, fmax, fmax * 0.3).unwrap();
            run_concurrent(&mut policy, &mut env, 20, 5, 7).unwrap();
            env.history()
                .iter()
                .map(|p| (p.t, p.arm, p.target_ghz.to_bits(), p.success))
                .collect::<Vec<_>>()
        })
    };
    assert_same_at_any_thread_count(run);
}

#[test]
fn qor_cache_never_changes_flow_results() {
    let spec = || DesignSpec::new(DesignClass::Dsp, 300).unwrap();
    let plain = SpnrFlow::new(spec(), 0xD37);
    let cache = QorCache::new();
    let cached = SpnrFlow::new(spec(), 0xD37).with_cache(cache.clone());
    let opts: Vec<SpnrOptions> = (0..5)
        .map(|i| {
            SpnrOptions::with_target_ghz(plain.fmax_ref_ghz() * (0.6 + 0.1 * f64::from(i))).unwrap()
        })
        .collect();
    // Two passes over the cached flow: the second is answered entirely
    // from the cache and must replay the first bit for bit.
    for pass in 0..2 {
        for o in &opts {
            for s in 0..8u32 {
                assert_eq!(plain.run(o, s), cached.run(o, s), "pass {pass}");
            }
        }
    }
    assert_eq!(cache.misses(), 40, "first pass fills the cache");
    assert_eq!(cache.hits(), 40, "second pass is all hits");
}

#[test]
fn journal_mid_run_flush_stays_monotone_and_loses_nothing() {
    // A monitoring process may read the journal file while a parallel
    // campaign is still emitting. A mid-run `flush` must leave the file
    // a valid prefix: strictly monotone seq, no gaps, no torn lines —
    // and the final file must contain every event exactly once.
    use ideaflow::trace::{Journal, PayloadValue};

    let dir = std::env::temp_dir().join("ideaflow_midrun_flush");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");
    let journal = Journal::to_file("midrun", &path).unwrap();

    let pool = PoolBuilder::new().threads(4).build();
    let emit_batch = |base: usize| {
        pool.par_map((0..32usize).collect(), |i, _| {
            journal.emit(
                "prop.event",
                &[("v", PayloadValue::Float((base + i) as f64))],
            );
        });
    };
    emit_batch(0);
    journal.flush();
    let partial = Journal::load(&path).unwrap();
    assert!(partial.seq_strictly_increasing_per_run());
    assert_eq!(
        partial.events_for_step("prop.event").len(),
        32,
        "the flushed prefix holds every emitted event"
    );

    emit_batch(100);
    journal.finish();
    let full = Journal::load(&path).unwrap();
    assert!(full.seq_strictly_increasing_per_run());
    assert_eq!(full.events_for_step("prop.event").len(), 64);
    assert_eq!(full.events_for_step("journal.summary").len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_events_survive_a_panicking_parallel_task() {
    // A worker that panics mid-campaign must not take its buffered
    // events down with it: the journal owns the per-thread buffers, so
    // everything emitted before the panic still merges into the sink.
    use ideaflow::trace::{Journal, PayloadValue};

    let journal = Journal::in_memory("panicky");
    for i in 0..8 {
        journal.emit("prop.event", &[("v", PayloadValue::Int(i))]);
    }
    let j = journal.clone();
    let crashed = std::thread::spawn(move || {
        for i in 100..108 {
            j.emit("prop.event", &[("v", PayloadValue::Int(i))]);
        }
        panic!("worker dies after emitting");
    })
    .join();
    assert!(crashed.is_err(), "the worker did panic");

    journal.finish();
    let reader = ideaflow::trace::JournalReader {
        events: journal.drain_events(),
    };
    assert!(reader.seq_strictly_increasing_per_run());
    assert_eq!(
        reader.events_for_step("prop.event").len(),
        16,
        "events buffered on the dead thread were flushed"
    );
}

#[test]
fn qor_cache_is_transparent_under_parallel_bandit_load() {
    let spec = || DesignSpec::new(DesignClass::Cpu, 300).unwrap();
    let run = |cache: Option<QorCache>| {
        let mut flow = SpnrFlow::new(spec(), 9);
        if let Some(c) = cache {
            flow = flow.with_cache(c);
        }
        let fmax = flow.fmax_ref_ghz();
        on_pool(4, || {
            let mut env = FrequencyArms::linspace(
                &flow,
                fmax * 0.5,
                fmax * 1.15,
                17,
                QorConstraints::timing_only(),
            )
            .unwrap();
            let mut policy = ThompsonGaussian::new(17, fmax, fmax * 0.3).unwrap();
            run_concurrent(&mut policy, &mut env, 20, 5, 3).unwrap();
            env.history()
                .iter()
                .map(|p| (p.t, p.arm, p.target_ghz.to_bits(), p.success))
                .collect::<Vec<_>>()
        })
    };
    let cache = QorCache::new();
    assert_eq!(run(None), run(Some(cache.clone())));
    assert!(
        cache.hits() + cache.misses() >= 100,
        "the schedule consulted the cache"
    );
}

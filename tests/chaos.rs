//! Workspace-policy chaos tests: the fault-injected GWTW campaign must
//! (a) never let a tool-crash panic escape the orchestration layer,
//! (b) stay bit-identical between a 1-thread pool (the exact sequential
//! baseline) and a 4-thread pool, and (c) reach the same final best
//! after being killed mid-campaign and resumed from its journal.
//!
//! These are the acceptance criteria for the fault-injection harness;
//! `crates/bench/tests/harness_cli.rs` drives the kill/resume property
//! through the `fig06a_gwtw --chaos` binary.

use ideaflow::exec::{with_pool, PoolBuilder};
use ideaflow::flow::cache::QorCache;
use ideaflow::trace::{Journal, JournalReader};
use ideaflow_bench::experiments::fig06_orchestration::{run_chaos_gwtw, ChaosConfig};

/// Runs `f` on an explicit pool of `threads` workers.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = PoolBuilder::new().threads(threads).build();
    with_pool(&pool, f)
}

/// A short campaign so the suite stays fast: 2 review rounds still
/// injects faults, loses threads, and early-kills doomed runs at the
/// default 2% per-mode rate.
fn short_cfg() -> ChaosConfig {
    ChaosConfig {
        rounds: 2,
        ..ChaosConfig::default()
    }
}

#[test]
fn chaos_campaign_never_panics_and_actually_faults() {
    let cfg = short_cfg();
    let out = run_chaos_gwtw(&cfg, cfg.rounds, QorCache::new(), &Journal::disabled());
    assert!(out.best_cost.is_finite(), "campaign must produce a best");
    assert!(
        out.faults_injected > 0,
        "the fault plan must actually inject at rate {}",
        cfg.fault_rate
    );
    assert!(out.runs_spent > 0);
}

#[test]
fn chaos_campaign_is_bit_identical_across_thread_counts() {
    let cfg = short_cfg();
    let run = |threads| {
        on_pool(threads, || {
            run_chaos_gwtw(&cfg, cfg.rounds, QorCache::new(), &Journal::disabled())
        })
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(
        seq.best_cost.to_bits(),
        par.best_cost.to_bits(),
        "1-thread vs 4-thread best must match to the bit"
    );
    assert_eq!(
        seq, par,
        "every campaign statistic must be thread-invariant"
    );
}

#[test]
fn killed_campaign_resumed_from_journal_matches_uninterrupted_run() {
    let cfg = short_cfg();

    // The ground truth: the campaign nobody killed.
    let full = run_chaos_gwtw(&cfg, cfg.rounds, QorCache::new(), &Journal::disabled());

    // The same campaign killed after round 1, journaling as it goes.
    let journal = Journal::in_memory("chaos-killed");
    let killed = run_chaos_gwtw(&cfg, 1, QorCache::new(), &journal);
    assert!(killed.runs_spent > 0, "the killed campaign must do work");
    let lines = journal.drain_lines().join("\n");
    let reader = JournalReader::from_jsonl(&lines).expect("journal must parse");

    // Resume: warm a fresh cache from the killed campaign's journal and
    // run the full campaign again. Completed work replays as cache
    // hits; the final best is bit-identical to the uninterrupted run.
    let cache = QorCache::new();
    let warmed = cache.seed_from_journal(&reader);
    assert!(warmed > 0, "the journal must seed the cache");
    let resumed = run_chaos_gwtw(&cfg, cfg.rounds, cache, &Journal::disabled());
    assert!(
        resumed.cache_hits > 0,
        "the warmed cache must serve the replayed prefix"
    );
    assert_eq!(
        resumed.best_cost.to_bits(),
        full.best_cost.to_bits(),
        "resumed campaign must reach the uninterrupted best, bit for bit"
    );
    assert_eq!(
        resumed.best_trajectory, full.best_trajectory,
        "and the same winning trajectory"
    );
}

#[test]
fn killed_campaign_resumes_from_a_binary_journal_file() {
    // Same kill/resume property, but through the on-disk binary codec
    // and the streaming seed path the `--resume` flag uses — the
    // journal format must not leak into campaign outcomes.
    let cfg = short_cfg();
    let full = run_chaos_gwtw(&cfg, cfg.rounds, QorCache::new(), &Journal::disabled());

    let dir = std::env::temp_dir().join(format!("ideaflow_chaos_binary_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("killed.ifj");
    let journal = Journal::to_file("chaos-killed", &path).expect("open binary journal");
    let killed = run_chaos_gwtw(&cfg, 1, QorCache::new(), &journal);
    assert!(killed.runs_spent > 0, "the killed campaign must do work");
    journal.finish();

    // Stream the binary journal event by event, exactly like
    // `fig06a_gwtw --chaos --resume killed.ifj`.
    let cache = QorCache::new();
    let mut warmed = 0usize;
    for event in ideaflow::trace::EventStream::open(&path).expect("open killed journal") {
        if cache.seed_event(&event.expect("decode killed journal")) {
            warmed += 1;
        }
    }
    assert!(warmed > 0, "the binary journal must seed the cache");

    let resumed = run_chaos_gwtw(&cfg, cfg.rounds, cache, &Journal::disabled());
    assert!(
        resumed.cache_hits > 0,
        "the warmed cache must serve the prefix"
    );
    assert_eq!(
        resumed.best_cost.to_bits(),
        full.best_cost.to_bits(),
        "binary-journal resume must reach the uninterrupted best, bit for bit"
    );
    assert_eq!(resumed.best_trajectory, full.best_trajectory);
    let _ = std::fs::remove_dir_all(&dir);
}

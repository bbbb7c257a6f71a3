//! E-F6a harness: Go-With-The-Winners vs independent threads (Fig 6a).
//!
//! Besides the plain Fig 6a table, `--chaos` runs the fault-injected
//! GWTW campaign over the real flow-option tree (the chaos workload):
//!
//! ```text
//! fig06a_gwtw --chaos [--journal camp.jsonl]      full campaign
//! fig06a_gwtw --chaos --kill-after-round 2 ...    truncated (killed) campaign
//! fig06a_gwtw --chaos --resume killed.jsonl ...   warm the QoR cache from a
//!                                                 killed campaign's journal,
//!                                                 then run to completion
//! fig06a_gwtw --chaos --alerts rules.toml ...     evaluate alert rules at
//!                                                 every review round (serve
//!                                                 /alerts with
//!                                                 --telemetry-port)
//! ```
//!
//! The final `chaos best:` line is bit-exact, so a killed-then-resumed
//! campaign can be diffed against an uninterrupted one.

use ideaflow_bench::experiments::fig06_orchestration;
use ideaflow_bench::{f, render_table};
use ideaflow_flow::cache::QorCache;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let session = ideaflow_bench::session_from_args("fig06a_gwtw");
    if args.iter().any(|a| a == "--chaos") {
        let journal = session.journal.clone();
        let alerts = session.alerts.clone();
        session.journal.time("bench.fig06a_chaos", || {
            run_chaos(&args, &journal, alerts.as_ref());
        });
    } else {
        session.journal.time("bench.fig06a_gwtw", run_harness);
    }
    session.finish();
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return Some(
                it.next()
                    .unwrap_or_else(|| panic!("{flag} requires a value"))
                    .clone(),
            );
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_owned());
        }
    }
    None
}

fn run_chaos(
    args: &[String],
    journal: &ideaflow_trace::Journal,
    alerts: Option<&ideaflow_metrics::alerts::AlertEngine>,
) {
    let cfg = fig06_orchestration::ChaosConfig::default();
    let rounds = match flag_value(args, "--kill-after-round") {
        Some(v) => {
            let n: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("--kill-after-round: invalid round count {v:?}"));
            assert!(
                n >= 1 && n <= cfg.rounds,
                "--kill-after-round must be in 1..={}",
                cfg.rounds
            );
            n
        }
        None => cfg.rounds,
    };
    let cache = QorCache::new();
    let mut warmed = 0usize;
    if let Some(path) = flag_value(args, "--resume") {
        // Stream the killed campaign's journal (either format) instead
        // of loading it whole: resume works on corpora larger than RAM.
        let stream = ideaflow_trace::EventStream::open(&path)
            .unwrap_or_else(|e| panic!("cannot load resume journal {path}: {e}"));
        for event in stream {
            let event = event.unwrap_or_else(|e| panic!("cannot load resume journal {path}: {e}"));
            if cache.seed_event(&event) {
                warmed += 1;
            }
        }
        println!("resumed: {warmed} cached tool runs from {path}");
    }
    println!(
        "Fault-injected GWTW campaign on the flow-option tree \
         ({} rounds, fault rate {} per mode)\n",
        rounds, cfg.fault_rate
    );
    let out = fig06_orchestration::run_chaos_gwtw_alerted(&cfg, rounds, cache, journal, alerts);
    println!("tool runs spent:   {}", out.runs_spent);
    println!("faults injected:   {}", out.faults_injected);
    println!("gwtw casualties:   {}", out.casualties);
    println!("refunded hours:    {:.3}", out.refunded_hours);
    println!("cache hits:        {}", out.cache_hits);
    if let Some(engine) = alerts {
        println!("alerts firing:     {:?}", engine.active());
    }
    if warmed > 0 {
        assert!(
            out.cache_hits > 0,
            "a warmed cache must serve the replayed prefix"
        );
    }
    // Bit-exact rendering: hex bits + decimal, so resume runs can be
    // diffed against uninterrupted ones with plain grep.
    println!(
        "chaos best: {:016x} ({:.12}) trajectory {:?}",
        out.best_cost.to_bits(),
        out.best_cost,
        out.best_trajectory
    );
}

fn run_harness() {
    println!("Go-With-The-Winners (Fig 6a) on a rugged big-valley landscape\n");
    let mut rows = Vec::new();
    let mut g_total = 0.0;
    let mut i_total = 0.0;
    for seed in 0..8u64 {
        let p = fig06_orchestration::run_gwtw(8, seed);
        g_total += p.gwtw_best;
        i_total += p.independent_best;
        rows.push(vec![
            seed.to_string(),
            f(p.gwtw_best, 4),
            f(p.independent_best, 4),
            p.round_best
                .iter()
                .map(|c| format!("{c:.2}"))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "seed",
                "gwtw best",
                "independent best",
                "population best per round"
            ],
            &rows
        )
    );
    println!(
        "\nmeans over 8 seeds: gwtw = {:.4}, independent multistart = {:.4}",
        g_total / 8.0,
        i_total / 8.0
    );
    println!(
        "\nPaper (Fig 6a): periodically clone the most promising optimization thread\n\
         and terminate the others; beats equal-budget independent multistart."
    );
}

//! E-F11 harness: the METRICS system end-to-end (Fig 11).

use ideaflow_bench::experiments::fig11_metrics;
use ideaflow_bench::{f, render_table};

fn main() {
    let session = ideaflow_bench::session_from_args("fig11_metrics");
    session.journal.time("bench.fig11_metrics", run_harness);
    session.finish();
}

fn run_harness() {
    let d = fig11_metrics::run(2_000, 0xF11);
    println!("METRICS 2.0 (Fig 11): instrumented tools -> run journal -> miner\n");
    println!(
        "records mined from the run journal: {}\n",
        d.records_collected
    );
    println!("miner: option sensitivity vs signoff WNS (standardized effects):\n");
    let rows: Vec<Vec<String>> = d
        .wns_sensitivities
        .iter()
        .map(|(name, eff)| vec![name.clone(), f(*eff, 3)])
        .collect();
    print!("{}", render_table(&["option/metric", "effect"], &rows));
    println!(
        "\nminer: prescribed achievable frequency = {:.3} GHz (true fmax {:.3} GHz)",
        d.prescribed_ghz, d.true_fmax_ghz
    );
    println!(
        "feedback loop: initial target 1.5x fmax adapted to {:.3} GHz with no human\n\
         intervention ({:.2}x fmax)",
        d.adapted_target_ghz,
        d.adapted_target_ghz / d.true_fmax_ghz
    );
    println!(
        "\nPaper (Fig 11 + section 4): METRICS predicted design-specific outcomes and\n\
         best option settings, and prescribed achievable clock frequencies; METRICS\n\
         2.0 feeds predictions back to adapt the flow midstream."
    );
}

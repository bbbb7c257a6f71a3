//! The "no human in the loop" scenario of the paper's introduction (the
//! DARPA IDEA framing): a design arrives, and the system alone
//!
//! 1. samples the tool with a Thompson-sampling bandit under a concurrent
//!    run budget (paper §3.1),
//! 2. terminates doomed detailed-routing runs with the MDP strategy card
//!    (paper §3.3), and
//! 3. mines signoff metrics out of the run journal to adapt the target
//!    (paper §4, "METRICS 2.0").
//!
//! ```sh
//! cargo run --example no_human_flow
//! ```

use ideaflow::bandit::policy::ThompsonGaussian;
use ideaflow::bandit::sim::run_concurrent;
use ideaflow::core::mab_env::{FrequencyArms, QorConstraints};
use ideaflow::flow::options::SpnrOptions;
use ideaflow::flow::spnr::SpnrFlow;
use ideaflow::mdp::doomed::{derive_card, Action, DoomedConfig};
use ideaflow::metrics::corpus;
use ideaflow::metrics::feedback::AdaptiveTargeter;
use ideaflow::netlist::generate::{DesignClass, DesignSpec};
use ideaflow::route::logfile::artificial_corpus;
use ideaflow::trace::Journal;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Every tool run is instrumented: the journal collects everything,
    // and METRICS mines it later.
    let journal = Journal::in_memory("no_human_flow");
    let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 2_000)?, 0x1DEA)
        .with_journal(journal.clone());
    let fmax = flow.fmax_ref_ghz();
    println!(
        "== no-human-in-the-loop flow on a {:.3}-GHz-capable design ==\n",
        fmax
    );

    // --- Stage 2: bandit search over target frequencies (5 x 20 budget).
    let mut env = FrequencyArms::linspace(
        &flow,
        fmax * 0.5,
        fmax * 1.15,
        15,
        QorConstraints::timing_only(),
    )?;
    let mut policy = ThompsonGaussian::new(15, fmax, fmax * 0.3)?;
    run_concurrent(&mut policy, &mut env, 20, 5, 7)?;
    let best = env.best_success_ghz().unwrap_or(fmax * 0.5);
    println!(
        "bandit: best passing sample {:.3} GHz after {} concurrent tool runs",
        best,
        env.history().len()
    );

    // --- Stage 3: learn the doomed-run card from historical logfiles and
    // apply it to this design's detailed-routing run.
    let corpus = artificial_corpus(0xCA2D)?;
    let seqs: Vec<Vec<u64>> = corpus.iter().map(|l| l.trajectory.counts.clone()).collect();
    let card = derive_card(&seqs, DoomedConfig::default())?;
    let physical = flow.run_physical(&SpnrOptions::with_target_ghz(best * 0.95)?, 1);
    let mut consecutive = 0;
    let mut verdict = "ran to completion";
    for t in 0..physical.drv.counts.len() {
        match card.decide(&physical.drv.counts, t) {
            Action::Stop => {
                consecutive += 1;
                if consecutive >= 3 {
                    verdict = "terminated early by the strategy card";
                    break;
                }
            }
            Action::Go => consecutive = 0,
        }
    }
    println!(
        "detailed route: final DRVs = {} -> {}",
        physical.drv.final_drvs(),
        verdict
    );

    // --- METRICS 2.0: closed-loop target adaptation, mined from the
    // journal.
    let mut collected = Vec::new();
    let targeter = AdaptiveTargeter::new(60.0, 0.95, best)?;
    let mut target = targeter.next_target_ghz(&collected);
    for i in 0..8 {
        let probe = if i < 4 {
            target * (0.75 + 0.08 * f64::from(i))
        } else {
            target
        };
        let _ = flow.run_logged(&SpnrOptions::with_target_ghz(probe.min(20.0))?, 100 + i);
        collected.extend(corpus::from_events(&journal.drain_events()));
        target = targeter.next_target_ghz(&collected).min(20.0);
    }
    let shipped = SpnrOptions::with_target_ghz(target)?;
    let passes = (500..520)
        .filter(|&s| flow.run(&shipped, s).meets_timing())
        .count();
    println!(
        "metrics feedback: adapted target {:.3} GHz ({:.0}% of fmax), \
         fresh pass rate {}/20",
        target,
        target / fmax * 100.0,
        passes
    );
    println!("\nno human was consulted.");
    Ok(())
}

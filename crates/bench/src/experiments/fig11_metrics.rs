//! E-F11 — the METRICS system end-to-end (paper Fig 11 + §4 validation).
//!
//! Instrumented flow runs journal their per-step records; the miner
//! reads the corpus back out of the journal and then (i) ranks option
//! sensitivities against final QoR, (ii) recommends the best option
//! setting among candidates, and (iii) prescribes an achievable clock
//! frequency — the two validation uses of the original METRICS
//! deployment — and the METRICS-2.0 feedback loop adapts the target
//! without human intervention.

use ideaflow_flow::options::SpnrOptions;
use ideaflow_flow::record::{FlowStep, StepRecord};
use ideaflow_flow::spnr::SpnrFlow;
use ideaflow_metrics::corpus;
use ideaflow_metrics::feedback::AdaptiveTargeter;
use ideaflow_metrics::miner::{prescribe_frequency_ghz, sensitivity};
use ideaflow_netlist::generate::{DesignClass, DesignSpec};
use ideaflow_trace::{parse_jsonl, Journal};

/// The Fig 11 demonstration data.
#[derive(Debug, Clone)]
pub struct Fig11Data {
    /// Step records mined from the journal.
    pub records_collected: usize,
    /// Option sensitivities vs signoff WNS, ranked by |effect|.
    pub wns_sensitivities: Vec<(String, f64)>,
    /// Prescribed achievable frequency (GHz) at zero margin.
    pub prescribed_ghz: f64,
    /// The design's true calibrated fmax (GHz) for comparison.
    pub true_fmax_ghz: f64,
    /// The closed-loop adapted target after the feedback iterations.
    pub adapted_target_ghz: f64,
}

/// The records journaled since the last drain of an in-memory journal.
fn drain_corpus(journal: &Journal) -> Vec<StepRecord> {
    let events = parse_jsonl(&journal.drain_lines().join("\n")).expect("journal lines parse");
    corpus::from_events(&events)
}

/// Runs the full METRICS pipeline on a generated design.
#[must_use]
pub fn run(instances: usize, seed: u64) -> Fig11Data {
    let journal = Journal::in_memory("fig11_metrics");
    let flow = SpnrFlow::new(
        DesignSpec::new(DesignClass::Cpu, instances).expect("valid spec"),
        seed,
    )
    .with_journal(journal.clone());
    let fmax = flow.fmax_ref_ghz();
    // Instrumented runs across targets and utilizations.
    let mut sample = 0u32;
    for frac in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05] {
        for util in [0.62, 0.70, 0.78] {
            let mut opts = SpnrOptions::with_target_ghz(fmax * frac).expect("in range");
            opts.utilization = util;
            let _ = flow.run_logged(&opts, sample);
            sample += 1;
        }
    }
    let collected = drain_corpus(&journal);
    let sens = sensitivity(
        &collected,
        &[
            (FlowStep::Signoff, "target_ghz"),
            (FlowStep::Floorplan, "utilization"),
            (FlowStep::Floorplan, "aspect_ratio"),
        ],
        (FlowStep::Signoff, "wns_ps"),
    )
    .expect("populated corpus");
    let prescribed = prescribe_frequency_ghz(&collected, 0.0).expect("populated corpus");
    // Feedback loop from scratch on a fresh corpus.
    let mut fed_back = Vec::new();
    let targeter = AdaptiveTargeter::new(60.0, 0.95, fmax * 1.5).expect("valid policy");
    let mut target = targeter.next_target_ghz(&fed_back);
    for i in 0..10 {
        let probe = if i < 4 {
            target * (0.7 + 0.1 * f64::from(i))
        } else {
            target
        };
        let opts = SpnrOptions::with_target_ghz(probe.min(20.0)).expect("in range");
        let _ = flow.run_logged(&opts, 1_000 + i);
        fed_back.extend(drain_corpus(&journal));
        target = targeter.next_target_ghz(&fed_back).min(20.0);
    }
    Fig11Data {
        records_collected: collected.len(),
        wns_sensitivities: sens.ranked(),
        prescribed_ghz: prescribed,
        true_fmax_ghz: fmax,
        adapted_target_ghz: target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_pipeline_mines_and_adapts() {
        let d = run(300, 13);
        assert_eq!(d.records_collected, 8 * 3 * 6);
        // Target frequency dominates WNS sensitivity.
        assert_eq!(d.wns_sensitivities[0].0, "signoff.target_ghz");
        assert!(d.wns_sensitivities[0].1 < 0.0);
        // Prescription lands near the true limit.
        assert!(
            (d.prescribed_ghz - d.true_fmax_ghz).abs() / d.true_fmax_ghz < 0.25,
            "prescribed {} vs fmax {}",
            d.prescribed_ghz,
            d.true_fmax_ghz
        );
        // The closed loop pulls the (initially hopeless) target into the
        // achievable band.
        assert!(
            d.adapted_target_ghz < 1.1 * d.true_fmax_ghz,
            "adapted {} vs fmax {}",
            d.adapted_target_ghz,
            d.true_fmax_ghz
        );
        assert!(d.adapted_target_ghz > 0.5 * d.true_fmax_ghz);
    }
}

//! The METRICS 2.0 feedback loop.
//!
//! Lesson (iii) of the paper's METRICS retrospective: "A reimplementation
//! of METRICS should feed predictions and guidance back into the design
//! flow, which would then adapt tool/flow parameters midstream without
//! human intervention." [`AdaptiveTargeter`] is that loop for the target
//! frequency knob: it watches signoff records arriving in the journal
//! corpus, refits the achievable-frequency prescription, and proposes
//! the next run's target — no human in the loop.

use crate::miner::prescribe_frequency_ghz;
use crate::MetricsError;
use ideaflow_flow::record::StepRecord;

/// Closed-loop target-frequency adaptation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveTargeter {
    /// Slack margin (ps) the prescription must keep.
    pub margin_ps: f64,
    /// Fraction of the prescribed frequency actually targeted (the
    /// "freedom from choice": a fixed derate instead of per-designer
    /// haggling).
    pub derate: f64,
    /// Fallback target when no data exists yet.
    pub initial_ghz: f64,
}

impl AdaptiveTargeter {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::InvalidParameter`] unless `0 < derate <= 1`
    /// and `initial_ghz > 0`.
    pub fn new(margin_ps: f64, derate: f64, initial_ghz: f64) -> Result<Self, MetricsError> {
        if !(derate > 0.0 && derate <= 1.0) {
            return Err(MetricsError::InvalidParameter {
                name: "derate",
                detail: format!("must be in (0,1], got {derate}"),
            });
        }
        if initial_ghz <= 0.0 {
            return Err(MetricsError::InvalidParameter {
                name: "initial_ghz",
                detail: "must be positive".into(),
            });
        }
        Ok(Self {
            margin_ps,
            derate,
            initial_ghz,
        })
    }

    /// The next run's target frequency given the corpus collected so
    /// far. Falls back to `initial_ghz` until enough data accumulates.
    #[must_use]
    pub fn next_target_ghz(&self, corpus: &[StepRecord]) -> f64 {
        match prescribe_frequency_ghz(corpus, self.margin_ps) {
            Ok(f) => f * self.derate,
            Err(_) => self.initial_ghz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use ideaflow_flow::options::SpnrOptions;
    use ideaflow_flow::spnr::SpnrFlow;
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};
    use ideaflow_trace::Journal;

    #[test]
    fn closed_loop_converges_to_a_passing_target() {
        let journal = Journal::in_memory("feedback");
        let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 300).unwrap(), 9)
            .with_journal(journal.clone());
        let mut collected = Vec::new();
        // Margin must cover the tool's timing noise near the limit (the
        // Fig 4 guardband lesson applied to the controller itself).
        let targeter = AdaptiveTargeter::new(80.0, 0.95, flow.fmax_ref_ghz() * 1.4).unwrap();

        // No data: falls back to the (aggressive, failing) initial target.
        let first = targeter.next_target_ghz(&collected);
        assert!((first - flow.fmax_ref_ghz() * 1.4).abs() < 1e-12);

        // Run the loop: each iteration runs the flow at the current target
        // and mines what the journal recorded.
        let mut target = first;
        for i in 0..12 {
            // Spread early samples to give the miner slope information.
            let probe = if i < 4 {
                target * (0.7 + 0.1 * f64::from(i))
            } else {
                target
            };
            let opts = SpnrOptions::with_target_ghz(probe.min(20.0)).unwrap();
            let _ = flow.run_logged(&opts, i);
            collected.extend(corpus::from_events(&journal.drain_events()));
            target = targeter.next_target_ghz(&collected).min(20.0);
        }
        // The adapted target should be near (just under) the achievable
        // limit, and runs at it should mostly pass timing.
        let fmax = flow.fmax_ref_ghz();
        assert!(
            target > 0.5 * fmax && target < 1.1 * fmax,
            "adapted target {target} vs fmax {fmax}"
        );
        let opts = SpnrOptions::with_target_ghz(target).unwrap();
        let passes = (100..120)
            .filter(|&s| flow.run(&opts, s).meets_timing())
            .count();
        assert!(
            passes >= 13,
            "only {passes}/20 runs passed at the adapted target"
        );
    }

    #[test]
    fn constructor_validates() {
        assert!(AdaptiveTargeter::new(0.0, 0.0, 1.0).is_err());
        assert!(AdaptiveTargeter::new(0.0, 1.5, 1.0).is_err());
        assert!(AdaptiveTargeter::new(0.0, 0.9, 0.0).is_err());
    }

    #[test]
    fn empty_corpus_uses_fallback() {
        let t = AdaptiveTargeter::new(0.0, 0.9, 0.7).unwrap();
        assert!((t.next_target_ghz(&[]) - 0.7).abs() < 1e-12);
    }
}

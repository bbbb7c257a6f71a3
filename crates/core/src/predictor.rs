//! Stage 3 — a learned flow-outcome predictor.
//!
//! §3.3: one-pass design "requires accurate modeling and prediction of
//! downstream flow steps and outcomes". [`OutcomePredictor`] gives
//! P(run meets timing) for a (design, option vector) pair, trained on
//! logged runs and usable on *unseen designs* via structural features
//! (§3.3(i)).

use crate::CoreError;
use ideaflow_flow::options::SpnrOptions;
use ideaflow_flow::spnr::SpnrFlow;
use ideaflow_mlkit::logreg::{LogisticConfig, LogisticRegression};
use ideaflow_mlkit::scale::StandardScaler;
use ideaflow_netlist::stats::{structural_features, StructuralFeatures};

/// Feature row for (design structure, option vector).
fn feature_row(design: &StructuralFeatures, opts: &SpnrOptions) -> Vec<f64> {
    let mut row = design.to_row();
    row.push(opts.target_ghz);
    row.push(opts.utilization);
    row.push(opts.aspect_ratio);
    row.push(opts.synth_effort as u8 as f64);
    row.push(opts.place_effort as u8 as f64);
    row.push(opts.route_effort as u8 as f64);
    row
}

/// Number of features in a predictor row.
pub const FEATURE_WIDTH: usize = StructuralFeatures::WIDTH + 6;

/// A training corpus builder: logged runs over one or more flows.
#[derive(Debug, Clone, Default)]
pub struct RunCorpus {
    xs: Vec<Vec<f64>>,
    success: Vec<bool>,
}

impl RunCorpus {
    /// Creates an empty corpus.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples `samples` runs of `flow` at each of `targets` (fractions of
    /// the flow's calibrated fmax), appending to the corpus.
    ///
    /// # Errors
    ///
    /// Propagates option/feature failures as [`CoreError`].
    pub fn add_flow_sweep(
        &mut self,
        flow: &SpnrFlow,
        target_fractions: &[f64],
        samples: u32,
        seed: u64,
    ) -> Result<(), CoreError> {
        let feats =
            structural_features(flow.netlist(), seed).map_err(|e| CoreError::Subsystem {
                detail: e.to_string(),
            })?;
        let fmax = flow.fmax_ref_ghz();
        for (i, &frac) in target_fractions.iter().enumerate() {
            let opts =
                SpnrOptions::with_target_ghz((fmax * frac).clamp(0.01, 20.0)).map_err(|e| {
                    CoreError::InvalidParameter {
                        name: "target_fractions",
                        detail: e.to_string(),
                    }
                })?;
            for s in 0..samples {
                let q = flow.run(&opts, (i as u32) * 1_000 + s);
                self.xs.push(feature_row(&feats, &opts));
                self.success.push(q.meets_timing());
            }
        }
        Ok(())
    }

    /// Number of samples collected.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the corpus is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// The trained timing-success predictor.
#[derive(Debug, Clone)]
pub struct OutcomePredictor {
    scaler: StandardScaler,
    success: LogisticRegression,
}

impl OutcomePredictor {
    /// Trains on a corpus.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Subsystem`] if the model cannot be fitted
    /// (e.g. single-class success labels).
    pub fn train(corpus: &RunCorpus) -> Result<Self, CoreError> {
        let scaler = StandardScaler::fit(&corpus.xs).map_err(|e| CoreError::Subsystem {
            detail: e.to_string(),
        })?;
        let xs = scaler.transform(&corpus.xs);
        let success = LogisticRegression::fit(&xs, &corpus.success, LogisticConfig::default())
            .map_err(|e| CoreError::Subsystem {
                detail: e.to_string(),
            })?;
        Ok(Self { scaler, success })
    }

    /// Predicted probability that a run of (`design`, `opts`) meets timing.
    #[must_use]
    pub fn success_probability(&self, design: &StructuralFeatures, opts: &SpnrOptions) -> f64 {
        let row = self.scaler.transform_row(&feature_row(design, opts));
        self.success.predict_proba(&row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};

    fn flow(seed: u64, n: usize) -> SpnrFlow {
        SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, n).unwrap(), seed)
    }

    fn trained_predictor(flows: &[&SpnrFlow]) -> OutcomePredictor {
        let fractions = [0.5, 0.7, 0.85, 0.95, 1.05, 1.2];
        let mut corpus = RunCorpus::new();
        for (i, f) in flows.iter().enumerate() {
            corpus.add_flow_sweep(f, &fractions, 6, i as u64).unwrap();
        }
        OutcomePredictor::train(&corpus).unwrap()
    }

    #[test]
    fn predictor_is_monotone_in_target() {
        let f = flow(1, 300);
        let p = trained_predictor(&[&f]);
        let feats = structural_features(f.netlist(), 0).unwrap();
        let fmax = f.fmax_ref_ghz();
        let easy = SpnrOptions::with_target_ghz(fmax * 0.5).unwrap();
        let hard = SpnrOptions::with_target_ghz(fmax * 1.2).unwrap();
        let pe = p.success_probability(&feats, &easy);
        let ph = p.success_probability(&feats, &hard);
        assert!(pe > ph, "easy {pe} vs hard {ph}");
        assert!(pe > 0.6);
        assert!(ph < 0.5);
    }

    #[test]
    fn predictor_transfers_to_unseen_design() {
        let train: Vec<SpnrFlow> = (0..3).map(|s| flow(100 + s, 250)).collect();
        let refs: Vec<&SpnrFlow> = train.iter().collect();
        let p = trained_predictor(&refs);
        // Held-out design.
        let test = flow(999, 250);
        let feats = structural_features(test.netlist(), 0).unwrap();
        let fmax = test.fmax_ref_ghz();
        // Score accuracy over a sweep.
        let mut correct = 0;
        let mut total = 0;
        for frac in [0.5, 0.7, 0.9, 1.1, 1.3] {
            let opts = SpnrOptions::with_target_ghz(fmax * frac).unwrap();
            for s in 0..8 {
                let actual = test.run(&opts, 5_000 + s).meets_timing();
                let predicted = p.success_probability(&feats, &opts) >= 0.5;
                if actual == predicted {
                    correct += 1;
                }
                total += 1;
            }
        }
        let acc = f64::from(correct) / f64::from(total);
        assert!(acc > 0.7, "transfer accuracy {acc}");
    }

    #[test]
    fn empty_corpus_fails_cleanly() {
        assert!(OutcomePredictor::train(&RunCorpus::new()).is_err());
    }
}

//! The METRICS data miner.
//!
//! The paper's validation of METRICS used it (i) to "predict
//! design-specific tool outcomes and best tool option settings", via
//! mining and sensitivity analyses with respect to final QoR, and (ii) to
//! "prescribe achievable clock frequency for given designs and resource
//! budgets". Both are implemented here over the run matrix of a journal
//! corpus ([`crate::corpus`]).

use crate::corpus::run_matrix;
use crate::MetricsError;
use ideaflow_flow::record::{FlowStep, StepRecord};
use ideaflow_mlkit::linreg::RidgeRegression;
use ideaflow_mlkit::scale::StandardScaler;

/// Per-option sensitivity of a QoR metric (standardized regression
/// coefficients: effect of one standard deviation of the option on the
/// QoR metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// Option/metric column names, matching the input order.
    pub names: Vec<String>,
    /// Standardized effect sizes (positive = increases the QoR metric).
    pub effects: Vec<f64>,
}

impl Sensitivity {
    /// Columns ranked by |effect| descending.
    #[must_use]
    pub fn ranked(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .names
            .iter()
            .cloned()
            .zip(self.effects.iter().copied())
            .collect();
        v.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite effects"));
        v
    }
}

/// Fits standardized effects of `input_columns` on `target_column` across
/// all complete runs in the corpus.
///
/// # Errors
///
/// - [`MetricsError::NoData`] if fewer than 3 complete runs exist.
/// - [`MetricsError::InvalidParameter`] if the regression fails.
pub fn sensitivity(
    corpus: &[StepRecord],
    input_columns: &[(FlowStep, &str)],
    target_column: (FlowStep, &str),
) -> Result<Sensitivity, MetricsError> {
    let mut all = input_columns.to_vec();
    all.push(target_column);
    let (_ids, rows) = run_matrix(corpus, &all)?;
    if rows.len() < 3 {
        return Err(MetricsError::NoData {
            detail: format!("need at least 3 complete runs, have {}", rows.len()),
        });
    }
    let xs: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| r[..input_columns.len()].to_vec())
        .collect();
    let ys: Vec<f64> = rows.iter().map(|r| r[input_columns.len()]).collect();
    let scaler = StandardScaler::fit(&xs).map_err(|e| MetricsError::InvalidParameter {
        name: "inputs",
        detail: e.to_string(),
    })?;
    let xs_std = scaler.transform(&xs);
    let model =
        RidgeRegression::fit(&xs_std, &ys, 1e-6).map_err(|e| MetricsError::InvalidParameter {
            name: "regression",
            detail: e.to_string(),
        })?;
    Ok(Sensitivity {
        names: input_columns
            .iter()
            .map(|(s, m)| format!("{}.{m}", s.name()))
            .collect(),
        effects: model.weights().to_vec(),
    })
}

/// A fitted QoR predictor over option columns, used to recommend the best
/// option setting among candidates ("best tool option settings").
#[derive(Debug, Clone)]
pub struct OptionRecommender {
    model: RidgeRegression,
    /// Whether larger predicted targets are better.
    maximize: bool,
}

impl OptionRecommender {
    /// Fits from the corpus's complete runs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`sensitivity`].
    pub fn fit(
        corpus: &[StepRecord],
        input_columns: &[(FlowStep, &str)],
        target_column: (FlowStep, &str),
        maximize: bool,
    ) -> Result<Self, MetricsError> {
        let mut all = input_columns.to_vec();
        all.push(target_column);
        let (_ids, rows) = run_matrix(corpus, &all)?;
        if rows.len() < 3 {
            return Err(MetricsError::NoData {
                detail: format!("need at least 3 complete runs, have {}", rows.len()),
            });
        }
        let xs: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r[..input_columns.len()].to_vec())
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[input_columns.len()]).collect();
        let model =
            RidgeRegression::fit(&xs, &ys, 1e-6).map_err(|e| MetricsError::InvalidParameter {
                name: "regression",
                detail: e.to_string(),
            })?;
        Ok(Self { model, maximize })
    }

    /// Predicted QoR for one candidate option row.
    #[must_use]
    pub fn predict(&self, option_row: &[f64]) -> f64 {
        self.model.predict(option_row)
    }

    /// Index of the best candidate.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::NoData`] on an empty candidate list.
    pub fn recommend(&self, candidates: &[Vec<f64>]) -> Result<usize, MetricsError> {
        if candidates.is_empty() {
            return Err(MetricsError::NoData {
                detail: "no candidates".into(),
            });
        }
        let scored = candidates.iter().map(|c| self.predict(c)).enumerate();
        let best = if self.maximize {
            scored.max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
        } else {
            scored.min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
        };
        Ok(best.expect("non-empty candidates").0)
    }
}

/// Prescribes an achievable clock frequency for a design: fits
/// `wns(target)` across collected runs and returns the highest target
/// whose predicted WNS is ≥ `margin_ps`.
///
/// Inputs come from the corpus: the `signoff.wns_ps` metric against the
/// `signoff.target_ghz` metric.
///
/// # Errors
///
/// - [`MetricsError::NoData`] with fewer than 4 signoff records.
/// - [`MetricsError::InvalidParameter`] if the fit degenerates.
pub fn prescribe_frequency_ghz(corpus: &[StepRecord], margin_ps: f64) -> Result<f64, MetricsError> {
    let (_, rows) = run_matrix(
        corpus,
        &[
            (FlowStep::Signoff, "target_ghz"),
            (FlowStep::Signoff, "wns_ps"),
        ],
    )?;
    if rows.len() < 4 {
        return Err(MetricsError::NoData {
            detail: format!("need at least 4 signoff records, have {}", rows.len()),
        });
    }
    // WNS is nearly linear in the period (1000/f); fit wns ~ a*(1000/f)+b
    // and solve for wns = margin.
    let periods: Vec<f64> = rows.iter().map(|r| 1_000.0 / r[0]).collect();
    let wns: Vec<f64> = rows.iter().map(|r| r[1]).collect();
    let (a, b) = ideaflow_mlkit::linreg::fit_line(&periods, &wns).map_err(|e| {
        MetricsError::InvalidParameter {
            name: "fit",
            detail: e.to_string(),
        }
    })?;
    if a.abs() < 1e-9 {
        return Err(MetricsError::InvalidParameter {
            name: "fit",
            detail: "wns does not depend on period in the collected data".into(),
        });
    }
    let period_at_margin = (margin_ps - b) / a;
    if period_at_margin <= 0.0 {
        return Err(MetricsError::InvalidParameter {
            name: "margin_ps",
            detail: "prescribed period is non-positive".into(),
        });
    }
    Ok(1_000.0 / period_at_margin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use ideaflow_flow::options::SpnrOptions;
    use ideaflow_flow::spnr::SpnrFlow;
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};
    use ideaflow_trace::{parse_jsonl, Journal};

    fn journaled_corpus() -> (Vec<StepRecord>, SpnrFlow) {
        let journal = Journal::in_memory("miner");
        let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 300).unwrap(), 5)
            .with_journal(journal.clone());
        let fmax = flow.fmax_ref_ghz();
        for (i, frac) in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05]
            .iter()
            .enumerate()
        {
            let mut opts = SpnrOptions::with_target_ghz(fmax * frac).unwrap();
            opts.utilization = 0.6 + 0.05 * (i % 4) as f64;
            let _ = flow.run_logged(&opts, i as u32);
        }
        let events = parse_jsonl(&journal.drain_lines().join("\n")).unwrap();
        (corpus::from_events(&events), flow)
    }

    #[test]
    fn sensitivity_finds_target_frequency_dominant_for_wns() {
        let (corpus, _flow) = journaled_corpus();
        let s = sensitivity(
            &corpus,
            &[
                (FlowStep::Signoff, "target_ghz"),
                (FlowStep::Floorplan, "utilization"),
            ],
            (FlowStep::Signoff, "wns_ps"),
        )
        .unwrap();
        let ranked = s.ranked();
        assert_eq!(ranked[0].0, "signoff.target_ghz");
        // Higher target frequency must reduce slack.
        let tf = s
            .names
            .iter()
            .position(|n| n == "signoff.target_ghz")
            .unwrap();
        assert!(s.effects[tf] < 0.0);
    }

    #[test]
    fn recommender_picks_lower_frequency_for_wns() {
        let (corpus, flow) = journaled_corpus();
        let rec = OptionRecommender::fit(
            &corpus,
            &[(FlowStep::Signoff, "target_ghz")],
            (FlowStep::Signoff, "wns_ps"),
            true, // maximize slack
        )
        .unwrap();
        let fmax = flow.fmax_ref_ghz();
        let candidates = vec![vec![fmax * 0.5], vec![fmax * 0.9], vec![fmax * 1.2]];
        assert_eq!(rec.recommend(&candidates).unwrap(), 0);
        assert!(rec.recommend(&[]).is_err());
    }

    #[test]
    fn prescribed_frequency_is_near_fmax() {
        let (corpus, flow) = journaled_corpus();
        let f = prescribe_frequency_ghz(&corpus, 0.0).unwrap();
        let fmax = flow.fmax_ref_ghz();
        assert!(
            (f - fmax).abs() / fmax < 0.25,
            "prescribed {f} vs fmax {fmax}"
        );
        // Demanding margin lowers the prescription.
        let f_margin = prescribe_frequency_ghz(&corpus, 50.0).unwrap();
        assert!(f_margin < f);
    }

    #[test]
    fn mining_an_empty_corpus_fails_cleanly() {
        assert!(matches!(
            prescribe_frequency_ghz(&[], 0.0),
            Err(MetricsError::NoData { .. })
        ));
    }
}

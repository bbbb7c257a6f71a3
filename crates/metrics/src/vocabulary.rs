//! The common METRICS vocabulary (paper §4, lesson (2)).
//!
//! "A common METRICS vocabulary across different vendors is also
//! important. Design metrics ... reported from one tool should have the
//! same semantics when reported by another tool." This module is that
//! vocabulary: a registry of canonical metric names with units and
//! per-step applicability, plus corpus validation so instrumented tools
//! cannot silently drift.

use ideaflow_flow::record::{FlowStep, StepRecord};

/// Canonical definition of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Canonical snake_case name.
    pub name: &'static str,
    /// Unit string (dimensionless = "1").
    pub unit: &'static str,
    /// Whether the value must be non-negative.
    pub non_negative: bool,
    /// Steps allowed to report this metric (`None` = any step).
    pub steps: Option<&'static [FlowStep]>,
}

/// The standard vocabulary shared by every instrumented tool in the
/// workspace.
pub const VOCABULARY: &[MetricDef] = &[
    MetricDef {
        name: "target_ghz",
        unit: "GHz",
        non_negative: true,
        steps: None,
    },
    MetricDef {
        name: "instances",
        unit: "1",
        non_negative: true,
        steps: Some(&[FlowStep::Synthesis]),
    },
    MetricDef {
        name: "area_um2",
        unit: "um^2",
        non_negative: true,
        steps: None,
    },
    MetricDef {
        name: "wns_ps",
        unit: "ps",
        non_negative: false,
        steps: None,
    },
    MetricDef {
        name: "leakage_nw",
        unit: "nW",
        non_negative: true,
        steps: Some(&[FlowStep::Signoff]),
    },
    MetricDef {
        name: "runtime_hours",
        unit: "h",
        non_negative: true,
        steps: None,
    },
    MetricDef {
        name: "utilization",
        unit: "1",
        non_negative: true,
        steps: Some(&[FlowStep::Floorplan]),
    },
    MetricDef {
        name: "aspect_ratio",
        unit: "1",
        non_negative: true,
        steps: Some(&[FlowStep::Floorplan]),
    },
    MetricDef {
        name: "cts_aggressive",
        unit: "1",
        non_negative: true,
        steps: Some(&[FlowStep::Cts]),
    },
    MetricDef {
        name: "hpwl_um",
        unit: "um",
        non_negative: true,
        steps: Some(&[FlowStep::Place]),
    },
    MetricDef {
        name: "overflow",
        unit: "1",
        non_negative: true,
        steps: Some(&[FlowStep::Route]),
    },
    MetricDef {
        name: "drv_final",
        unit: "1",
        non_negative: true,
        steps: Some(&[FlowStep::Route]),
    },
    MetricDef {
        name: "clock_skew_ps",
        unit: "ps",
        non_negative: true,
        steps: Some(&[FlowStep::Cts]),
    },
];

/// Looks up a metric definition by canonical name.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    VOCABULARY.iter().find(|d| d.name == name)
}

/// A vocabulary violation found in a record.
#[derive(Debug, Clone, PartialEq)]
pub enum VocabularyViolation {
    /// The metric name is not in the vocabulary.
    UnknownMetric(String),
    /// The metric is defined but not for this step.
    WrongStep {
        /// Metric name.
        metric: String,
        /// Step that reported it.
        step: FlowStep,
    },
    /// The value violates the metric's domain.
    BadValue {
        /// Metric name.
        metric: String,
        /// Offending value.
        value: f64,
    },
}

impl std::fmt::Display for VocabularyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VocabularyViolation::UnknownMetric(m) => write!(f, "unknown metric `{m}`"),
            VocabularyViolation::WrongStep { metric, step } => {
                write!(f, "metric `{metric}` is not defined for step `{step}`")
            }
            VocabularyViolation::BadValue { metric, value } => {
                write!(f, "metric `{metric}` has out-of-domain value {value}")
            }
        }
    }
}

/// Validates every record of a corpus against the vocabulary, returning
/// every violation in corpus order (empty = conformant).
#[must_use]
pub fn validate(corpus: &[StepRecord]) -> Vec<VocabularyViolation> {
    let mut out = Vec::new();
    for record in corpus {
        for (name, value) in &record.metrics {
            let Some(def) = lookup(name) else {
                out.push(VocabularyViolation::UnknownMetric(name.clone()));
                continue;
            };
            if def.steps.is_some_and(|steps| !steps.contains(&record.step)) {
                out.push(VocabularyViolation::WrongStep {
                    metric: name.clone(),
                    step: record.step,
                });
            }
            if def.non_negative && (*value < 0.0 || value.is_nan()) {
                out.push(VocabularyViolation::BadValue {
                    metric: name.clone(),
                    value: *value,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: FlowStep, metrics: &[(&str, f64)]) -> [StepRecord; 1] {
        let mut r = StepRecord::new(step, "run");
        for (n, v) in metrics {
            r.push(n, *v);
        }
        [r]
    }

    #[test]
    fn flow_emitted_records_conform() {
        // Every record the real flow emits must pass the vocabulary.
        use ideaflow_flow::options::SpnrOptions;
        use ideaflow_flow::spnr::SpnrFlow;
        use ideaflow_netlist::generate::{DesignClass, DesignSpec};
        let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 64).unwrap(), 1);
        let opts = SpnrOptions::with_target_ghz(0.3).unwrap();
        let (_q, records) = flow.run_logged(&opts, 0);
        let violations = validate(&records);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn unknown_metric_is_flagged() {
        let m = rec(FlowStep::Place, &[("total_vibes", 1.0)]);
        assert!(matches!(
            validate(&m).as_slice(),
            [VocabularyViolation::UnknownMetric(_)]
        ));
    }

    #[test]
    fn wrong_step_is_flagged() {
        let m = rec(FlowStep::Synthesis, &[("hpwl_um", 12.0)]);
        assert!(matches!(
            validate(&m).as_slice(),
            [VocabularyViolation::WrongStep { .. }]
        ));
    }

    #[test]
    fn domain_violations_are_flagged() {
        let m = rec(FlowStep::Place, &[("hpwl_um", -5.0)]);
        assert!(matches!(
            validate(&m).as_slice(),
            [VocabularyViolation::BadValue { .. }]
        ));
        // wns may legitimately be negative.
        let ok = rec(FlowStep::Signoff, &[("wns_ps", -120.0)]);
        assert!(validate(&ok).is_empty());
    }

    #[test]
    fn lookup_finds_definitions() {
        assert_eq!(lookup("wns_ps").unwrap().unit, "ps");
        assert!(lookup("nonexistent").is_none());
    }
}

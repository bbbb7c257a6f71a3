//! Per-step flow metric records — the raw material of the METRICS system.
//!
//! Every flow run can emit a sequence of [`StepRecord`]s (one per flow
//! step), each carrying named scalar metrics. `SpnrFlow::run_logged`
//! journals them as `flow.step.*` events, and `ideaflow-metrics` mines
//! them back out of any journal.

/// A flow step name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowStep {
    /// Logic synthesis.
    Synthesis,
    /// Floorplanning.
    Floorplan,
    /// Global placement and optimization.
    Place,
    /// Clock-tree synthesis.
    Cts,
    /// Global + detailed routing.
    Route,
    /// Signoff analysis.
    Signoff,
}

impl FlowStep {
    /// The canonical flow order.
    pub const ORDER: [FlowStep; 6] = [
        FlowStep::Synthesis,
        FlowStep::Floorplan,
        FlowStep::Place,
        FlowStep::Cts,
        FlowStep::Route,
        FlowStep::Signoff,
    ];

    /// Stable lowercase name (the common METRICS vocabulary — paper §4
    /// lesson (2)).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FlowStep::Synthesis => "synthesis",
            FlowStep::Floorplan => "floorplan",
            FlowStep::Place => "place",
            FlowStep::Cts => "cts",
            FlowStep::Route => "route",
            FlowStep::Signoff => "signoff",
        }
    }
}

impl std::fmt::Display for FlowStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Metrics reported by one flow step of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Which step.
    pub step: FlowStep,
    /// Run identifier (design + option fingerprint + sample).
    pub run_id: String,
    /// Named scalar metrics, in emission order.
    pub metrics: Vec<(String, f64)>,
}

impl StepRecord {
    /// Creates an empty record for a step of a run.
    #[must_use]
    pub fn new(step: FlowStep, run_id: &str) -> Self {
        Self {
            step,
            run_id: run_id.to_owned(),
            metrics: Vec::new(),
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    /// Looks up a metric by name (first match).
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_order_is_complete_and_distinct() {
        let mut names: Vec<&str> = FlowStep::ORDER.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn record_roundtrip() {
        let mut r = StepRecord::new(FlowStep::Place, "run_001");
        r.push("hpwl_um", 1234.5);
        r.push("overflow", 3.0);
        assert_eq!(r.metric("hpwl_um"), Some(1234.5));
        assert_eq!(r.metric("overflow"), Some(3.0));
        assert_eq!(r.metric("missing"), None);
        assert_eq!(r.step.to_string(), "place");
    }
}

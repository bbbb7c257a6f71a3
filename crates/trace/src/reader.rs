//! The reader/aggregator half of the journal: hold decoded
//! [`RunEvent`]s and summarize them per step. A reader comes from a file
//! ([`crate::Journal::load`]) or from an in-memory journal, written
//! `JournalReader { events: journal.drain_events() }`.

use crate::analyze::SummaryBuilder;
use crate::stats::{FieldStats, Histogram};
use crate::RunEvent;
use serde::Value;

/// A loaded journal: all events, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReader {
    /// Events in the order they were written.
    pub events: Vec<RunEvent>,
}

/// Aggregates for one step name across a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSummary {
    /// The step name.
    pub step: String,
    /// How many events the step emitted.
    pub count: usize,
    /// Per-field statistics over numeric payload fields.
    pub fields: Vec<(String, FieldStats)>,
}

impl JournalReader {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Distinct run ids, in first-seen order.
    #[must_use]
    pub fn run_ids(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = Vec::new();
        for e in &self.events {
            if !ids.contains(&e.run_id.as_str()) {
                ids.push(&e.run_id);
            }
        }
        ids
    }

    /// All events for one step name, in order.
    #[must_use]
    pub fn events_for_step(&self, step: &str) -> Vec<&RunEvent> {
        self.events.iter().filter(|e| e.step == step).collect()
    }

    /// All events for one run, in order.
    #[must_use]
    pub fn events_for_run(&self, run_id: &str) -> Vec<&RunEvent> {
        self.events.iter().filter(|e| e.run_id == run_id).collect()
    }

    /// Whether `seq` strictly increases within every run (the invariant
    /// the writer guarantees for a single journal).
    #[must_use]
    pub fn seq_strictly_increasing_per_run(&self) -> bool {
        self.run_ids().iter().all(|id| {
            self.events_for_run(id)
                .windows(2)
                .all(|w| w[0].seq < w[1].seq)
        })
    }

    /// Per-step event counts and numeric-field statistics, sorted by
    /// step name for stable output.
    #[must_use]
    pub fn summary(&self) -> Vec<StepSummary> {
        let mut builder = SummaryBuilder::new();
        for e in &self.events {
            builder.ingest(e);
        }
        builder.summaries()
    }

    /// Statistics of `value_field` over the events of `step`, grouped by
    /// the integer value of `group_field` (events missing either field
    /// are skipped). Sorted by group key; the shape bandit warm-starts
    /// consume: per-arm reward stats out of `bandit.pull` events.
    #[must_use]
    pub fn field_stats_grouped(
        &self,
        step: &str,
        group_field: &str,
        value_field: &str,
    ) -> Vec<(i64, FieldStats)> {
        let mut groups: Vec<(i64, Histogram)> = Vec::new();
        for e in self.events_for_step(step) {
            let Some(&Value::Int(key)) = e.payload.get(group_field) else {
                continue;
            };
            let x = match e.payload.get(value_field) {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                _ => continue,
            };
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, h)) => h.record(x),
                None => {
                    let mut h = Histogram::new();
                    h.record(x);
                    groups.push((key, h));
                }
            }
        }
        groups.sort_by_key(|(k, _)| *k);
        groups.into_iter().map(|(k, h)| (k, h.stats())).collect()
    }

    /// The stats for one step/field pair, when present.
    #[must_use]
    pub fn field_stats(&self, step: &str, field: &str) -> Option<FieldStats> {
        self.summary()
            .into_iter()
            .find(|s| s.step == step)?
            .fields
            .into_iter()
            .find(|(n, _)| n == field)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Journal;

    fn sample_journal() -> JournalReader {
        let j = Journal::in_memory("run-a");
        j.emit("flow.place", &[("hpwl_um", 100.0.into())]);
        j.emit("flow.place", &[("hpwl_um", 140.0.into())]);
        j.emit("flow.route", &[("drv", 12u64.into())]);
        JournalReader {
            events: j.drain_events(),
        }
    }

    #[test]
    fn summary_counts_and_field_stats() {
        let r = sample_journal();
        assert_eq!(r.len(), 3);
        assert_eq!(r.run_ids(), vec!["run-a"]);
        let summary = r.summary();
        assert_eq!(summary.len(), 2);
        let place = summary.iter().find(|s| s.step == "flow.place").unwrap();
        assert_eq!(place.count, 2);
        let stats = r.field_stats("flow.place", "hpwl_um").unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.mean, 120.0);
        assert_eq!(stats.min, 100.0);
        assert_eq!(stats.max, 140.0);
        let drv = r.field_stats("flow.route", "drv").unwrap();
        assert_eq!(drv.count, 1);
        assert_eq!(drv.mean, 12.0);
    }

    #[test]
    fn grouped_field_stats_split_by_integer_key() {
        let j = Journal::in_memory("mab");
        j.emit(
            "bandit.pull",
            &[("arm", 0u64.into()), ("reward", 1.0.into())],
        );
        j.emit(
            "bandit.pull",
            &[("arm", 1u64.into()), ("reward", 5.0.into())],
        );
        j.emit(
            "bandit.pull",
            &[("arm", 0u64.into()), ("reward", 3.0.into())],
        );
        j.emit("bandit.pull", &[("arm", 1u64.into())]); // no reward: skipped
        let r = JournalReader {
            events: j.drain_events(),
        };
        let groups = r.field_stats_grouped("bandit.pull", "arm", "reward");
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[0].1.count, 2);
        assert_eq!(groups[0].1.mean, 2.0);
        assert_eq!(groups[1].0, 1);
        assert_eq!(groups[1].1.count, 1);
        assert_eq!(groups[1].1.mean, 5.0);
    }

    #[test]
    fn seq_invariant_detects_violations() {
        let r = sample_journal();
        assert!(r.seq_strictly_increasing_per_run());
        let mut bad = r.clone();
        bad.events[2].seq = 0;
        assert!(!bad.seq_strictly_increasing_per_run());
    }
}

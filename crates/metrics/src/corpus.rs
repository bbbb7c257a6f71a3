//! The METRICS corpus: per-step records rebuilt from run journals.
//!
//! Instrumented flow runs journal every [`StepRecord`] as one
//! `flow.step.<step>` event (see `SpnrFlow::run_logged`), so any run
//! journal — in memory, a harness `--journal` file, or a daemon
//! campaign's attempt journal — is METRICS collection data.
//! [`from_events`] turns those events back into records, and
//! [`run_matrix`] aligns them per run for the miner.

use crate::MetricsError;
use ideaflow_flow::record::{FlowStep, StepRecord};
use ideaflow_trace::{PayloadValue, RunEvent};
use std::collections::BTreeMap;

/// Rebuilds the corpus from journal events: one [`StepRecord`] per
/// `flow.step.<step>` event, in journal order.
///
/// The payload's `flow_run` string is the record's run id and every
/// other field is a metric, in payload order. An `Int` field reads back
/// as `f64` (the codec stores whole floats as integers). A `null` field
/// (how the codec stores a non-finite float) and any other
/// non-numeric field are dropped. Events for unknown steps, or without a
/// string `flow_run`, are skipped.
#[must_use]
pub fn from_events<'a>(events: impl IntoIterator<Item = &'a RunEvent>) -> Vec<StepRecord> {
    events
        .into_iter()
        .filter_map(|event| {
            let name = event.step.strip_prefix("flow.step.")?;
            let step = FlowStep::ORDER.into_iter().find(|s| s.name() == name)?;
            let run_id = event.payload.get("flow_run")?.as_str()?;
            let mut record = StepRecord::new(step, run_id);
            for (key, value) in event.payload.as_object()? {
                match value {
                    PayloadValue::Int(i) => record.push(key, *i as f64),
                    PayloadValue::Float(x) => record.push(key, *x),
                    _ => {}
                }
            }
            Some(record)
        })
        .collect()
}

/// Builds an aligned per-run matrix: for each run (in run-id order) that
/// reported every requested `(step, metric)` column, one row of values.
/// A column reads the run's first record for that step.
///
/// # Errors
///
/// Returns [`MetricsError::NoData`] if no run covers all columns.
pub fn run_matrix(
    corpus: &[StepRecord],
    columns: &[(FlowStep, &str)],
) -> Result<(Vec<String>, Vec<Vec<f64>>), MetricsError> {
    let mut runs: BTreeMap<&str, Vec<&StepRecord>> = BTreeMap::new();
    for r in corpus {
        runs.entry(&r.run_id).or_default().push(r);
    }
    let mut ids = Vec::new();
    let mut rows = Vec::new();
    for (id, records) in runs {
        let row: Option<Vec<f64>> = columns
            .iter()
            .map(|&(step, metric)| {
                records
                    .iter()
                    .find(|r| r.step == step)
                    .and_then(|r| r.metric(metric))
            })
            .collect();
        if let Some(row) = row {
            ids.push(id.to_owned());
            rows.push(row);
        }
    }
    if rows.is_empty() {
        return Err(MetricsError::NoData {
            detail: "no run reported every requested column".into(),
        });
    }
    Ok((ids, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::prescribe_frequency_ghz;
    use ideaflow_flow::options::SpnrOptions;
    use ideaflow_flow::spnr::SpnrFlow;
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};
    use ideaflow_trace::{parse_jsonl, Journal};

    fn rec(run: &str, step: FlowStep, metrics: &[(&str, f64)]) -> StepRecord {
        let mut r = StepRecord::new(step, run);
        for (n, v) in metrics {
            r.push(n, *v);
        }
        r
    }

    /// Runs four samples on a journaled flow and returns what
    /// `run_logged` handed back.
    fn journaled_runs(journal: Journal) -> Vec<StepRecord> {
        let flow =
            SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 120).unwrap(), 4).with_journal(journal);
        let opts = SpnrOptions::with_target_ghz(flow.fmax_ref_ghz() * 0.8).unwrap();
        (0..4).flat_map(|s| flow.run_logged(&opts, s).1).collect()
    }

    #[test]
    fn memory_and_file_journals_rebuild_what_run_logged_returned() {
        let memory = Journal::in_memory("corpus");
        let expected = journaled_runs(memory.clone());
        let events = parse_jsonl(&memory.drain_lines().join("\n")).unwrap();
        assert_eq!(from_events(&events), expected);

        let path = std::env::temp_dir().join(format!("corpus_{}.ifj", std::process::id()));
        let file = Journal::to_file("corpus", &path).unwrap();
        assert_eq!(journaled_runs(file.clone()), expected);
        file.finish();
        drop(file);
        let reader = Journal::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(from_events(&reader.events), expected);

        // The whole-valued instance count travels as an integer and
        // comes back as the same f64.
        let synthesis = events
            .iter()
            .find(|e| e.step == "flow.step.synthesis")
            .unwrap();
        assert_eq!(
            synthesis.payload.get("instances"),
            Some(&PayloadValue::Int(120))
        );
        assert_eq!(expected[0].metric("instances"), Some(120.0));
    }

    #[test]
    fn null_metrics_are_dropped_and_mining_them_never_panics() {
        let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 120).unwrap(), 4);
        // Journals whose slacks diverge (NaN) on every run, or on every
        // third run.
        for diverged_every in [1, 3] {
            let journal = Journal::in_memory("nan");
            for s in 0..8u32 {
                let target = flow.fmax_ref_ghz() * (0.6 + 0.1 * f64::from(s));
                let opts = SpnrOptions::with_target_ghz(target).unwrap();
                let (_q, records) = flow.run_logged(&opts, s);
                for r in records {
                    let fields: Vec<(&str, PayloadValue)> =
                        std::iter::once(("flow_run", r.run_id.as_str().into()))
                            .chain(r.metrics.iter().map(|(k, v)| {
                                let diverged = k == "wns_ps" && s % diverged_every == 0;
                                (k.as_str(), if diverged { f64::NAN } else { *v }.into())
                            }))
                            .collect();
                    journal.emit(&format!("flow.step.{}", r.step.name()), &fields);
                }
            }
            let events = parse_jsonl(&journal.drain_lines().join("\n")).unwrap();
            assert!(events
                .iter()
                .any(|e| e.payload.get("wns_ps") == Some(&PayloadValue::Null)));
            let corpus = from_events(&events);
            assert_eq!(corpus.len(), 8 * FlowStep::ORDER.len());
            assert!(corpus.iter().all(|r| r.metric("target_ghz").is_some()));
            let with_wns = corpus.iter().filter(|r| r.metric("wns_ps").is_some());
            assert_eq!(with_wns.count(), if diverged_every == 1 { 0 } else { 20 });
            match prescribe_frequency_ghz(&corpus, 0.0) {
                Ok(f) => assert!(f.is_finite() && diverged_every == 3),
                Err(e) => assert!(matches!(e, MetricsError::NoData { .. }), "{e}"),
            }
        }
    }

    #[test]
    fn foreign_and_malformed_events_are_skipped() {
        let events = parse_jsonl(
            r#"{"run_id":"j","step":"flow.sample","seq":0,"payload":{"flow_run":"r","wns_ps":1.5}}
{"run_id":"j","step":"flow.step.frobnicate","seq":1,"payload":{"flow_run":"r"}}
{"run_id":"j","step":"flow.step.place","seq":2,"payload":{"hpwl_um":1.5}}
{"run_id":"j","step":"flow.step.place","seq":3,"payload":{"flow_run":3}}
{"run_id":"j","step":"flow.step.place","seq":4,"payload":[1]}
{"run_id":"j","step":"flow.step.route","seq":5,"payload":{"drv_final":7,"flow_run":"r","note":"x","overflow":null,"cts":true}}"#,
        )
        .unwrap();
        assert_eq!(
            from_events(&events),
            vec![rec("r", FlowStep::Route, &[("drv_final", 7.0)])]
        );
    }

    #[test]
    fn run_matrix_aligns_complete_runs() {
        let mut corpus = Vec::new();
        for (run, hpwl, wns) in [("b", 20.0, -2.0), ("a", 10.0, 1.0)] {
            corpus.push(rec(run, FlowStep::Place, &[("hpwl_um", hpwl)]));
            corpus.push(rec(run, FlowStep::Signoff, &[("wns_ps", wns)]));
        }
        // An incomplete run: missing signoff.
        corpus.push(rec("c", FlowStep::Place, &[("hpwl_um", 30.0)]));
        let (ids, rows) = run_matrix(
            &corpus,
            &[(FlowStep::Place, "hpwl_um"), (FlowStep::Signoff, "wns_ps")],
        )
        .unwrap();
        assert_eq!(ids, vec!["a".to_owned(), "b".to_owned()]);
        assert_eq!(rows, vec![vec![10.0, 1.0], vec![20.0, -2.0]]);
    }

    #[test]
    fn empty_matrix_is_an_error() {
        assert!(run_matrix(&[], &[(FlowStep::Place, "hpwl_um")]).is_err());
    }
}

//! Golden tests for the runtime journal linter's engine,
//! `schema::lint_event`, which `ifjournal lint` runs on every decoded
//! record: a journal produced through the real `Journal` API conforms
//! to the registry, and targeted corruptions of its decoded events — a
//! renamed payload key, an unknown step, a retyped value — surface as
//! named diagnostics on the corrupted event alone. `ifjournal_cli.rs`
//! checks the record numbers the binary prints.

use ideaflow_trace::schema::lint_event;
use ideaflow_trace::{Journal, PayloadValue, RunEvent};

/// A small but representative journal written through the public API:
/// events, counters, histograms, a span, a timer, and the summary. The
/// `bandit.pull` record comes first.
fn conforming_events() -> Vec<RunEvent> {
    let j = Journal::in_memory("lint-golden");
    j.emit(
        "bandit.pull",
        &[
            ("t", 0i64.into()),
            ("policy", "thompson".into()),
            ("arm", 2i64.into()),
            ("reward", 1.25.into()),
            // NaN is written as null; the field is declared optional.
            ("cumulative_regret", f64::NAN.into()),
            ("posterior_means", PayloadValue::Array(vec![])),
        ],
    );
    j.count("bandit.pulls", 1);
    j.observe("bandit.reward", 1.25);
    drop(j.span("flow.run_physical"));
    j.time("bench.lint_golden", || ());
    j.finish();
    j.drain_events()
}

/// Every finding, as (record index, event name, message).
fn findings(events: &[RunEvent]) -> Vec<(usize, String, String)> {
    events
        .iter()
        .enumerate()
        .flat_map(|(i, e)| {
            lint_event(e)
                .into_iter()
                .map(move |message| (i, e.step.clone(), message))
        })
        .collect()
}

/// The payload entries of the first (`bandit.pull`) event.
fn pull_fields(events: &mut [RunEvent]) -> &mut Vec<(String, PayloadValue)> {
    assert_eq!(events[0].step, "bandit.pull");
    match &mut events[0].payload {
        PayloadValue::Object(entries) => entries,
        other => panic!("payload is not an object: {other:?}"),
    }
}

#[test]
fn journal_written_through_the_api_conforms() {
    let events = conforming_events();
    assert_eq!(events.len(), 5, "{events:#?}");
    let diags = findings(&events);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn misspelled_field_is_a_named_diagnostic_on_its_event() {
    let mut events = conforming_events();
    let fields = pull_fields(&mut events);
    let reward = fields.iter_mut().find(|(k, _)| k == "reward").unwrap();
    reward.0 = "rewrad".to_owned();
    let diags = findings(&events);
    assert_eq!(diags.len(), 2, "{diags:#?}");
    for (i, event, _) in &diags {
        assert_eq!((*i, event.as_str()), (0, "bandit.pull"));
    }
    assert!(
        diags
            .iter()
            .any(|d| d.2.contains("missing required field `reward`")),
        "{diags:#?}"
    );
    assert!(
        diags.iter().any(|d| d.2.contains("unknown field `rewrad`")),
        "{diags:#?}"
    );
}

#[test]
fn unknown_event_is_a_named_diagnostic_on_its_event() {
    let mut events = conforming_events();
    events[0].step = "bandit.pulled".to_owned();
    let diags = findings(&events);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!((diags[0].0, diags[0].1.as_str()), (0, "bandit.pulled"));
    assert!(
        diags[0].2.contains("not in the trace schema registry"),
        "{}",
        diags[0].2
    );
}

#[test]
fn mistyped_value_is_a_named_diagnostic_on_its_event() {
    let mut events = conforming_events();
    let fields = pull_fields(&mut events);
    let arm = fields.iter_mut().find(|(k, _)| k == "arm").unwrap();
    arm.1 = PayloadValue::Str("two".to_owned());
    let diags = findings(&events);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!((diags[0].0, diags[0].1.as_str()), (0, "bandit.pull"));
    assert!(diags[0].2.contains("`arm` should be int"), "{}", diags[0].2);
}

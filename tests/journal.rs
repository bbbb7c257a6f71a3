//! Workspace-level tests of the run journal: round-trip through JSONL on
//! disk, determinism under a fixed seed, and the per-run sequence
//! invariant under arbitrary emission patterns.

use ideaflow::flow::options::SpnrOptions;
use ideaflow::flow::spnr::SpnrFlow;
use ideaflow::netlist::generate::{DesignClass, DesignSpec};
use ideaflow::trace::{Journal, JournalReader, PayloadValue, RunEvent};
use proptest::prelude::*;

fn journaled_physical_run(journal: &Journal) {
    let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Dsp, 300).unwrap(), 0xD37)
        .with_journal(journal.clone());
    let opts = SpnrOptions::with_target_ghz(flow.fmax_ref_ghz() * 0.8).unwrap();
    let _ = flow.run_physical(&opts, 3);
}

#[test]
fn file_round_trip_preserves_every_event() {
    let dir = std::env::temp_dir().join("ideaflow_journal_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");

    let journal = Journal::to_file("rt", &path).unwrap();
    journaled_physical_run(&journal);
    journal.finish();

    let reader = Journal::load(&path).unwrap();
    assert!(
        reader.len() >= 8,
        "expected stage events, got {}",
        reader.len()
    );
    assert_eq!(reader.run_ids(), vec!["rt"]);
    assert!(reader.seq_strictly_increasing_per_run());
    // The per-stage vocabulary of run_physical arrived intact.
    for step in [
        "flow.floorplan",
        "flow.place",
        "flow.cts",
        "flow.route",
        "flow.signoff",
        "flow.detail_route",
        "flow.run_physical",
    ] {
        assert_eq!(reader.events_for_step(step).len(), 1, "missing {step}");
    }
    // And the closing summary aggregates the counters.
    let summary = reader.events_for_step("journal.summary");
    assert_eq!(summary.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(run_id, step, seq, payload-fields)` with the `secs` fields removed.
type StrippedEvent = (String, String, u64, Vec<(String, String)>);

#[test]
fn journaled_runs_are_deterministic_under_a_fixed_seed() {
    // Two identical runs must produce identical journals except for the
    // wall-clock `secs` fields (the journal's only nondeterministic
    // payload) — compare events with those fields stripped.
    let strip = |journal: &Journal| -> Vec<StrippedEvent> {
        journal
            .drain_events()
            .iter()
            .map(|e| {
                let fields = e
                    .payload
                    .as_object()
                    .map(|obj| {
                        obj.iter()
                            .filter(|(k, _)| k != "secs" && !k.ends_with(".secs"))
                            .map(|(k, v)| (k.clone(), format!("{v:?}")))
                            .collect()
                    })
                    .unwrap_or_default();
                (e.run_id.clone(), e.step.clone(), e.seq, fields)
            })
            .collect()
    };

    let a = Journal::in_memory("det");
    journaled_physical_run(&a);
    let b = Journal::in_memory("det");
    journaled_physical_run(&b);
    let (ea, eb) = (strip(&a), strip(&b));
    assert!(!ea.is_empty());
    assert_eq!(ea, eb);
}

#[test]
fn diff_of_two_fixed_seed_journals_is_stable() {
    // Two runs of the same seeded workload journal identical event
    // shapes; `ifjournal diff` over them must report matching counts
    // and (for the deterministic fields) zero mean deltas.
    let journal_for = |id: &str| {
        let j = Journal::in_memory(id);
        journaled_physical_run(&j);
        j.finish();
        JournalReader {
            events: j.drain_events(),
        }
    };
    let a = journal_for("run-a");
    let b = journal_for("run-b");
    let text = ideaflow::trace::analyze::diff_summaries(&a.summary(), &b.summary());
    assert!(!text.is_empty());
    assert!(!text.contains("only in"), "fixed seeds must match:\n{text}");
    // Every step line reports identical event counts for a and b.
    let place_line = text
        .lines()
        .find(|l| l.starts_with("flow.place"))
        .expect("flow.place in diff");
    assert!(place_line.contains("hpwl_um"), "{place_line}");
    assert!(place_line.contains("+0.0%"), "{place_line}");
}

/// Span events from a journal, parsed as (kind, id, parent, seq).
fn span_events(reader: &JournalReader) -> Vec<(bool, i64, i64, u64)> {
    reader
        .events
        .iter()
        .filter(|e| e.step == "span.open" || e.step == "span.close")
        .map(|e| {
            let get = |k: &str| match e.payload.get(k) {
                Some(ideaflow::trace::PayloadValue::Int(i)) => *i,
                other => panic!("span field {k} missing or non-int: {other:?}"),
            };
            (e.step == "span.open", get("id"), get("parent"), e.seq)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any pattern of nested/sequential spans: every close's seq is
    /// greater than its open's seq, and every parent closes after all
    /// of its children (RAII nesting observed through the journal).
    #[test]
    fn span_nesting_and_ordering_invariants(ops in proptest::collection::vec(0usize..3, 1..24)) {
        let journal = Journal::in_memory("spans");
        {
            let mut open: Vec<ideaflow::trace::Span> = Vec::new();
            for op in ops {
                match op {
                    // Open a child of the current innermost span.
                    0 | 1 => open.push(journal.span("s")),
                    // Close the innermost span (noop when none open).
                    _ => {
                        open.pop();
                    }
                }
            }
            // Close remaining guards innermost-first (a Vec drop would
            // run front-to-back, i.e. outermost first).
            while let Some(s) = open.pop() {
                drop(s);
            }
        }
        journal.finish();
        let reader = JournalReader { events: journal.drain_events() };
        let events = span_events(&reader);
        let opens: Vec<_> = events.iter().filter(|e| e.0).collect();
        let closes: Vec<_> = events.iter().filter(|e| !e.0).collect();
        prop_assert_eq!(opens.len(), closes.len(), "every span closes");
        for close in &closes {
            let open = opens.iter().find(|o| o.1 == close.1).expect("open for close");
            prop_assert!(close.3 > open.3, "close seq {} <= open seq {}", close.3, open.3);
            prop_assert_eq!(open.2, close.2, "parent consistent across open/close");
            // The parent (if any) closes after this child.
            if close.2 >= 0 {
                let parent_close = closes.iter().find(|c| c.1 == close.2).expect("parent closes");
                prop_assert!(
                    parent_close.3 > close.3,
                    "parent {} closed at {} before child {} at {}",
                    close.2, parent_close.3, close.1, close.3
                );
            }
        }
    }
}

/// `(step, seq, payload-fields)` with wall-clock fields removed.
type MergedEvent = (String, u64, Vec<(String, String)>);

/// Events with wall-clock fields stripped, in sink order; the
/// `journal.summary` event is excluded (its float moments are compared
/// separately — merge order makes the low bits of mean/std
/// schedule-dependent, exactly as reduction order did under the old
/// single lock).
fn stripped_events(events: &[RunEvent]) -> Vec<MergedEvent> {
    events
        .iter()
        .filter(|e| e.step != "journal.summary")
        .map(|e| {
            let fields = e
                .payload
                .as_object()
                .map(|obj| {
                    obj.iter()
                        .filter(|(k, _)| k != "secs" && !k.ends_with(".secs"))
                        .map(|(k, v)| (k.clone(), format!("{v:?}")))
                        .collect()
                })
                .unwrap_or_default();
            (e.step.clone(), e.seq, fields)
        })
        .collect()
}

/// The exact (order-independent) aggregates of the `journal.summary`
/// event: counter totals plus histogram count/min/max/negatives.
fn summary_exact_fields(events: &[RunEvent]) -> Vec<(String, String)> {
    let summaries: Vec<&RunEvent> = events
        .iter()
        .filter(|e| e.step == "journal.summary")
        .collect();
    assert_eq!(summaries.len(), 1, "exactly one summary");
    let payload = &summaries[0].payload;
    let mut out = Vec::new();
    if let Some(counters) = payload.get("counters").and_then(|c| c.as_object()) {
        for (name, total) in counters {
            out.push((format!("counter:{name}"), format!("{total:?}")));
        }
    }
    if let Some(hists) = payload.get("histograms").and_then(|h| h.as_object()) {
        for (name, stats) in hists {
            for field in ["count", "min", "max", "negatives"] {
                out.push((
                    format!("hist:{name}:{field}"),
                    format!("{:?}", stats.get(field)),
                ));
            }
        }
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The per-worker-buffer journal reproduces the old single-lock
    /// sink. Baseline: the same ops emitted sequentially (under one
    /// lock, arrival order *was* ticket order, so the sequential run
    /// is exactly what the old sink wrote). On a 1-thread pool the new
    /// journal must match it byte for byte modulo wall-clock fields —
    /// same events, same payloads, same `seq` assignment. On 2/4-thread
    /// pools ticket *interleaving* is scheduling (it always was); what
    /// must hold is: the same multiset of events with a dense strictly
    /// monotone `seq`, and identical exact aggregates in the summary.
    #[test]
    fn per_worker_buffers_reproduce_the_single_lock_baseline(
        tasks in proptest::collection::vec(proptest::collection::vec(0usize..3, 1..6), 1..10),
    ) {
        let run_ops = |journal: &Journal, i: usize, ops: &[usize]| {
            for (k, op) in ops.iter().enumerate() {
                let v = (i * 10 + k) as f64;
                match op {
                    0 => journal.emit(
                        "prop.event",
                        &[("v", PayloadValue::Float(v))],
                    ),
                    1 => journal.count("prop.counter", (i + k) as u64 + 1),
                    _ => journal.observe("prop.sample", v),
                }
            }
        };
        let events_at = |threads: Option<usize>| -> Vec<RunEvent> {
            let journal = Journal::in_memory("merge");
            match threads {
                None => {
                    for (i, ops) in tasks.iter().enumerate() {
                        run_ops(&journal, i, ops);
                    }
                }
                Some(n) => {
                    let pool = ideaflow::exec::PoolBuilder::new().threads(n).build();
                    pool.par_map(tasks.clone(), |i, ops| run_ops(&journal, i, &ops));
                }
            }
            journal.finish();
            journal.drain_events()
        };

        let baseline = events_at(None);
        let single = events_at(Some(1));
        // 1 thread: par_map runs inline in submission order — the
        // journal is the single-lock journal, byte for byte.
        prop_assert_eq!(stripped_events(&baseline), stripped_events(&single));
        prop_assert_eq!(summary_exact_fields(&baseline), summary_exact_fields(&single));

        let base_summary = summary_exact_fields(&baseline);
        let mut base_set = stripped_events(&baseline);
        base_set.iter_mut().for_each(|e| e.1 = 0);
        base_set.sort();
        for threads in [2usize, 4] {
            let journaled = events_at(Some(threads));
            let events = stripped_events(&journaled);
            // Dense strictly-monotone seq in sink order.
            for (pos, e) in events.iter().enumerate() {
                prop_assert_eq!(e.1, pos as u64, "{} threads: seq gap", threads);
            }
            let mut set = events;
            set.iter_mut().for_each(|e| e.1 = 0);
            set.sort();
            prop_assert_eq!(&set, &base_set, "{} threads: event multiset", threads);
            prop_assert_eq!(
                &summary_exact_fields(&journaled),
                &base_summary,
                "{} threads: summary aggregates",
                threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever mix of emit/count/observe lands in a journal, `seq` is
    /// strictly increasing per run as observed by a reader.
    #[test]
    fn seq_strictly_increases_for_any_emission_pattern(
        kinds in proptest::collection::vec(0usize..3, 1..40),
        values in proptest::collection::vec(-1.0e6f64..1.0e6, 40),
    ) {
        let journal = Journal::in_memory("prop");
        for (i, kind) in kinds.iter().enumerate() {
            let v = values[i % values.len()];
            match *kind {
                0 => journal.emit("prop.event", &[("v", PayloadValue::Float(v))]),
                1 => journal.count("prop.counter", (i as u64) % 7 + 1),
                _ => journal.observe("prop.sample", v),
            }
        }
        journal.finish();
        let reader = JournalReader {
            events: journal.drain_events(),
        };
        prop_assert!(reader.seq_strictly_increasing_per_run());
        // Every emit (kind 0) produced exactly one event, plus the
        // summary; count/observe only fold into the summary.
        let emitted = kinds.iter().filter(|&&k| k == 0).count();
        prop_assert_eq!(reader.events_for_step("prop.event").len(), emitted);
        prop_assert_eq!(reader.events_for_step("journal.summary").len(), 1);
    }
}

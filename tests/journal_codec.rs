//! Workspace-level tests of the journal codec and its JSONL rendering:
//! file and in-memory journals written through the public API hold the
//! same record sequence at any thread count, the rendering parses back
//! to exactly the decoded events, torn tails recover the valid prefix
//! with a typed error, and a half-written frame reads as "not yet"
//! rather than malformed (the `watch` retry contract).

use std::sync::atomic::{AtomicU64, Ordering};

use ideaflow::trace::codec;
use ideaflow::trace::{parse_jsonl, DecodeError, EventStream, Journal, PayloadValue, RunEvent};
use ideaflow::trace::{JournalReader, StreamDecoder};
use proptest::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ideaflow_journal_codec_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn decode(path: &std::path::Path) -> Vec<RunEvent> {
    EventStream::open(path)
        .unwrap()
        .map(|e| e.unwrap())
        .collect()
}

/// `(run_id, step, seq, payload-fields)`: an orderable view of an event.
/// The ops below never emit wall-clock fields, so nothing needs masking.
type StrippedEvent = (String, String, u64, Vec<(String, String)>);

fn stripped(events: &[RunEvent]) -> Vec<StrippedEvent> {
    events
        .iter()
        .map(|e| {
            let fields = e
                .payload
                .as_object()
                .map(|obj| {
                    obj.iter()
                        .map(|(k, v)| (k.clone(), format!("{v:?}")))
                        .collect()
                })
                .unwrap_or_default();
            (e.run_id.clone(), e.step.clone(), e.seq, fields)
        })
        .collect()
}

/// Renders `path` through `ifjournal convert`'s code path and parses
/// the JSONL back.
fn rendered(path: &std::path::Path) -> Vec<RunEvent> {
    let out = path.with_extension("jsonl");
    let count = codec::convert(path, &out).unwrap();
    let events = parse_jsonl(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(count as usize, events.len());
    events
}

/// The exact (order-independent) aggregates of the `journal.summary`
/// event: counter totals plus histogram count/min/max/negatives. The
/// float moments (mean/std) depend on per-thread merge order, so they
/// are excluded from cross-thread-count comparisons.
fn summary_exact(events: &[RunEvent]) -> Vec<(String, String)> {
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A journal is one encoding with one rendering. Sequentially, an
    /// in-memory journal drains (through `drain_events`) exactly the
    /// events a file journal decodes to after its `journal.meta`
    /// header, and the encoder is deterministic byte for byte. On
    /// 2/4-thread pools the file journal keeps the sequential
    /// invariants — dense monotone `seq`, the baseline's event multiset,
    /// exact summary aggregates — and its `convert` rendering parses
    /// back to exactly the decoded events.
    #[test]
    fn both_formats_decode_identically_at_any_thread_count(
        tasks in proptest::collection::vec(proptest::collection::vec(0usize..3, 1..6), 1..8),
    ) {
        let dir = scratch_dir();
        let run_ops = |journal: &Journal, i: usize, ops: &[usize]| {
            for (k, op) in ops.iter().enumerate() {
                let v = (i * 10 + k) as f64;
                match op {
                    0 => journal.emit("prop.event", &[("v", PayloadValue::Float(v))]),
                    1 => journal.count("prop.counter", (i + k) as u64 + 1),
                    _ => journal.observe("prop.sample", v),
                }
            }
        };
        let run = |journal: &Journal, threads: Option<usize>| {
            match threads {
                None => {
                    for (i, ops) in tasks.iter().enumerate() {
                        run_ops(journal, i, ops);
                    }
                }
                Some(n) => {
                    let pool = ideaflow::exec::PoolBuilder::new().threads(n).build();
                    pool.par_map(tasks.clone(), |i, ops| run_ops(journal, i, &ops));
                }
            }
            journal.finish();
        };
        let write = |path: &std::path::Path, threads: Option<usize>| {
            run(&Journal::to_file("codec", path).unwrap(), threads);
        };

        // Sequential: the memory sink holds the file's events, one seq
        // behind the file's header.
        let binary = dir.join("seq.ifj");
        write(&binary, None);
        let baseline = decode(&binary);
        prop_assert_eq!(baseline[0].step.as_str(), "journal.meta");
        let memory = Journal::in_memory("codec");
        run(&memory, None);
        let mut from_memory = memory.drain_events();
        from_memory.iter_mut().for_each(|e| e.seq += 1);
        prop_assert_eq!(stripped(&baseline[1..]), stripped(&from_memory));
        prop_assert_eq!(rendered(&binary), baseline.clone());

        // Deterministic encoder: a rerun of the same ops is the same file.
        let binary2 = dir.join("seq2.ifj");
        write(&binary2, None);
        prop_assert_eq!(
            std::fs::read(&binary).unwrap(),
            std::fs::read(&binary2).unwrap()
        );

        // The multiset comparison excludes `journal.summary`: its
        // histogram moments (mean/std) depend on per-thread merge
        // order in the last float bit. The summary's exact aggregates
        // are compared separately via `summary_exact`.
        let base_summary = summary_exact(&baseline);
        let mut base_set = stripped(&baseline);
        base_set.retain(|e| e.1 != "journal.summary");
        base_set.iter_mut().for_each(|e| e.2 = 0);
        base_set.sort();
        for threads in [2usize, 4] {
            let par = dir.join(format!("par{threads}.ifj"));
            write(&par, Some(threads));
            let events = decode(&par);
            // Dense strictly-monotone seq in frame order.
            for (pos, e) in events.iter().enumerate() {
                prop_assert_eq!(e.seq, pos as u64, "{} threads: seq gap", threads);
            }
            let mut set = stripped(&events);
            set.retain(|e| e.1 != "journal.summary");
            set.iter_mut().for_each(|e| e.2 = 0);
            set.sort();
            prop_assert_eq!(&set, &base_set, "{} threads: event multiset", threads);
            prop_assert_eq!(
                &summary_exact(&events),
                &base_summary,
                "{} threads: summary aggregates",
                threads
            );
            prop_assert_eq!(rendered(&par), events, "{} threads: rendering", threads);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn write_small_binary(path: &std::path::Path) -> Vec<RunEvent> {
    let journal = Journal::to_file("torn", path).unwrap();
    for i in 0..50 {
        journal.emit(
            "prop.event",
            &[
                ("v", PayloadValue::Float(f64::from(i))),
                ("tag", PayloadValue::Str(format!("case-{i}"))),
            ],
        );
    }
    journal.finish();
    decode(path)
}

/// Decodes until the first error; returns the clean prefix and the
/// error (if any).
fn decode_until_error(path: &std::path::Path) -> (Vec<RunEvent>, Option<DecodeError>) {
    let mut events = Vec::new();
    for item in EventStream::open(path).unwrap() {
        match item {
            Ok(e) => events.push(e),
            Err(e) => return (events, Some(e)),
        }
    }
    (events, None)
}

#[test]
fn truncated_binary_journal_recovers_the_valid_prefix() {
    let dir = scratch_dir();
    let path = dir.join("torn.ifj");
    let full = write_small_binary(&path);
    let bytes = std::fs::read(&path).unwrap();

    // A killed writer tears the tail at an arbitrary byte: every cut
    // must yield a clean prefix of the full stream plus a typed
    // `Truncated` error, never garbage events.
    for cut in [bytes.len() - 3, bytes.len() * 3 / 5, bytes.len() / 3] {
        let torn = dir.join(format!("torn-{cut}.ifj"));
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        let (prefix, err) = decode_until_error(&torn);
        assert!(
            prefix.len() <= full.len(),
            "cut {cut}: more events than the intact file"
        );
        assert_eq!(
            stripped(&prefix),
            stripped(&full[..prefix.len()]),
            "cut {cut}: prefix diverged"
        );
        match err {
            None => {} // the cut landed exactly on a frame boundary
            Some(DecodeError::Truncated { offset }) => {
                assert!(offset <= cut as u64, "cut {cut}: offset past the cut");
            }
            Some(other) => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_binary_frame_surfaces_a_typed_error() {
    let dir = scratch_dir();
    let path = dir.join("corrupt.ifj");
    write_small_binary(&path);
    let mut bytes = std::fs::read(&path).unwrap();

    // The first frame starts right after the fixed header; its body
    // begins one varint (a single byte for small frames) later. An
    // unknown frame kind there is structurally invalid.
    let header_len = codec::header_bytes(&codec::base_names()).len();
    bytes[header_len + 1] = 99;
    std::fs::write(&path, &bytes).unwrap();
    let (prefix, err) = decode_until_error(&path);
    assert!(prefix.is_empty(), "corrupt first frame must not decode");
    match err {
        Some(DecodeError::Corrupt { offset, .. }) => {
            assert_eq!(offset, header_len as u64, "error anchors the bad frame");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Binary decode errors are fatal (no resync): the stream ends at
    // the first corrupt frame even though valid frames follow it.
    let reloaded = Journal::load(&path);
    assert!(reloaded.is_err(), "load must refuse a corrupt journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_binary_frame_is_incomplete_not_malformed() {
    let dir = scratch_dir();
    let path = dir.join("partial.ifj");
    let full = write_small_binary(&path);
    let bytes = std::fs::read(&path).unwrap();

    let mut dec = StreamDecoder::new();
    let mut events = Vec::new();
    let drain = |dec: &mut StreamDecoder, events: &mut Vec<RunEvent>| loop {
        match dec.next_event() {
            Ok(Some(e)) => events.push(e),
            Ok(None) => break,
            Err(e) => panic!("unexpected decode error: {e:?}"),
        }
    };

    // Stop mid-corpus (inside a record frame): the torn frame is
    // pending, not an error — exactly what `watch` sees between two
    // polls of a live writer.
    let cut = bytes.len() * 3 / 5;
    dec.push(&bytes[..cut]);
    drain(&mut dec, &mut events);
    assert!(
        events.len() < full.len(),
        "the torn tail must not decode yet"
    );
    assert!(
        matches!(dec.next_event(), Ok(None)),
        "torn frame is pending"
    );

    // The next poll delivers the rest; the stream completes cleanly.
    dec.push(&bytes[cut..]);
    drain(&mut dec, &mut events);
    assert_eq!(stripped(&events), stripped(&full));
    assert_eq!(dec.finish(), Ok(()), "no residue at clean EOF");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_seeds_match_the_collecting_readers() {
    // The streaming seeders (`seed_event`, `seed_from_events`) must
    // absorb exactly what the reader-based `seed_from_journal` paths
    // absorb.
    let dir = scratch_dir();
    {
        let path = dir.join("seed.ifj");
        let journal = Journal::to_file("seed", &path).unwrap();
        for i in 0..20i64 {
            journal.emit(
                "flow.sample",
                &[
                    ("sample", PayloadValue::Int(i)),
                    ("fingerprint", PayloadValue::Int(i * 37)),
                    ("target_ghz", PayloadValue::Float(1.2)),
                    ("area_um2", PayloadValue::Float(51_000.0 + i as f64)),
                    ("wns_ps", PayloadValue::Float(-3.0)),
                    ("leakage_nw", PayloadValue::Float(9.0)),
                    ("runtime_hours", PayloadValue::Float(0.4)),
                ],
            );
            journal.emit(
                "bandit.pull",
                &[
                    ("arm", PayloadValue::Int(i % 4)),
                    ("reward", PayloadValue::Float(i as f64 / 7.0)),
                ],
            );
        }
        journal.finish();

        let reader = Journal::load(&path).unwrap();
        let streamed_cache = ideaflow::flow::cache::QorCache::new();
        let mut streamed = 0usize;
        for event in EventStream::open(&path).unwrap() {
            if streamed_cache.seed_event(&event.unwrap()) {
                streamed += 1;
            }
        }
        let loaded_cache = ideaflow::flow::cache::QorCache::new();
        assert_eq!(
            streamed,
            loaded_cache.seed_from_journal(&reader),
            "cache seed count"
        );
        assert_eq!(streamed, 20, "every flow.sample absorbed");

        let mut streamed_policy =
            ideaflow::bandit::policy::ThompsonGaussian::new(4, 1.0, 0.5).unwrap();
        let pulls = streamed_policy.seed_from_events(reader.events.iter());
        assert_eq!(pulls, 20, "every bandit.pull absorbed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The binary journal through `load` and `EventStream`, and its JSONL
/// rendering through `parse_jsonl`, hold the same events.
#[test]
fn load_and_stream_agree_on_both_formats() {
    let dir = scratch_dir();
    let path = dir.join("agree.ifj");
    let journal = Journal::to_file("agree", &path).unwrap();
    journal.emit("prop.event", &[("v", PayloadValue::Float(2.25))]);
    journal.count("prop.counter", 3);
    journal.finish();
    let streamed = decode(&path);
    let loaded: JournalReader = Journal::load(&path).unwrap();
    assert_eq!(streamed, loaded.events);
    assert!(loaded.seq_strictly_increasing_per_run());
    let rendering = path.with_extension("jsonl");
    codec::convert(&path, &rendering).unwrap();
    let text = std::fs::read_to_string(&rendering).unwrap();
    assert_eq!(parse_jsonl(&text).unwrap(), loaded.events);
    let _ = std::fs::remove_dir_all(&dir);
}

//! End-to-end tests of the `ifjournal` binary over both journal
//! formats: every analysis surface accepts a binary journal and agrees
//! with its JSONL twin, `convert` round-trips losslessly, and `watch
//! --once` tolerates a torn tail — a half-written line (even one split
//! inside a multi-byte UTF-8 character) or a half-written binary frame
//! is "not yet", never "malformed".

use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use ideaflow_trace::{Journal, JournalFormat, PayloadValue};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ideaflow_ifjournal_cli_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ifjournal(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ifjournal"))
        .args(args)
        .output()
        .expect("run ifjournal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Writes the same campaign-shaped journal in the requested format.
fn write_fixture(path: &std::path::Path, format: JournalFormat) {
    let j = Journal::to_file_with_format("cli", path, format).unwrap();
    for i in 0..10i64 {
        j.emit(
            "bandit.pull",
            &[
                ("t", PayloadValue::Int(i)),
                ("policy", PayloadValue::Str("thompson".into())),
                ("arm", PayloadValue::Int(i % 3)),
                ("reward", PayloadValue::Float(i as f64 / 4.0)),
                ("posterior_means", PayloadValue::Array(vec![])),
            ],
        );
        j.count("bandit.pulls", 1);
        j.observe("bandit.reward", i as f64 / 4.0);
    }
    drop(j.span("flow.run_physical"));
    j.finish();
}

/// The wall-clock fields (`secs`, `*.secs`) differ run to run, and the
/// `journal.meta` header's `format` tag differs between formats by
/// design; strip both so the rest of the output must compare equal.
fn strip_volatile(text: &str) -> String {
    let text = text
        .replace("format=1.0000 /2.0000", "format=*")
        .replace("format=2.0000 /4.0000", "format=*")
        .replace("\"format\": 1", "\"format\": *")
        .replace("\"format\": 2", "\"format\": *");
    let toks: Vec<&str> = text.split_whitespace().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].contains("secs") {
            i += 1;
            // the field's p95 column rides along with its mean
            if i < toks.len() && toks[i].starts_with('/') {
                i += 1;
            }
            continue;
        }
        out.push(toks[i]);
        i += 1;
    }
    out.join(" ")
}

#[test]
fn every_surface_agrees_across_formats() {
    let dir = scratch_dir();
    let jsonl = dir.join("camp.jsonl");
    let binary = dir.join("camp.ifj");
    write_fixture(&jsonl, JournalFormat::Jsonl);
    write_fixture(&binary, JournalFormat::Binary);
    let jsonl = jsonl.to_str().unwrap();
    let binary = binary.to_str().unwrap();

    // Each command with a string its output must contain.
    for (cmd, needle) in [
        (vec!["summary"], "bandit.pull"),
        (vec!["summary", "--failures"], "no failure events"),
        (vec!["summary", "--by-thread"], "self_s"),
        (vec!["tail", "-n", "5"], "journal.summary"),
        (vec!["tail", "-n", "3", "--step", "bandit.pull"], "reward"),
        (vec!["flame"], "flow.run_physical"),
    ] {
        let mut a = cmd.clone();
        a.push(jsonl);
        let mut b = cmd.clone();
        b.push(binary);
        let out_a = ifjournal(&a);
        let out_b = ifjournal(&b);
        assert!(out_a.status.success(), "{cmd:?} on jsonl: {out_a:?}");
        assert!(out_b.status.success(), "{cmd:?} on binary: {out_b:?}");
        for out in [&out_a, &out_b] {
            assert!(stdout(out).contains(needle), "{cmd:?}: {}", stdout(out));
        }
        let (mut norm_a, mut norm_b) = (
            strip_volatile(&stdout(&out_a)),
            strip_volatile(&stdout(&out_b)),
        );
        if cmd[0] == "flame" || cmd.contains(&"--by-thread") {
            // Flame widths and per-thread self times derive from
            // wall-clock span durations, which differ between the two
            // fixture writes; compare structure.
            let names_only = |s: &str| {
                s.split_whitespace()
                    .filter(|t| t.parse::<f64>().is_err())
                    .map(|t| t.split('=').next().unwrap_or(t))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            norm_a = names_only(&norm_a);
            norm_b = names_only(&norm_b);
        }
        assert_eq!(norm_a, norm_b, "{cmd:?}: formats disagree");
    }

    // lint: both formats conform to the registry, same event count.
    for path in [jsonl, binary] {
        let out = ifjournal(&["lint", path]);
        assert!(out.status.success(), "lint {path}: {out:?}");
        assert!(
            stdout(&out).contains(": ok ("),
            "lint {path}: {}",
            stdout(&out)
        );
    }

    // watch --once: a finished journal snapshots identically.
    let watch_a = ifjournal(&["watch", "--once", jsonl]);
    let watch_b = ifjournal(&["watch", "--once", binary]);
    assert!(watch_a.status.success() && watch_b.status.success());
    assert_eq!(stdout(&watch_a), stdout(&watch_b));
    assert!(
        stdout(&watch_a).contains("pulls 10") && stdout(&watch_a).contains("alerts: none"),
        "{}",
        stdout(&watch_a)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_round_trips_between_the_formats() {
    let dir = scratch_dir();
    let jsonl = dir.join("camp.jsonl");
    write_fixture(&jsonl, JournalFormat::Jsonl);
    let binary = dir.join("camp.ifj");
    let back = dir.join("back.jsonl");

    // Default target is the opposite of the sniffed input format.
    let out = ifjournal(&["convert", jsonl.to_str().unwrap(), binary.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout(&out).contains("(jsonl -> binary)"),
        "{}",
        stdout(&out)
    );
    let out = ifjournal(&["convert", binary.to_str().unwrap(), back.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout(&out).contains("(binary -> jsonl)"),
        "{}",
        stdout(&out)
    );

    // Lossless: the round-tripped journal decodes to the same events.
    // (Byte identity is not the contract for JSONL — whole floats
    // normalize to ints on decode, in both formats alike.)
    let events = |p: &std::path::Path| -> Vec<String> {
        ideaflow_trace::EventStream::open(p)
            .unwrap()
            .map(|e| format!("{:?}", e.unwrap()))
            .collect()
    };
    assert_eq!(events(&jsonl), events(&back));

    // Explicit --to with the same format as the input still works.
    let copy = dir.join("copy.ifj");
    let out = ifjournal(&[
        "convert",
        "--to",
        "binary",
        binary.to_str().unwrap(),
        copy.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        std::fs::read(&binary).unwrap(),
        std::fs::read(&copy).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_once_tolerates_a_torn_jsonl_tail() {
    let dir = scratch_dir();
    let path = dir.join("live.jsonl");
    write_fixture(&path, JournalFormat::Jsonl);

    // Append a half-written line cut inside a multi-byte UTF-8
    // character ("é" = C3 A9, cut after C3) — the worst torn tail a
    // live writer can leave. A text-mode reader chokes on it; the byte
    // decoder must hold it pending and report the healthy prefix.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    let torn = br#"{"run_id":"cli","step":"note.event","seq":99,"payload":{"msg":"caf"#;
    f.write_all(torn).unwrap();
    f.write_all(&[0xC3]).unwrap();
    drop(f);

    let out = ifjournal(&["watch", "--once", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "torn tail must not fail watch: {out:?}"
    );
    assert!(stdout(&out).contains("pulls 10"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_once_tolerates_a_torn_binary_frame() {
    let dir = scratch_dir();
    let complete = dir.join("done.ifj");
    write_fixture(&complete, JournalFormat::Binary);

    // Rebuild the file cut mid-frame: a live binary writer flushes
    // whole frames, but a kill can still tear the tail at any byte.
    let bytes = std::fs::read(&complete).unwrap();
    let torn = dir.join("torn.ifj");
    std::fs::write(&torn, &bytes[..bytes.len() * 3 / 5]).unwrap();

    let out = ifjournal(&["watch", "--once", torn.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "torn frame must not fail watch: {out:?}"
    );
    assert!(stdout(&out).contains("events"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

//! End-to-end tests of the `ifjournal` binary: every analysis surface
//! reads a journal, `convert` renders JSONL that parses back to the
//! decoded events, a JSONL file is refused with the bad-magic error,
//! and `watch --once` tolerates a torn tail — a half-written frame is
//! "not yet", never "malformed".

use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use ideaflow_trace::{parse_jsonl, schema, EventStream, Journal, PayloadValue};

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

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes a campaign-shaped journal.
fn write_fixture(path: &std::path::Path) {
    let j = Journal::to_file("cli", path).unwrap();
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

#[test]
fn every_surface_reads_the_journal() {
    let dir = scratch_dir();
    let path = dir.join("camp.ifj");
    write_fixture(&path);
    let path = path.to_str().unwrap();

    // Each command with a string its output must contain.
    for (cmd, needle) in [
        (vec!["summary"], "bandit.pull"),
        (vec!["summary", "--failures"], "no failure events"),
        (vec!["summary", "--by-thread"], "self_s"),
        (vec!["tail", "-n", "5"], "journal.summary"),
        (vec!["tail", "-n", "3", "--step", "bandit.pull"], "reward"),
        (vec!["flame"], "flow.run_physical"),
        (vec!["lint"], ": ok (14 events conform"),
        (vec!["watch", "--once"], "pulls 10"),
    ] {
        let mut args = cmd.clone();
        args.push(path);
        let out = ifjournal(&args);
        assert!(out.status.success(), "{cmd:?}: {out:?}");
        assert!(stdout(&out).contains(needle), "{cmd:?}: {}", stdout(&out));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_renders_jsonl_that_parses_back_to_the_journal() {
    let dir = scratch_dir();
    let binary = dir.join("camp.ifj");
    write_fixture(&binary);
    let jsonl = dir.join("camp.jsonl");

    let out = ifjournal(&["convert", binary.to_str().unwrap(), jsonl.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout(&out).contains("converted 14 events (binary -> jsonl)"),
        "{}",
        stdout(&out)
    );
    let decoded: Vec<_> = EventStream::open(&binary)
        .unwrap()
        .map(Result::unwrap)
        .collect();
    let parsed = parse_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
    assert_eq!(parsed, decoded);
    assert!(parsed.iter().all(|e| schema::lint_event(e).is_empty()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_jsonl_file_is_refused_with_the_bad_magic_error() {
    let dir = scratch_dir();
    let binary = dir.join("camp.ifj");
    write_fixture(&binary);
    let jsonl = dir.join("camp.jsonl");
    assert!(
        ifjournal(&["convert", binary.to_str().unwrap(), jsonl.to_str().unwrap()])
            .status
            .success()
    );
    let jsonl = jsonl.to_str().unwrap();
    let copy = dir.join("copy.jsonl");
    let copy = copy.to_str().unwrap();

    for args in [
        vec!["summary", jsonl],
        vec!["summary", "--by-thread", jsonl],
        vec!["tail", jsonl],
        vec!["flame", jsonl],
        vec!["diff", jsonl, jsonl],
        vec!["convert", jsonl, copy],
        vec!["watch", "--once", jsonl],
        vec!["lint", jsonl],
    ] {
        let out = ifjournal(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let text = stdout(&out) + &stderr(&out);
        assert!(text.contains("bad magic bytes"), "{args:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes a journal whose one `bandit.pull` misspells `reward`, and
/// returns the file length once that record is flushed: the offset at
/// which the next frame, the `journal.summary` record, starts.
fn write_misspelled(path: &std::path::Path) -> usize {
    let j = Journal::to_file("cli", path).unwrap();
    j.emit(
        "bandit.pull",
        &[
            ("t", PayloadValue::Int(0)),
            ("policy", PayloadValue::Str("thompson".into())),
            ("arm", PayloadValue::Int(1)),
            ("rewrad", PayloadValue::Float(0.5)),
            ("posterior_means", PayloadValue::Array(vec![])),
        ],
    );
    j.flush();
    let flushed = std::fs::metadata(path).unwrap().len() as usize;
    j.finish();
    flushed
}

#[test]
fn lint_reports_a_misspelled_field_at_its_record_number() {
    let dir = scratch_dir();
    let path = dir.join("typo.ifj");
    write_misspelled(&path);
    let path = path.to_str().unwrap();

    let out = ifjournal(&["lint", path]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // Record 1 is the `journal.meta` header.
    let text = stdout(&out);
    assert!(
        text.contains(&format!(
            "{path}:line 2: [bandit.pull] unknown field `rewrad`"
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "{path}:line 2: [bandit.pull] missing required field `reward`"
        )),
        "{text}"
    );
    assert!(stderr(&out).contains("2 schema finding(s)"), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lint_reports_a_torn_frame_at_the_next_record_number() {
    let dir = scratch_dir();
    let complete = dir.join("typo.ifj");
    let summary_at = write_misspelled(&complete);
    let bytes = std::fs::read(&complete).unwrap();
    let torn = dir.join("torn.ifj");
    // Cut two bytes into the `journal.summary` frame.
    std::fs::write(&torn, &bytes[..summary_at + 2]).unwrap();
    let torn = torn.to_str().unwrap();

    let out = ifjournal(&["lint", torn]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(
        text.contains(&format!(
            "{torn}:line 2: [bandit.pull] unknown field `rewrad`"
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "{torn}:line 3: truncated frame at byte {summary_at}"
        )),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_once_tolerates_a_torn_binary_frame() {
    let dir = scratch_dir();
    let complete = dir.join("done.ifj");
    write_fixture(&complete);

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

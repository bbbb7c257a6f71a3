//! The harness binaries' flag glue, driven through the real `fig07_mab`
//! and `fig06a_gwtw` executables: `--journal`, the held telemetry
//! endpoint, chaos kill and `--resume`, and `--alerts`. The mechanisms
//! behind each flag have in-process tests; these pin the wiring.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

use ideaflow_trace::analyze::FailureLedger;
use ideaflow_trace::{schema, Journal, JournalReader};

const FIG07_MAB: &str = env!("CARGO_BIN_EXE_fig07_mab");
const FIG06A_GWTW: &str = env!("CARGO_BIN_EXE_fig06a_gwtw");

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ideaflow_harness_cli_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a harness binary to completion in `dir` and returns its
/// stdout; relative paths in `args` land in `dir`.
fn run(dir: &Path, bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn harness");
    assert!(out.status.success(), "{bin} {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Loads a journal; every event must pass the schema registry's lint.
fn load_linted(path: &Path) -> JournalReader {
    let journal = Journal::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    for event in &journal.events {
        let problems = schema::lint_event(event);
        assert!(
            problems.is_empty(),
            "{}: {} (seq {}): {problems:?}",
            path.display(),
            event.step,
            event.seq
        );
    }
    journal
}

fn line_starting<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
}

fn get(port: u16, path: &str) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

/// Kills the child when dropped, so a failed assertion cannot leave a
/// held endpoint running.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn journal_flag_records_every_bandit_pull() {
    let dir = scratch_dir();
    run(&dir, FIG07_MAB, &["--journal", "mab.ifj"]);
    let journal = load_linted(&dir.join("mab.ifj"));
    assert_eq!(
        journal.events_for_step("bandit.pull").len(),
        200,
        "40 iterations x 5 concurrent pulls"
    );
    let steps: Vec<&str> = journal.events.iter().map(|e| e.step.as_str()).collect();
    assert_eq!(steps.first(), Some(&"journal.meta"));
    assert_eq!(steps.last(), Some(&"journal.summary"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn held_telemetry_endpoint_serves_health_and_pool_gauges() {
    let mut child = KillOnDrop(
        Command::new(FIG06A_GWTW)
            .args(["--telemetry-port", "0", "--telemetry-hold-ms", "600000"])
            .env("IDEAFLOW_THREADS", "4")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fig06a_gwtw"),
    );
    // The endpoint line is printed before the workload starts.
    let mut stderr = BufReader::new(child.0.stderr.take().expect("piped stderr"));
    let port: u16 = stderr
        .by_ref()
        .lines()
        .map(|l| l.expect("child stderr"))
        .find_map(|l| {
            l.strip_prefix("telemetry: http://127.0.0.1:")?
                .split('/')
                .next()?
                .parse()
                .ok()
        })
        .expect("telemetry endpoint on stderr");

    let health = get(port, "/healthz");
    assert!(health.ends_with("ok\n"), "{health}");
    let metrics = get(port, "/metrics");
    assert!(
        metrics.lines().any(|l| l == "ideaflow_exec_workers 4"),
        "{metrics}"
    );
    assert!(metrics.contains("ideaflow_exec_workers_busy"), "{metrics}");
    drop(child);
}

#[test]
fn killed_binary_journal_resumes_to_the_uninterrupted_best() {
    let dir = scratch_dir();
    let full_out = run(&dir, FIG06A_GWTW, &["--chaos", "--journal", "full.ifj"]);
    let kill = "--chaos --kill-after-round 2 --journal killed.ifj";
    run(&dir, FIG06A_GWTW, &kill.split(' ').collect::<Vec<_>>());
    let resumed_out = run(&dir, FIG06A_GWTW, &["--chaos", "--resume", "killed.ifj"]);
    let resumed = line_starting(&resumed_out, "resumed: ");
    assert!(!resumed.starts_with("resumed: 0 "), "{resumed}");
    assert_eq!(
        line_starting(&resumed_out, "chaos best:"),
        line_starting(&full_out, "chaos best:"),
        "kill + resume must reach the uninterrupted best, bit for bit"
    );
    load_linted(&dir.join("killed.ifj"));

    // The uninterrupted run's failure ledger accounts for its faults.
    let mut ledger = FailureLedger::new();
    for event in &load_linted(&dir.join("full.ifj")).events {
        ledger.ingest(event);
    }
    let text = ledger.render();
    assert!(text.contains("fault.injected"), "{text}");
    assert!(text.contains("run.retry"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ci_alert_rules_fire_the_model_hour_budget() {
    let dir = scratch_dir();
    let rules = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/alerts.toml");
    let args = ["--chaos", "--alerts", rules, "--journal", "alerts.ifj"];
    let out = run(&dir, FIG06A_GWTW, &args);
    let firing = line_starting(&out, "alerts firing:");
    assert!(firing.contains("model-hour-budget"), "{firing}");
    let journal = load_linted(&dir.join("alerts.ifj"));
    assert_eq!(journal.events_for_step("alert.fired").len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

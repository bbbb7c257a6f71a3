//! Crash-resume against the real `ideaflow_serve` binary: `kill -9`
//! mid-campaign, restart on the same state dir, and the recovered
//! campaign must finish with a best bit-identical to an uninterrupted
//! run, driven end-to-end through the process boundary (no in-process
//! shortcuts). Every graceful shutdown must exit 0, including one whose
//! stdout reader has gone.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::Duration;

const SPEC: &str = r#"{"kind": "chaos", "rounds": 12}"#;

struct Server {
    child: Child,
    /// The child's stdout, still open after the `listening` line.
    stdout: Option<BufReader<ChildStdout>>,
    port: u16,
    recovered: bool,
}

impl Server {
    fn start(state_dir: &Path) -> Self {
        Self::start_paced(state_dir, None)
    }

    /// `round_hold_ms` paces the daemon's chaos rounds (pure pacing,
    /// bit-identical results) so the SIGKILL below reliably lands
    /// mid-campaign even in fast builds.
    fn start_paced(state_dir: &Path, round_hold_ms: Option<u64>) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ideaflow_serve"));
        cmd.args(["--state-dir", &state_dir.display().to_string()])
            .args(["--port", "0", "--workers", "1"])
            .stdout(Stdio::piped());
        if let Some(ms) = round_hold_ms {
            cmd.env("IDEAFLOW_SERVE_ROUND_HOLD_MS", ms.to_string());
        } else {
            cmd.env_remove("IDEAFLOW_SERVE_ROUND_HOLD_MS");
        }
        let mut child = cmd.spawn().expect("spawn ideaflow_serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut recovered = false;
        let mut port = None;
        for line in stdout.by_ref().lines() {
            let line = line.expect("child stdout");
            if line.starts_with("recovered:") {
                recovered = true;
            }
            if let Some(p) = line.strip_prefix("listening on 127.0.0.1:") {
                port = Some(p.trim().parse().expect("port"));
                break;
            }
        }
        Self {
            child,
            stdout: Some(stdout),
            port: port.expect("child printed its port"),
            recovered,
        }
    }

    /// `POST /shutdown`, then waits for the daemon to exit on its own.
    /// Returns its exit status and what it printed after `listening`.
    fn shutdown(mut self) -> (ExitStatus, String) {
        let resp = request(self.port, "POST", "/shutdown", None);
        assert!(resp.starts_with("HTTP/1.1 202"), "{resp}");
        let mut printed = String::new();
        if let Some(mut stdout) = self.stdout.take() {
            stdout.read_to_string(&mut printed).expect("child stdout");
        }
        (self.child.wait().expect("reap"), printed)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn send(port: u16, method: &str, path: &str, body: Option<&str>) -> TcpStream {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    stream
}

fn request(port: u16, method: &str, path: &str, body: Option<&str>) -> String {
    let mut out = String::new();
    let _ = send(port, method, path, body).read_to_string(&mut out);
    out
}

fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let at = resp.find(&pat)?;
    resp[at + pat.len()..].split('"').next()
}

/// Follows the campaign's journal until the daemon ends the stream
/// (the campaign is terminal), then returns its status.
fn wait_done(port: u16, id: &str) -> String {
    request(
        port,
        "GET",
        &format!("/campaigns/{id}/journal?follow=1"),
        None,
    );
    let resp = request(port, "GET", &format!("/campaigns/{id}"), None);
    assert!(resp.contains("\"state\": \"done\""), "{resp}");
    resp
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ideaflow_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigkill_mid_campaign_then_restart_resumes_bit_identical() {
    // Baseline: the same spec, uninterrupted, on a fresh state dir.
    let base_dir = scratch("base");
    let mut server = Server::start(&base_dir);
    assert!(!server.recovered, "fresh state dir has nothing to recover");
    let resp = request(server.port, "POST", "/campaigns", Some(SPEC));
    assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
    let id = field(&resp, "id").expect("id in 201 body").to_owned();
    let done = wait_done(server.port, &id);
    let baseline_bits = field(&done, "best_bits").expect("best_bits").to_owned();
    // Nobody reads stdout any more: the drain's status lines must not
    // take the daemon down with them.
    drop(server.stdout.take());
    let (status, _) = server.shutdown();
    assert!(status.success(), "drain with a closed stdout: {status}");
    let _ = std::fs::remove_dir_all(&base_dir);

    // The victim: SIGKILL once the campaign is visibly mid-flight
    // (round pacing keeps it there long enough to be caught).
    let dir = scratch("victim");
    let mut victim = Server::start_paced(&dir, Some(200));
    assert!(!victim.recovered);
    let resp = request(victim.port, "POST", "/campaigns", Some(SPEC));
    assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
    let id = field(&resp, "id").expect("id in 201 body").to_owned();
    let follow = send(
        victim.port,
        "GET",
        &format!("/campaigns/{id}/journal?follow=1"),
        None,
    );
    let first_round = BufReader::new(follow)
        .lines()
        .map_while(Result::ok)
        .any(|line| line.contains("gwtw.round"));
    assert!(first_round, "the journal stream ended before a gwtw round");
    victim.child.kill().expect("SIGKILL the daemon");
    victim.child.wait().expect("reap");

    // Restart on the same state dir: the campaign must be recovered,
    // resumed (attempt 2), and finish with the baseline's exact bits.
    let server = Server::start(&dir);
    assert!(
        server.recovered,
        "restart must report the in-flight campaign it recovered"
    );
    let done = wait_done(server.port, &id);
    assert!(
        done.contains("\"attempts\": 2"),
        "recovered campaign should be on attempt 2: {done}"
    );
    let resumed_bits = field(&done, "best_bits").expect("best_bits").to_owned();
    assert_eq!(
        resumed_bits, baseline_bits,
        "kill -9 + resume must be bit-identical to an uninterrupted run"
    );

    let (status, printed) = server.shutdown();
    assert!(status.success(), "graceful drain: {status}");
    assert!(printed.lines().any(|l| l == "drained"), "{printed}");
    let _ = std::fs::remove_dir_all(&dir);
}

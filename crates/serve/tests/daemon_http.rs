//! End-to-end daemon tests over real sockets: submit/poll/cancel,
//! admission control under a concurrent storm with no acked submission
//! lost, graceful drain with checkpoint-resume, and the 1-vs-4-worker
//! determinism contract.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ideaflow_serve::{Daemon, DaemonConfig};

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ideaflow_serve_test_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(port: u16, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn submit(port: u16, body: &str) -> (String, String) {
    let resp = request(port, "POST", "/campaigns", body);
    let id = resp
        .rsplit_once("\"id\": \"")
        .and_then(|(_, rest)| rest.split('"').next())
        .map(str::to_owned)
        .unwrap_or_default();
    (resp, id)
}

/// Polls `GET /campaigns/<id>` until its state is terminal.
fn wait_terminal(port: u16, id: &str, within: Duration) -> String {
    let deadline = Instant::now() + within;
    loop {
        let resp = request(port, "GET", &format!("/campaigns/{id}"), "");
        if resp.contains("\"state\": \"done\"") || resp.contains("\"state\": \"cancelled\"") {
            return resp;
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} not terminal in {within:?}: {resp}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn best_bits(status_json: &str) -> String {
    status_json
        .rsplit_once("\"best_bits\": \"")
        .and_then(|(_, rest)| rest.split('"').next())
        .unwrap_or_else(|| panic!("no best_bits in {status_json}"))
        .to_owned()
}

#[test]
fn submit_poll_and_complete_a_campaign() {
    let state = scratch("basic");
    let mut daemon = Daemon::start(&DaemonConfig::new(&state)).unwrap();
    let port = daemon.port();

    assert!(request(port, "GET", "/healthz", "").ends_with("ok\n"));
    assert!(request(port, "GET", "/campaigns", "").contains("[]"));

    let (resp, id) = submit(port, r#"{"kind": "gwtw", "dim": 4, "seed": 7}"#);
    assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
    assert_eq!(id, "c0001");

    let done = wait_terminal(port, &id, Duration::from_secs(60));
    assert!(done.contains("\"state\": \"done\""), "{done}");
    assert!(done.contains("\"ok\": true"), "{done}");
    assert!(done.contains("\"best_bits\""), "{done}");

    // The list surface shows it too; unknown ids are 404.
    let list = request(port, "GET", "/campaigns", "");
    assert!(list.contains("\"id\": \"c0001\""), "{list}");
    let missing = request(port, "GET", "/campaigns/c9999", "");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    // Malformed submissions fail loudly, not silently.
    let bad = request(port, "POST", "/campaigns", "{nope");
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    let unknown = request(port, "POST", "/campaigns", r#"{"kind": "warp"}"#);
    assert!(unknown.starts_with("HTTP/1.1 400"), "{unknown}");
    let typo = request(
        port,
        "POST",
        "/campaigns",
        r#"{"kind": "gwtw", "rounds": 2}"#,
    );
    assert!(typo.starts_with("HTTP/1.1 400"), "{typo}");

    // /metrics exposes the daemon counters.
    let metrics = request(port, "GET", "/metrics", "");
    assert!(
        metrics.contains("ideaflow_queue_submitted_total"),
        "{metrics}"
    );
    assert!(
        metrics.contains("ideaflow_serve_requests_total"),
        "{metrics}"
    );

    daemon.drain();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn admission_control_sheds_with_429_and_retry_after() {
    let state = scratch("backpressure");
    let mut cfg = DaemonConfig::new(&state);
    cfg.workers = 0; // queue-only: nothing drains, depth is exact
    cfg.queue_bound = 3;
    let mut daemon = Daemon::start(&cfg).unwrap();
    let port = daemon.port();

    for i in 0..3 {
        let (resp, _) = submit(port, &format!(r#"{{"kind": "gwtw", "seed": {i}}}"#));
        assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
    }
    let (resp, _) = submit(port, r#"{"kind": "gwtw", "seed": 99}"#);
    assert!(resp.starts_with("HTTP/1.1 429"), "{resp}");
    assert!(resp.contains("Retry-After: 1"), "{resp}");
    assert!(resp.contains("\"depth\": 3"), "{resp}");

    // Cancelling a pending campaign frees a slot.
    let cancel = request(port, "POST", "/campaigns/c0001/cancel", "");
    assert!(cancel.starts_with("HTTP/1.1 202"), "{cancel}");
    assert!(cancel.contains("\"cancelled\""), "{cancel}");
    let again = request(port, "POST", "/campaigns/c0001/cancel", "");
    assert!(again.starts_with("HTTP/1.1 409"), "{again}");
    let (resp, _) = submit(port, r#"{"kind": "gwtw", "seed": 100}"#);
    assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");

    daemon.drain();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn deeply_nested_body_gets_400_and_the_daemon_lives_on() {
    let state = scratch("deepbody");
    let mut cfg = DaemonConfig::new(&state);
    cfg.workers = 0;
    let mut daemon = Daemon::start(&cfg).unwrap();
    let port = daemon.port();

    // One nesting level per byte, far past the JSON parser's bound.
    let deep = request(port, "POST", "/campaigns", &"[".repeat(200_000));
    assert!(deep.starts_with("HTTP/1.1 400"), "{deep}");
    assert!(deep.contains("nesting deeper than 64"), "{deep}");
    let health = request(port, "GET", "/healthz", "");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");

    daemon.drain();
    let _ = std::fs::remove_dir_all(&state);
}

/// Releases `clients` threads at once, each submitting one cheap
/// campaign. Returns each response's status code and id.
fn storm(port: u16, clients: usize, seed_base: usize) -> Vec<(String, String)> {
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let spec = format!(r#"{{"kind": "gwtw", "dim": 4, "seed": {}}}"#, seed_base + c);
                let (resp, id) = submit(port, &spec);
                (resp.get(9..12).unwrap_or("").to_owned(), id)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect()
}

fn count(results: &[(String, String)], code: &str) -> usize {
    results.iter().filter(|(c, _)| c == code).count()
}

/// Records the storm's acked ids, then checks that every id acked so
/// far is listed by `GET /campaigns`.
fn assert_no_ack_lost(port: u16, acked: &mut BTreeSet<String>, storm: &[(String, String)]) {
    acked.extend(
        storm
            .iter()
            .filter(|(c, _)| c == "201")
            .map(|(_, id)| id.clone()),
    );
    let resp = request(port, "GET", "/campaigns", "");
    let lost: Vec<&String> = acked
        .iter()
        .filter(|id| !resp.contains(&format!("\"id\": \"{id}\"")))
        .collect();
    assert!(lost.is_empty(), "acked ids lost: {lost:?}");
}

#[test]
fn overload_sheds_with_429_and_loses_no_ack() {
    const CLIENTS: usize = 16;
    let state = scratch("overload");
    let mut cfg = DaemonConfig::new(&state);
    cfg.workers = 0; // nothing claims, so shedding depends on count alone
    cfg.queue_bound = 4;
    let mut acked = BTreeSet::new();

    // Live: every client races for 4 slots, so exactly 4 are acked and
    // 12 are shed explicitly.
    let mut daemon = Daemon::start(&cfg).unwrap();
    let results = storm(daemon.port(), CLIENTS, 0);
    assert_eq!(count(&results, "201"), 4, "{results:?}");
    assert_eq!(count(&results, "429"), CLIENTS - 4, "{results:?}");
    assert_no_ack_lost(daemon.port(), &mut acked, &results);
    daemon.drain();
    drop(daemon);

    // After a drain: restart with workers claiming while a second storm
    // submits; acks and sheds now race the workers.
    cfg.workers = 2;
    let mut daemon = Daemon::start(&cfg).unwrap();
    assert_no_ack_lost(daemon.port(), &mut acked, &[]);
    let results = storm(daemon.port(), CLIENTS, CLIENTS);
    assert_eq!(
        count(&results, "201") + count(&results, "429"),
        CLIENTS,
        "{results:?}"
    );
    assert_no_ack_lost(daemon.port(), &mut acked, &results);
    daemon.drain();
    drop(daemon);

    // After a restart that drained running campaigns.
    cfg.workers = 0;
    let mut daemon = Daemon::start(&cfg).unwrap();
    assert_no_ack_lost(daemon.port(), &mut acked, &[]);
    daemon.drain();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn shutdown_request_drains_and_refuses_submissions() {
    let state = scratch("drainreject");
    let mut cfg = DaemonConfig::new(&state);
    cfg.workers = 0;
    let mut daemon = Daemon::start(&cfg).unwrap();
    let port = daemon.port();

    let (resp, _) = submit(port, r#"{"kind": "gwtw"}"#);
    assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");

    let shutdown = request(port, "POST", "/shutdown", "");
    assert!(shutdown.starts_with("HTTP/1.1 202"), "{shutdown}");
    assert!(daemon.shutdown_requested());

    let (refused, _) = submit(port, r#"{"kind": "gwtw"}"#);
    assert!(refused.starts_with("HTTP/1.1 503"), "{refused}");

    daemon.drain();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn graceful_drain_checkpoints_and_resume_is_bit_identical() {
    let state = scratch("drainresume");
    let mut cfg = DaemonConfig::new(&state);
    cfg.workers = 1;
    // Pace the rounds so the drain below reliably lands mid-campaign
    // even when the exec pool makes rounds fast (pure pacing — the
    // bits don't change).
    cfg.round_hold = Some(Duration::from_millis(150));
    let mut daemon = Daemon::start(&cfg).unwrap();
    let port = daemon.port();

    let spec = r#"{"kind": "chaos", "rounds": 12}"#;
    let (resp, id) = submit(port, spec);
    assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");

    // Wait until the campaign is actually mid-flight (its journal has
    // at least one completed GWTW round), then drain.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let tail = request(port, "GET", &format!("/campaigns/{id}/journal"), "");
        if tail.contains("gwtw.round") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign never got going: {tail}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.drain();
    drop(daemon);

    // Restart from the same state dir: the campaign resumes (attempt
    // 2) and finishes with a bit-identical best. No pacing this time —
    // the resumed attempt should just finish.
    cfg.round_hold = None;
    let mut daemon = Daemon::start(&cfg).unwrap();
    assert_eq!(daemon.recovered(), 1, "the drained campaign must resume");
    let done = wait_terminal(daemon.port(), &id, Duration::from_secs(120));
    assert!(done.contains("\"attempts\": 2"), "{done}");
    let resumed_bits = best_bits(&done);
    daemon.drain();

    // Uninterrupted reference run in a fresh state dir.
    let fresh_state = scratch("drainresume_ref");
    let mut fresh = Daemon::start(&DaemonConfig::new(&fresh_state)).unwrap();
    let (_, ref_id) = submit(fresh.port(), spec);
    let ref_done = wait_terminal(fresh.port(), &ref_id, Duration::from_secs(120));
    assert_eq!(
        resumed_bits,
        best_bits(&ref_done),
        "drain + resume must be bit-identical to uninterrupted"
    );
    fresh.drain();

    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&fresh_state);
}

#[test]
fn per_campaign_results_are_identical_at_1_and_4_workers() {
    let specs: Vec<String> = (0..6)
        .map(|i| format!(r#"{{"kind": "gwtw", "dim": 5, "seed": {}}}"#, 40 + i))
        .collect();
    let mut results: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 4] {
        let state = scratch(&format!("det{workers}"));
        let mut cfg = DaemonConfig::new(&state);
        cfg.workers = workers;
        let mut daemon = Daemon::start(&cfg).unwrap();
        let port = daemon.port();
        let ids: Vec<String> = specs
            .iter()
            .map(|s| {
                let (resp, id) = submit(port, s);
                assert!(resp.starts_with("HTTP/1.1 201"), "{resp}");
                id
            })
            .collect();
        results.push(
            ids.iter()
                .map(|id| best_bits(&wait_terminal(port, id, Duration::from_secs(120))))
                .collect(),
        );
        daemon.drain();
        let _ = std::fs::remove_dir_all(&state);
    }
    assert_eq!(
        results[0], results[1],
        "per-campaign results must not depend on worker count"
    );
}

#[test]
fn running_campaign_cancel_lands_at_a_round_barrier() {
    let state = scratch("cancelrun");
    let mut cfg = DaemonConfig::new(&state);
    cfg.workers = 1;
    // Paced so the cancel reliably lands while the campaign is
    // running (bits unchanged — see DaemonConfig::round_hold).
    cfg.round_hold = Some(Duration::from_millis(150));
    let mut daemon = Daemon::start(&cfg).unwrap();
    let port = daemon.port();

    let (_, id) = submit(port, r#"{"kind": "chaos", "rounds": 6}"#);
    // Wait for it to be claimed, then cancel mid-run.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = request(port, "GET", &format!("/campaigns/{id}"), "");
        if status.contains("\"state\": \"running\"") {
            break;
        }
        assert!(Instant::now() < deadline, "never started: {status}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let cancel = request(port, "POST", &format!("/campaigns/{id}/cancel"), "");
    assert!(cancel.starts_with("HTTP/1.1 202"), "{cancel}");
    let done = wait_terminal(port, &id, Duration::from_secs(120));
    assert!(done.contains("\"state\": \"cancelled\""), "{done}");

    // Cancelled is terminal: a restart must NOT resume it.
    daemon.drain();
    drop(daemon);
    let mut daemon = Daemon::start(&cfg).unwrap();
    assert_eq!(daemon.recovered(), 0, "cancelled campaigns must not resume");
    let status = request(daemon.port(), "GET", &format!("/campaigns/{id}"), "");
    assert!(status.contains("\"state\": \"cancelled\""), "{status}");
    daemon.drain();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn journal_endpoint_streams_jsonl_for_the_campaign() {
    let state = scratch("journal");
    let mut daemon = Daemon::start(&DaemonConfig::new(&state)).unwrap();
    let port = daemon.port();

    let (_, id) = submit(port, r#"{"kind": "chaos", "rounds": 2}"#);
    wait_terminal(port, &id, Duration::from_secs(120));

    let resp = request(port, "GET", &format!("/campaigns/{id}/journal"), "");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("application/jsonl"), "{resp}");
    let body = &resp[resp.find("\r\n\r\n").unwrap() + 4..];
    let events = ideaflow_trace::parse_jsonl(body).expect("stream must be valid JSONL");
    assert!(
        events.iter().any(|e| e.step == "flow.sample"),
        "the chaos journal must carry checkpoint samples"
    );
    assert!(events.iter().any(|e| e.step == "gwtw.round"));

    // The ?follow=1 variant ends on its own once the campaign is
    // terminal (it must not hang the connection forever).
    let followed = request(
        port,
        "GET",
        &format!("/campaigns/{id}/journal?follow=1"),
        "",
    );
    assert!(followed.contains("gwtw.round"), "{followed}");

    let missing = request(port, "GET", "/campaigns/c9999/journal", "");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    daemon.drain();
    let _ = std::fs::remove_dir_all(&state);
}

//! `bench_server` — concurrent-client load gate for the campaign
//! daemon.
//!
//! ```text
//! bench_server [--quick] [--out BENCH_server.json]
//! ```
//!
//! Drives ≥ 100 concurrent clients through a submit/poll/cancel mix
//! against an in-process daemon with a deliberately small queue bound,
//! so admission control has to shed load. The gate: every shed request
//! is an explicit 429/503 and **zero acked submissions are dropped** —
//! after the storm, a graceful drain, and a restart from the same
//! state dir, every id that ever got a 201 is still in
//! `GET /campaigns`. Latency percentiles and throughput land in
//! `BENCH_server.json`.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ideaflow_serve::{Daemon, DaemonConfig};

/// `(clients, requests per client)` for `--quick` (the CI gate) and
/// for the full run that `BENCH_server.json` records.
const QUICK_LOAD: (usize, usize) = (100, 6);
const FULL_LOAD: (usize, usize) = (120, 20);

#[derive(Default)]
struct Tally {
    acked: Vec<String>,
    latencies_ms: Vec<f64>,
    accepted: u64,
    rejected: u64,
    cancelled: u64,
    polls: u64,
    errors: Vec<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (clients, requests) = if quick { QUICK_LOAD } else { FULL_LOAD };
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_server.json".to_owned());

    let state_dir = scratch_dir();
    let mut cfg = DaemonConfig::new(&state_dir);
    cfg.workers = 2;
    cfg.queue_bound = 8; // small on purpose: force 429s under the storm
    cfg.limits.max_connections = 512;
    let daemon = Daemon::start(&cfg).expect("daemon start");
    let port = daemon.port();
    eprintln!(
        "bench_server: {clients} clients x {requests} requests against 127.0.0.1:{port} \
         (queue bound {}, {} workers)",
        cfg.queue_bound, cfg.workers
    );

    let tally = Arc::new(Mutex::new(Tally::default()));
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let tally = Arc::clone(&tally);
            std::thread::spawn(move || client_loop(port, c, requests, &tally))
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let wall_secs = wall.elapsed().as_secs_f64();

    let mut t = Arc::try_unwrap(tally)
        .ok()
        .expect("clients joined")
        .into_inner()
        .expect("tally lock");
    assert!(
        t.errors.is_empty(),
        "unexpected responses: {:?}",
        &t.errors[..t.errors.len().min(5)]
    );

    // Acked-never-dropped, part 1: every 201'd id is visible now.
    let live = list_ids(port);
    let dropped_live: Vec<&String> = t.acked.iter().filter(|id| !live.contains(*id)).collect();

    // Graceful drain via the API, like a client would.
    let resp = request(port, "POST", "/shutdown", None);
    assert!(resp.starts_with("HTTP/1.1 202"), "{resp}");
    let mut daemon = daemon;
    daemon.drain();
    drop(daemon);

    // Part 2: restart from the same state dir — the durable queue
    // must still hold every acked id.
    let restarted = Daemon::start(&cfg).expect("daemon restart");
    let after = list_ids(restarted.port());
    let dropped_durable: Vec<&String> = t.acked.iter().filter(|id| !after.contains(*id)).collect();
    drop(restarted);

    let dropped = dropped_live.len() + dropped_durable.len();
    t.latencies_ms.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if t.latencies_ms.is_empty() {
            return 0.0;
        }
        let idx = ((t.latencies_ms.len() as f64 - 1.0) * p).round() as usize;
        t.latencies_ms[idx]
    };
    let total_requests = t.accepted + t.rejected + t.cancelled + t.polls;
    let json = format!(
        "{{\n  \"clients\": {clients},\n  \"requests_per_client\": {requests},\n  \
         \"total_requests\": {total_requests},\n  \"accepted\": {},\n  \"rejected\": {},\n  \
         \"cancel_requests\": {},\n  \"polls\": {},\n  \"dropped\": {dropped},\n  \
         \"throughput_rps\": {:.1},\n  \"p50_ms\": {:.3},\n  \"p95_ms\": {:.3},\n  \
         \"p99_ms\": {:.3},\n  \"wall_secs\": {:.3}\n}}\n",
        t.accepted,
        t.rejected,
        t.cancelled,
        t.polls,
        total_requests as f64 / wall_secs,
        pct(0.50),
        pct(0.95),
        pct(0.99),
        wall_secs,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_server.json");
    print!("{json}");

    let _ = std::fs::remove_dir_all(&state_dir);
    assert!(t.accepted > 0, "the storm must land some submissions");
    assert!(
        t.rejected > 0,
        "a queue bound of 8 under {clients} clients must shed load"
    );
    assert_eq!(
        dropped, 0,
        "acked submissions were dropped: {dropped_live:?} {dropped_durable:?}"
    );
    eprintln!("bench_server: ok (0 dropped, {} shed)", t.rejected);
}

/// One client: a deterministic submit/poll/cancel mix. Submissions
/// are cheap synthetic-landscape campaigns so the workers churn
/// without dominating wall time.
fn client_loop(port: u16, client: usize, requests: usize, tally: &Mutex<Tally>) {
    let mut my_ids: Vec<String> = Vec::new();
    for i in 0..requests {
        let started = Instant::now();
        let (kind, resp) = match i % 10 {
            // 50% submits
            0..=4 => {
                let body = format!(
                    "{{\"kind\": \"gwtw\", \"dim\": 4, \"seed\": {}}}",
                    client * 1000 + i
                );
                ("submit", request(port, "POST", "/campaigns", Some(&body)))
            }
            // 30% polls of our own campaigns (or the list)
            5..=7 => {
                let path = my_ids
                    .last()
                    .map_or("/campaigns".to_owned(), |id| format!("/campaigns/{id}"));
                ("poll", request(port, "GET", &path, None))
            }
            // 10% list polls
            8 => ("poll", request(port, "GET", "/campaigns", None)),
            // 10% cancels of our earliest submission
            _ => match my_ids.first().cloned() {
                Some(id) => (
                    "cancel",
                    request(port, "POST", &format!("/campaigns/{id}/cancel"), None),
                ),
                None => ("poll", request(port, "GET", "/healthz", None)),
            },
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let mut t = tally.lock().expect("tally lock");
        t.latencies_ms.push(ms);
        let status = resp
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .unwrap_or("???");
        match (kind, status) {
            ("submit", "201") => {
                let id = resp
                    .rsplit_once("\"id\": \"")
                    .and_then(|(_, rest)| rest.split('"').next())
                    .expect("201 body carries the id")
                    .to_owned();
                t.acked.push(id.clone());
                t.accepted += 1;
                my_ids.push(id);
            }
            ("submit", "429" | "503") => t.rejected += 1,
            ("cancel", "202" | "409" | "404") => t.cancelled += 1,
            ("poll", "200" | "404") => t.polls += 1,
            _ => t
                .errors
                .push(format!("{kind} -> {}", resp.lines().next().unwrap_or(""))),
        }
    }
}

fn request(port: u16, method: &str, path: &str, body: Option<&str>) -> String {
    let mut stream = match TcpStream::connect(("127.0.0.1", port)) {
        Ok(s) => s,
        Err(e) => return format!("connect error: {e}"),
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    if let Err(e) = stream.write_all(req.as_bytes()) {
        return format!("write error: {e}");
    }
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn list_ids(port: u16) -> HashSet<String> {
    let resp = request(port, "GET", "/campaigns", None);
    resp.match_indices("\"id\": \"")
        .filter_map(|(at, pat)| resp[at + pat.len()..].split('"').next().map(str::to_owned))
        .collect()
}

fn scratch_dir() -> std::path::PathBuf {
    let base = if std::path::Path::new("/dev/shm").is_dir() {
        std::path::PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("ideaflow_bench_server_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return Some(
                it.next()
                    .unwrap_or_else(|| panic!("{flag} requires a value"))
                    .clone(),
            );
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_owned());
        }
    }
    None
}

//! The daemon workloads, `short_campaigns` and `chaos_campaigns`: closed
//! loops of clients that each submit a campaign, follow its journal to
//! the end as a CI job or dashboard does, read its status, check its
//! result, and only then submit the next.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ideaflow_serve::DurableQueue;
use ideaflow_trace::PayloadValue;

use crate::http::{self, Answer};
use crate::replay::{self, ReplayUnit};
use crate::report::{self, Measured, Report, END_TO_END, PER_LAYER};
use crate::server::{copy_state, Server};
use crate::spans::SpanLog;
use crate::specs::{self, Deck, Expected};
use crate::stats::{self, check_bits, check_status, Failure, Tally, Window};
use crate::Run;

/// Server starts before the load, and again after it; `setup_s` is the
/// median of both sets, so one stall of the host at either moment moves
/// it less.
const STARTS: usize = 8;
/// Unmeasured closed-loop time before each run's measured phases, so
/// page cache, allocator and thread stacks are warm.
const WARMUP_SECS: f64 = 1.0;
/// Equal time windows per phase; rates are medians over them, so a
/// transient stall of the host moves them less.
const WINDOWS: usize = 10;
/// Untraced/traced slice pairs of a traced run.
const TRACE_PAIRS: usize = 4;
/// Finished campaigns in `short_campaigns`' initial state dir.
pub const SHORT_HISTORY: usize = 3000;

/// One daemon workload.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Campaign bodies the clients draw from.
    pub table: Vec<String>,
    /// Finished campaigns pre-built into the initial state dir.
    pub history: usize,
}

/// `short_campaigns`.
#[must_use]
pub fn short_campaigns() -> Workload {
    Workload {
        name: "short_campaigns",
        table: specs::short_table(),
        history: SHORT_HISTORY,
    }
}

/// `chaos_campaigns`.
#[must_use]
pub fn chaos_campaigns() -> Workload {
    Workload {
        name: "chaos_campaigns",
        table: specs::chaos_table(),
        history: 0,
    }
}

/// One campaign as a client saw it.
#[derive(Debug)]
struct Unit {
    row: usize,
    campaign: Option<String>,
    /// `POST /campaigns` to its 201; infinite when the submit failed.
    ack_ms: f64,
    /// Submit to the status that shows it terminal; infinite on failure.
    latency_ms: f64,
    /// Bytes of journal the follow streamed.
    follow_bytes: usize,
    outcome: Result<(), Failure>,
    end: Instant,
}

/// What one closed-loop phase produced.
#[derive(Default)]
struct Phase {
    units: Vec<Unit>,
    tally: Tally,
    /// Campaigns completed and server CPU spent per window.
    windows: Vec<Window>,
    log: Option<SpanLog>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.latency_ms).collect()
    }

    fn absorb(&mut self, other: Phase) {
        self.units.extend(other.units);
        self.tally.merge(&other.tally);
        self.windows.extend(other.windows);
        match (self.log.as_mut(), other.log) {
            (Some(all), Some(log)) => all.absorb(log),
            (None, log) => self.log = log,
            (Some(_), None) => {}
        }
    }
}

/// Runs one daemon workload, untraced or traced.
///
/// # Errors
///
/// Says what broke; a failed campaign is a counted failure, not an error.
pub fn run(run: &Run, wl: &Workload) -> Result<Report, String> {
    let expected = Expected::load(wl.name)?;
    let work = &run.work;
    let initial = work.join("initial");
    build_history(&initial, wl, &expected)?;

    let mut setups = Vec::new();
    let (server, state_dir) = starts(run, &initial, "before", &mut setups)?;

    let clients = run.clients();
    eprintln!(
        "regime: {} closed loop, {clients} client(s), 1 connection each; history {} campaigns; \
         {} specs dealt by seed {}; state dir on {}",
        wl.name,
        wl.history,
        wl.table.len(),
        run.seed,
        crate::fs_type(work)
    );

    closed_loop(run, &server, wl, &expected, WARMUP_SECS, false)?;
    if !run.trace {
        let phase = closed_loop(run, &server, wl, &expected, run.seconds, false)?;
        let mut m = Measured::default();
        let acks: Vec<f64> = phase.units.iter().map(|u| u.ack_ms).collect();
        report::set_phase(&mut m, &phase.latencies(), &acks, &phase.windows, "server")?;
        m.set("peak_rss_mb", server.peak_rss_mb()?, "server VmHWM");
        server.shutdown()?;
        starts(run, &initial, "after", &mut setups)?;
        m.set(
            "setup_s",
            stats::p50(&setups),
            format!(
                "median of {} starts over {} campaigns",
                setups.len(),
                wl.history
            ),
        );
        return Ok(Report {
            tally: phase.tally,
            catalogue: END_TO_END,
            measured: m,
        });
    }

    // Traced: untraced and traced slices alternate on one server, so a
    // drift of the host's speed falls on both sides alike; the difference
    // between the sides is the tracing overhead.
    let slice = run.seconds / (2 * TRACE_PAIRS) as f64;
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    for _ in 0..TRACE_PAIRS {
        plain.absorb(closed_loop(run, &server, wl, &expected, slice, false)?);
        traced.absorb(closed_loop(run, &server, wl, &expected, slice, true)?);
    }
    let metrics_text = server.scrape()?;
    server.shutdown()?;

    let mut tally = plain.tally.clone();
    tally.merge(&traced.tally);
    let mut log = traced.log.take().expect("traced phase keeps spans");
    let mut m = Measured::default();
    report::set_overhead(
        &mut m,
        (&plain.latencies(), &plain.windows),
        (&traced.latencies(), &traced.windows),
    );
    client_layers(&mut m, &log, &traced.units);
    scraped_layers(&mut m, &metrics_text);

    let units: Vec<ReplayUnit> = traced
        .units
        .iter()
        .filter(|u| u.outcome.is_ok())
        .map(|u| ReplayUnit {
            campaign: u.campaign.clone().expect("ok units have ids"),
            body: wl.table[u.row].clone(),
            bits: expected.get(&wl.table[u.row]).expect("loaded").to_owned(),
            latency_ms: u.latency_ms,
        })
        .collect();
    replay::replay(
        &initial,
        &state_dir,
        &work.join("replay"),
        &units,
        &mut log,
        &mut m,
    )?;

    let spans_path = run.spans_path();
    log.write_file(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    eprintln!(
        "spans: {} written to {}",
        log.spans().len(),
        spans_path.display()
    );
    Ok(Report {
        tally,
        catalogue: PER_LAYER,
        measured: m,
    })
}

/// Starts the server [`STARTS`] times, each over a fresh copy of the
/// initial state dir, recording the seconds each took to listen. Only the
/// last start is kept running; the others are killed once listening,
/// which is all `setup_s` times.
fn starts(
    run: &Run,
    initial: &Path,
    tag: &str,
    setups: &mut Vec<f64>,
) -> Result<(Server, PathBuf), String> {
    let mut serving = None;
    for k in 0..STARTS {
        drop(serving.take());
        let dir = run.work.join(format!("start-{tag}{k}"));
        copy_state(initial, &dir).map_err(|e| format!("copying the state dir: {e}"))?;
        let (server, secs) = Server::start(&run.serve_bin, &dir)?;
        setups.push(secs);
        serving = Some((server, dir));
    }
    Ok(serving.expect("STARTS is positive"))
}

/// Pre-builds `dir` through `DurableQueue` with `wl.history` finished
/// campaigns drawn round-robin from the table, with their real results.
fn build_history(dir: &Path, wl: &Workload, expected: &Expected) -> Result<(), String> {
    let io = |e: std::io::Error| format!("building the history state dir: {e}");
    std::fs::create_dir_all(dir).map_err(io)?;
    let (queue, _) = DurableQueue::open(dir, usize::MAX, None).map_err(io)?;
    for i in 0..wl.history {
        let body = &wl.table[i % wl.table.len()];
        let bits = expected.get(body).expect("loaded");
        let best = f64::from_bits(u64::from_str_radix(bits, 16).expect("hex bits"));
        queue
            .submit(specs::parse_spec(body))
            .map_err(|full| format!("history submit refused at depth {}", full.depth))?;
        let claim = queue.claim().expect("just submitted");
        queue.finish(&claim.id, true, Some(bits), Some(best), None);
    }
    Ok(())
}

/// Runs `clients` closed-loop clients for `seconds` against `server`.
fn closed_loop(
    run: &Run,
    server: &Server,
    wl: &Workload,
    expected: &Expected,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    // (time, server CPU) at every window edge.
    let mut marks = vec![(start, server.cpu_ms()?)];
    let outs: Vec<(Vec<Unit>, Tally, Option<SpanLog>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..run.clients())
            .map(|c| {
                let mut deck = Deck::new(wl.table.len(), run.seed ^ (c as u64) << 32);
                let mut log = traced.then(|| SpanLog::new(run.epoch, c as u64 + 1));
                s.spawn(move || {
                    let mut units = Vec::new();
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        let row = deck.deal();
                        let unit =
                            campaign(server.port, row, &wl.table[row], expected, log.as_mut());
                        tally.record(&unit.outcome);
                        units.push(unit);
                        if let Some(log) = log.as_mut() {
                            // A handler-free request between campaigns:
                            // accept, connection thread, parse and write.
                            let (answer, _) = log.time("client.healthz", None, None, || {
                                http::request(server.port, "GET", "/healthz", None)
                            });
                            tally.record(&answer.and_then(|a| check_status(a.status)));
                        }
                    }
                    (units, tally, log)
                })
            })
            .collect();
        for k in 1..=WINDOWS {
            let edge = start + Duration::from_secs_f64(seconds * k as f64 / WINDOWS as f64);
            std::thread::sleep(edge.saturating_duration_since(Instant::now()));
            marks.push((Instant::now(), server.cpu_ms().unwrap_or(f64::NAN)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    if marks.iter().any(|(_, cpu)| cpu.is_nan()) {
        return Err("cannot read the server's CPU time".to_owned());
    }
    let mut phase = Phase::default();
    for (units, tally, log) in outs {
        phase.absorb(Phase {
            units,
            tally,
            windows: Vec::new(),
            log,
        });
    }
    if phase.units.is_empty() {
        return Err("no campaign completed in the phase".to_owned());
    }
    phase.windows = marks
        .windows(2)
        .map(|edges| {
            let ((from, cpu_from), (to, cpu_to)) = (edges[0], edges[1]);
            Window {
                units: phase
                    .units
                    .iter()
                    .filter(|u| u.outcome.is_ok() && from <= u.end && u.end < to)
                    .count(),
                secs: (to - from).as_secs_f64(),
                cpu_ms: cpu_to - cpu_from,
            }
        })
        .collect();
    Ok(phase)
}

/// One campaign: submit, follow the journal to its end, read the status,
/// check the bits.
fn campaign(
    port: u16,
    row: usize,
    body: &str,
    expected: &Expected,
    mut log: Option<&mut SpanLog>,
) -> Unit {
    let unit_span = log.as_mut().map(|l| l.reserve());
    let t0 = Instant::now();
    let mut unit = Unit {
        row,
        campaign: None,
        ack_ms: f64::INFINITY,
        latency_ms: f64::INFINITY,
        follow_bytes: 0,
        outcome: Ok(()),
        end: t0,
    };
    unit.outcome = steps(port, body, expected, &mut unit, &mut log, unit_span, t0);
    unit.end = Instant::now();
    if unit.outcome.is_ok() {
        unit.latency_ms = (unit.end - t0).as_secs_f64() * 1e3;
    }
    if let Some(l) = log {
        l.record(
            unit_span,
            "client.campaign",
            None,
            unit.campaign.as_deref(),
            t0,
            unit.end,
        );
    }
    unit
}

fn steps(
    port: u16,
    body: &str,
    expected: &Expected,
    unit: &mut Unit,
    log: &mut Option<&mut SpanLog>,
    parent: Option<u64>,
    t0: Instant,
) -> Result<(), Failure> {
    let submit = http::request(port, "POST", "/campaigns", Some(body));
    let acked = Instant::now();
    let submitted = submit.and_then(|a| {
        check_status(a.status)?;
        let id = field(&a, "id")
            .ok_or_else(|| Failure::Io(format!("201 without an id: {}", a.text())))?;
        unit.ack_ms = (acked - t0).as_secs_f64() * 1e3;
        unit.campaign = Some(id.clone());
        Ok(id)
    });
    if let Some(l) = log.as_deref_mut() {
        l.record(
            None,
            "client.submit",
            parent,
            unit.campaign.as_deref(),
            t0,
            acked,
        );
    }
    let id = submitted?;
    let mut timed = |name: &str, path: &str| {
        let start = Instant::now();
        let answer = http::request(port, "GET", path, None);
        if let Some(l) = log.as_deref_mut() {
            l.record(None, name, parent, Some(&id), start, Instant::now());
        }
        answer.and_then(|a| check_status(a.status).map(|()| a))
    };
    let follow = timed(
        "client.follow",
        &format!("/campaigns/{id}/journal?follow=1"),
    )?;
    unit.follow_bytes = follow.body.len();
    let status = timed("client.status", &format!("/campaigns/{id}"))?;
    let v = json(&status);
    if v.get("state").and_then(PayloadValue::as_str) != Some("done")
        || !matches!(v.get("ok"), Some(PayloadValue::Bool(true)))
    {
        return Err(Failure::NotOk(status.text()));
    }
    let got = v
        .get("best_bits")
        .and_then(PayloadValue::as_str)
        .unwrap_or("");
    check_bits(expected.get(body).expect("loaded"), got)
}

fn json(answer: &Answer) -> PayloadValue {
    serde_json::from_str(&answer.text()).unwrap_or(PayloadValue::Null)
}

fn field(answer: &Answer, key: &str) -> Option<String> {
    json(answer)
        .get(key)
        .and_then(PayloadValue::as_str)
        .map(str::to_owned)
}

/// Layers seen from the client's spans.
fn client_layers(m: &mut Measured, log: &SpanLog, units: &[Unit]) {
    let probes = log.durations_ms("client.healthz");
    m.set(
        "metrics.http.healthz_rtt_ms_p50",
        stats::p50(&probes),
        format!("n={}", probes.len()),
    );
    let follows = log.durations_ms("client.follow");
    m.set(
        "serve.http_api.follow_ms_p50",
        stats::p50(&follows),
        format!("n={}", follows.len()),
    );
    let followed: Vec<&Unit> = units.iter().filter(|u| u.outcome.is_ok()).collect();
    let bytes: usize = followed.iter().map(|u| u.follow_bytes).sum();
    m.set(
        "serve.http_api.follow_bytes_per_unit",
        bytes as f64 / followed.len().max(1) as f64,
        format!("{bytes} B over {} follows", followed.len()),
    );
}

/// Layers read from the server's own `/metrics`.
fn scraped_layers(m: &mut Measured, text: &str) {
    let sample = |name: &str| -> Option<f64> {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
    };
    let handler = "ideaflow_serve_request_ms";
    let count = sample(&format!("{handler}_count")).unwrap_or(0.0);
    let mean = sample(&format!("{handler}_sum")).unwrap_or(0.0) / count.max(1.0);
    for (q, name) in [
        ("0.5", "serve.http_api.handler_ms_p50"),
        ("0.95", "serve.http_api.handler_ms_p95"),
    ] {
        if let Some(v) = sample(&format!("{handler}{{quantile=\"{q}\"}}")) {
            m.set(
                name,
                v,
                format!("server summary, log2-bin upper bound; mean {mean:.4} ms, n={count}"),
            );
        }
    }
    let hits = sample("ideaflow_flow_cache_hits_total").unwrap_or(0.0);
    let misses = sample("ideaflow_flow_cache_misses_total").unwrap_or(0.0);
    if hits + misses > 0.0 {
        m.set(
            "flow.cache.hit_rate",
            hits / (hits + misses),
            format!("{hits} hits of {} lookups", hits + misses),
        );
    }
    let round = "ideaflow_span_gwtw_round_secs";
    if let Some(v) = sample(&format!("{round}{{quantile=\"0.5\"}}")) {
        let n = sample(&format!("{round}_count")).unwrap_or(0.0);
        m.set(
            "opt.gwtw.round_ms_p50",
            v * 1e3,
            format!("server summary, log2-bin upper bound, n={n}"),
        );
    }
}

//! The traced run's replay. After the HTTP phase, the benchmark calls the
//! layers' public functions itself, once per sampled campaign: the queue
//! operations on a copy of the initial state dir, the campaign body with
//! and without a journal, and the decode and follow render of the
//! attempt journal the server wrote. It runs sequentially, after the
//! server has exited, so it never perturbs a timed request.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use ideaflow_serve::{queue, DurableQueue};
use ideaflow_trace::{
    EventStream, Journal, JournalFormat, PayloadValue, RunEvent, StreamDecoder, TelemetryRegistry,
};

use crate::report::Measured;
use crate::server::copy_state;
use crate::spans::SpanLog;
use crate::specs::{parse_spec, run_body};
use crate::stats::{self, wait_ms};

/// Campaigns replayed per traced run, spread evenly over the phase.
const REPLAY_MAX: usize = 40;
/// `DurableQueue::open` replays; `serve.queue.open_s` is their median.
const OPENS: usize = 3;
/// The supervisor caps each real backoff sleep at this many ms.
const BACKOFF_SLEEP_CAP_MS: f64 = 20.0;

/// A campaign the traced phase completed.
#[derive(Debug, Clone)]
pub struct ReplayUnit {
    /// The server's campaign id.
    pub campaign: String,
    /// Its submission body.
    pub body: String,
    /// Its committed expected `best_bits`.
    pub bits: String,
    /// Its end-to-end latency, ms.
    pub latency_ms: f64,
}

/// Layer times of one replayed campaign, ms.
#[derive(Debug, Default)]
struct Layers {
    submit: f64,
    claim: f64,
    finish: f64,
    get: f64,
    body: f64,
    body_off: f64,
    render: f64,
    decode: f64,
}

/// Replays `units` (a sample of them) and sets the replay-derived layer
/// metrics.
///
/// # Errors
///
/// Says which replay step failed.
pub fn replay(
    initial: &Path,
    served: &Path,
    work: &Path,
    units: &[ReplayUnit],
    log: &mut SpanLog,
    m: &mut Measured,
) -> Result<(), String> {
    let units = spread(units, REPLAY_MAX);
    if units.is_empty() {
        return Err("no completed campaign to replay".to_owned());
    }
    let n = units.len();

    // Recovery over the initial state dir; the last copy stays open and
    // the queue operations replay against its history.
    let mut opens = Vec::new();
    let mut opened = None;
    for k in 0..OPENS {
        drop(opened.take());
        let dir = work.join(format!("open{k}"));
        copy_state(initial, &dir).map_err(io("state copy"))?;
        let (q, ms) = log.time("replay.queue.open", None, None, || {
            DurableQueue::open(&dir, usize::MAX, None)
        });
        opens.push(ms / 1e3);
        opened = Some((q.map_err(io("queue open"))?.0, dir));
    }
    let (queue, queue_dir) = opened.expect("opened at least once");
    let history = queue.snapshot().len();
    m.set(
        "serve.queue.open_s",
        stats::p50(&opens),
        format!("median of {OPENS} opens over {history} campaigns"),
    );
    m.set(
        "serve.queue.history",
        history as f64,
        "campaigns the replayed open recovered",
    );

    let queue_file = queue_dir.join("queue.ifj");
    let size = |p: &Path| std::fs::metadata(p).map_or(0, |md| md.len());
    let queue_before = size(&queue_file);
    let journals = work.join("journals");
    std::fs::create_dir_all(&journals).map_err(io("journal dir"))?;
    let registry = TelemetryRegistry::new();

    let mut layers = Vec::with_capacity(n);
    let (mut records, mut journal_bytes) = (0usize, 0u64);
    let (mut retries, mut backoff_ms, mut faults) = (0usize, 0.0f64, 0usize);
    let mut tool_runs = Vec::new();
    let mut by_kind: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (i, u) in units.iter().enumerate() {
        let c = Some(u.campaign.as_str());
        let mut l = Layers::default();
        let spec = parse_spec(&u.body);
        let best = f64::from_bits(u64::from_str_radix(&u.bits, 16).expect("hex bits"));

        let (id, ms) = log.time("replay.queue.submit", None, c, || {
            queue.submit(spec.clone())
        });
        l.submit = ms;
        let id = id.map_err(|full| format!("replay submit refused at depth {}", full.depth))?;
        let (claim, ms) = log.time("replay.queue.claim", None, c, || queue.claim());
        l.claim = ms;
        claim.ok_or("replay claim found nothing pending")?;
        let ((), ms) = log.time("replay.queue.finish", None, c, || {
            queue.finish(&id, true, Some(&u.bits), Some(best), None);
        });
        l.finish = ms;
        let (_, ms) = log.time("replay.queue.get", None, c, || queue.get(&id));
        l.get = ms;

        // The body as the daemon runs it, with a binary file journal and
        // a telemetry mirror attached, and again with the journal off.
        // The order alternates so drift does not favour one side.
        let kind = spec.kind_name();
        let path = journals.join(format!("{}.ifj", u.campaign));
        let journal_on = || -> Result<(f64, Option<u32>), String> {
            let journal = Journal::to_file_with_format(&u.campaign, &path, JournalFormat::Binary)
                .map_err(io("journal create"))?
                .with_telemetry(registry.clone());
            let out = run_body(&spec, &journal);
            journal.finish();
            Ok(out)
        };
        let on_name = format!("replay.bench.experiments.{kind}");
        let off_name = format!("{on_name}.journal_off");
        let journal_off = || run_body(&spec, &Journal::disabled());
        let ((got, runs), on_ms, off_ms) = if i % 2 == 0 {
            let (out, on) = log.time(&on_name, None, c, journal_on);
            let (_, off) = log.time(&off_name, None, c, journal_off);
            (out?, on, off)
        } else {
            let (_, off) = log.time(&off_name, None, c, journal_off);
            let (out, on) = log.time(&on_name, None, c, journal_on);
            (out?, on, off)
        };
        if format!("{:016x}", got.to_bits()) != u.bits {
            return Err(format!(
                "replayed {} gave {:016x}, expected {}",
                u.body,
                got.to_bits(),
                u.bits
            ));
        }
        l.body = on_ms;
        l.body_off = off_ms;
        tool_runs.extend(runs);
        match by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, v)) => v.push(on_ms),
            None => by_kind.push((kind, vec![on_ms])),
        }

        // The attempt journals the server wrote for this campaign.
        let attempts = queue::attempt_journals(served, &u.campaign);
        if attempts.is_empty() {
            return Err(format!("no attempt journal for {}", u.campaign));
        }
        journal_bytes += attempts.iter().map(|p| size(p)).sum::<u64>();
        let (events, ms) = log.time("replay.trace.codec.decode", None, c, || decode(&attempts));
        l.decode = ms;
        let events = events.map_err(io("decode"))?;
        records += events.len();
        for e in &events {
            match e.step.as_str() {
                "run.retry" => {
                    retries += 1;
                    if let Some(PayloadValue::Int(ms)) = e.payload.get("backoff_ms") {
                        backoff_ms += (*ms as f64).min(BACKOFF_SLEEP_CAP_MS);
                    }
                }
                "fault.injected" => faults += 1,
                _ => {}
            }
        }
        let (rendered, ms) = log.time("replay.serve.http_api.follow_render", None, c, || {
            render(&attempts)
        });
        l.render = ms;
        if rendered.map_err(io("render"))? != events.len() {
            return Err(format!("render and decode disagree on {}", u.campaign));
        }
        layers.push(l);
    }
    let queue_growth = size(&queue_file).saturating_sub(queue_before);
    drop(queue);

    let p50_us =
        |f: fn(&Layers) -> f64| stats::p50(&layers.iter().map(f).collect::<Vec<_>>()) * 1e3;
    let base = format!("n={n} replayed campaigns");
    m.set(
        "serve.queue.submit_us_p50",
        p50_us(|l| l.submit),
        base.clone(),
    );
    m.set(
        "serve.queue.claim_us_p50",
        p50_us(|l| l.claim),
        base.clone(),
    );
    m.set(
        "serve.queue.finish_us_p50",
        p50_us(|l| l.finish),
        base.clone(),
    );
    m.set("serve.queue.get_us_p50", p50_us(|l| l.get), base.clone());
    m.set(
        "serve.queue.bytes_per_unit",
        queue_growth as f64 / n as f64,
        format!("{queue_growth} B of queue.ifj over {n} campaigns"),
    );
    for (kind, ms) in &by_kind {
        let name = match *kind {
            "gwtw" => "bench.experiments.gwtw_ms_p50",
            "multistart" => "bench.experiments.multistart_ms_p50",
            "bandit" => "bench.experiments.bandit_ms_p50",
            _ => "bench.experiments.chaos_ms_p50",
        };
        m.set(
            name,
            stats::p50(ms),
            format!("n={} with a binary file journal", ms.len()),
        );
    }

    let on: f64 = layers.iter().map(|l| l.body).sum();
    let off: f64 = layers.iter().map(|l| l.body_off).sum();
    m.set(
        "trace.journal.share",
        (on - off) / on,
        format!("({on:.1} - {off:.1}) ms journal on minus off, over {on:.1} ms on, n={n}"),
    );
    m.set(
        "trace.journal.emit_ns_per_record",
        (on - off) * 1e6 / records.max(1) as f64,
        format!("({on:.1} - {off:.1}) ms over {records} records"),
    );
    m.set(
        "trace.journal.records_per_unit",
        records as f64 / n as f64,
        format!("{records} records over {n} attempt journals"),
    );
    m.set(
        "trace.journal.bytes_per_unit",
        journal_bytes as f64 / n as f64,
        format!("{journal_bytes} B over {n} attempt journals"),
    );
    let decode: f64 = layers.iter().map(|l| l.decode).sum();
    m.set(
        "trace.codec.decode_us_per_record",
        decode * 1e3 / records.max(1) as f64,
        format!("{decode:.2} ms over {records} records"),
    );
    let render: f64 = layers.iter().map(|l| l.render).sum();
    m.set(
        "serve.http_api.follow_render_us_per_record",
        render * 1e3 / records.max(1) as f64,
        format!("{render:.2} ms over {records} records"),
    );
    m.set(
        "flow.supervise.retries_per_unit",
        retries as f64 / n as f64,
        format!("{retries} run.retry records over {n} campaigns"),
    );
    m.set(
        "flow.supervise.backoff_sleep_ms_per_unit",
        backoff_ms / n as f64,
        format!("{backoff_ms} ms of capped sleep over {n} campaigns"),
    );
    m.set(
        "faults.injected_per_unit",
        faults as f64 / n as f64,
        format!("{faults} fault.injected records over {n} campaigns"),
    );
    if !tool_runs.is_empty() {
        let total: u64 = tool_runs.iter().map(|&r| u64::from(r)).sum();
        m.set(
            "flow.spnr.tool_runs_per_unit",
            total as f64 / tool_runs.len() as f64,
            format!("{total} runs over {} chaos campaigns", tool_runs.len()),
        );
    }

    let waits: Vec<f64> = units
        .iter()
        .zip(&layers)
        .map(|(u, l)| {
            wait_ms(
                u.latency_ms,
                &[l.submit, l.claim, l.finish, l.get, l.body, l.render],
            )
        })
        .collect();
    let latency: f64 = units.iter().map(|u| u.latency_ms).sum();
    let waited: f64 = waits.iter().sum();
    m.set("serve.daemon.wait_ms_p50", stats::p50(&waits), base);
    m.set(
        "serve.daemon.wait_share",
        waited / latency,
        format!("{waited:.1} ms unattributed over {latency:.1} ms latency, n={n}"),
    );
    Ok(())
}

fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("replay {what}: {e}")
}

/// Every `len / max`-th unit, so the sample spans the whole phase.
fn spread(units: &[ReplayUnit], max: usize) -> Vec<ReplayUnit> {
    if units.len() <= max {
        return units.to_vec();
    }
    (0..max)
        .map(|i| units[i * units.len() / max].clone())
        .collect()
}

/// Decodes journals the way every reader does.
fn decode(paths: &[PathBuf]) -> std::io::Result<Vec<RunEvent>> {
    let mut events = Vec::new();
    for path in paths {
        for event in EventStream::open(path)? {
            events.push(event?);
        }
    }
    Ok(events)
}

/// The follow path's work: read the journal in 8 KiB chunks, decode
/// with a `StreamDecoder`, render each record as one JSON line.
/// Returns the records rendered.
fn render(paths: &[PathBuf]) -> std::io::Result<usize> {
    let mut out = std::io::sink();
    let mut records = 0;
    // `black_box` keeps the discarded lines from being optimised away.
    let mut buf = [0u8; 8192];
    for path in paths {
        let mut file = File::open(path)?;
        let mut decoder = StreamDecoder::new();
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                break;
            }
            decoder.push(&buf[..n]);
            while let Ok(Some(event)) = decoder.next_event() {
                let line = serde_json::to_string(&event)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                out.write_all(std::hint::black_box(line.as_bytes()))?;
                out.write_all(b"\n")?;
                records += 1;
            }
        }
    }
    Ok(records)
}

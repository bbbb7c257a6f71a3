//! `physical_sweep`: in process, with no server. One CPU-class design, a
//! seeded sweep of option vectors through `SpnrFlow::run_physical`,
//! fanned out over the default exec pool in waves. The only workload
//! that reaches `netlist`, `place`, `route` and `timing`, and the only
//! CPU-bound one for `exec`.

use std::time::{Duration, Instant};

use ideaflow_exec::{PoolBuilder, ThreadPool};
use ideaflow_flow::options::SpnrOptions;
use ideaflow_flow::spnr::SpnrFlow;
use ideaflow_trace::{parse_jsonl, Journal, PayloadValue};

use crate::report::{self, Measured, Report, END_TO_END, PER_LAYER};
use crate::server::{proc_cpu_ms, proc_peak_rss_mb};
use crate::spans::SpanLog;
use crate::specs::{self, physical_digest, Deck, Expected};
use crate::stats::{self, check_bits, Tally, Window};
use crate::Run;

/// Option vectors per `par_map` wave: a sweep step's worth of runs.
const WAVE: usize = 8;
/// `SpnrFlow::new` repeats before and again after the measured phase;
/// `setup_s` is the median of both sets, so one stall of the host at
/// either moment moves it less.
const SETUPS: usize = 11;
/// Runs timed on each pool for `exec.speedup`.
const SPEEDUP_RUNS: usize = 16;
/// Unmeasured sweep time before the measured phases.
const WARMUP_SECS: f64 = 1.0;
/// Time windows per phase; rates are medians over them.
const WINDOWS: usize = 10;
/// Untraced/traced slice pairs of a traced run: alternating slices put a
/// drift of the host's speed on both sides alike.
const TRACE_PAIRS: usize = 4;

/// The flow stages `run_physical` journals with a `secs` field, and the
/// per-layer metric each feeds.
const STAGES: &[(&str, &str)] = &[
    ("flow.floorplan", "place.floorplan_ms_p50"),
    ("flow.place", "place.placer_ms_p50"),
    ("flow.cts", "place.cts_ms_p50"),
    ("flow.route", "route.global_ms_p50"),
    ("flow.detail_route", "route.drv_ms_p50"),
    ("flow.signoff", "timing.signoff_ms_p50"),
];

/// One `run_physical` call.
struct Unit {
    /// From the wave's dispatch to the call starting on a pool thread.
    ack_ms: f64,
    /// The call itself; infinite when its digest mismatched.
    latency_ms: f64,
}

#[derive(Default)]
struct Phase {
    units: Vec<Unit>,
    tally: Tally,
    /// Runs completed and process CPU spent per window of waves.
    windows: Vec<Window>,
}

impl Phase {
    fn ok_units(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.latency_ms.is_finite())
            .count()
    }

    fn latencies(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.latency_ms).collect()
    }

    fn absorb(&mut self, other: Phase) {
        self.units.extend(other.units);
        self.tally.merge(&other.tally);
        self.windows.extend(other.windows);
    }
}

/// Runs `physical_sweep`, untraced or traced.
///
/// # Errors
///
/// Says what broke; a digest mismatch is a counted failure, not an error.
pub fn run(run: &Run) -> Result<Report, String> {
    let expected = Expected::load("physical_sweep")?;
    let table = specs::physical_table();
    let mut setups = Vec::new();
    let flow = build_flows(&mut setups);
    let options: Vec<SpnrOptions> = table
        .iter()
        .map(|v| v.options(flow.fmax_ref_ghz()))
        .collect();
    let keys: Vec<String> = table.iter().map(specs::Vector::key).collect();
    let pool = ideaflow_exec::global();
    eprintln!(
        "regime: physical_sweep in process, {} instances (seed {}), {} vectors dealt by seed {} \
         in waves of {WAVE}, default pool of {} thread(s)",
        specs::DESIGN_INSTANCES,
        specs::DESIGN_SEED,
        table.len(),
        run.seed,
        pool.threads()
    );
    let measure = |flow: &SpnrFlow, seconds: f64| {
        sweep(flow, pool, &options, &keys, &expected, run.seed, seconds)
    };

    measure(&flow, WARMUP_SECS)?;
    if !run.trace {
        let phase = measure(&flow, run.seconds)?;
        build_flows(&mut setups);
        let acks: Vec<f64> = phase.units.iter().map(|u| u.ack_ms).collect();
        let mut m = Measured::default();
        report::set_phase(&mut m, &phase.latencies(), &acks, &phase.windows, "process")?;
        m.set(
            "setup_s",
            stats::p50(&setups),
            format!("median of {} SpnrFlow::new", setups.len()),
        );
        m.set(
            "peak_rss_mb",
            proc_peak_rss_mb("/proc/self/status")?,
            "process VmHWM",
        );
        return Ok(Report {
            tally: phase.tally,
            catalogue: END_TO_END,
            measured: m,
        });
    }

    // Traced: untraced slices alternate with slices that run a flow with
    // an in-memory journal attached, whose `secs` fields give the stage
    // times; the difference between the sides is the tracing overhead.
    let slice = run.seconds / (2 * TRACE_PAIRS) as f64;
    let journal = Journal::in_memory("physical_sweep");
    let traced_flow = flow.clone().with_journal(journal.clone());
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    for _ in 0..TRACE_PAIRS {
        plain.absorb(measure(&flow, slice)?);
        traced.absorb(measure(&traced_flow, slice)?);
    }
    let mut tally = plain.tally.clone();
    tally.merge(&traced.tally);

    let mut m = Measured::default();
    report::set_overhead(
        &mut m,
        (&plain.latencies(), &plain.windows),
        (&traced.latencies(), &traced.windows),
    );

    let events = parse_jsonl(&journal.drain_lines().join("\n"))?;
    let mut log = SpanLog::new(run.epoch, 0);
    for (step, metric) in STAGES {
        let secs: Vec<f64> = events
            .iter()
            .filter(|e| e.step == *step)
            .filter_map(|e| match e.payload.get("secs") {
                Some(PayloadValue::Float(s)) => Some(*s * 1e3),
                Some(PayloadValue::Int(s)) => Some(*s as f64 * 1e3),
                _ => None,
            })
            .collect();
        if secs.is_empty() {
            return Err(format!("the traced sweep journaled no {step}"));
        }
        m.set(
            metric,
            stats::p50(&secs),
            format!("n={} journaled `secs`", secs.len()),
        );
    }

    let mut generate = Vec::new();
    for _ in 0..SETUPS {
        let (_, ms) = log.time("netlist.generate", None, None, || {
            specs::design().generate(specs::DESIGN_SEED)
        });
        generate.push(ms);
    }
    m.set(
        "netlist.generate_ms",
        stats::p50(&generate),
        format!(
            "median of {SETUPS} DesignSpec::generate, {} instances",
            specs::DESIGN_INSTANCES
        ),
    );

    // The same runs on a 1-thread pool and on the default pool.
    let mut deck = Deck::new(options.len(), run.seed);
    let rows: Vec<usize> = (0..SPEEDUP_RUNS).map(|_| deck.deal()).collect();
    let one = PoolBuilder::new().threads(1).build();
    let time_on = |pool: &ThreadPool, log: &mut SpanLog, name: &str| {
        let (_, ms) = log.time(name, None, None, || {
            pool.par_map(rows.clone(), |_, row| flow.run_physical(&options[row], 0))
        });
        ms
    };
    let serial = time_on(&one, &mut log, "exec.sweep.one_thread");
    let parallel = time_on(pool, &mut log, "exec.sweep.default_pool");
    m.set(
        "exec.speedup",
        serial / parallel,
        format!(
            "{serial:.1} ms on 1 thread / {parallel:.1} ms on {} threads, {SPEEDUP_RUNS} runs",
            pool.threads()
        ),
    );
    m.set(
        "exec.threads",
        pool.threads() as f64,
        format!("available_parallelism {}", crate::cores()),
    );

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

/// Builds the flow [`SETUPS`] times, recording each build's seconds, and
/// returns the last.
fn build_flows(setups: &mut Vec<f64>) -> SpnrFlow {
    let mut flow = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let built = SpnrFlow::new(specs::design(), specs::DESIGN_SEED);
        setups.push(start.elapsed().as_secs_f64());
        flow = Some(built);
    }
    flow.expect("SETUPS is positive")
}

/// Deals waves of option vectors to `pool` until `seconds` pass, checking
/// every run's digest.
fn sweep(
    flow: &SpnrFlow,
    pool: &ThreadPool,
    options: &[SpnrOptions],
    keys: &[String],
    expected: &Expected,
    seed: u64,
    seconds: f64,
) -> Result<Phase, String> {
    let mut deck = Deck::new(options.len(), seed);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    // (time, process CPU, runs completed) after every wave.
    let mut marks = vec![(start, proc_cpu_ms("/proc/self/stat")?, 0)];
    while Instant::now() < deadline {
        let rows: Vec<usize> = (0..WAVE).map(|_| deck.deal()).collect();
        let dispatch = Instant::now();
        let runs = pool.par_map(rows, |_, row| {
            let begin = Instant::now();
            let out = flow.run_physical(&options[row], 0);
            (row, begin, Instant::now(), physical_digest(&out))
        });
        for (row, begin, end, digest) in runs {
            let outcome = check_bits(expected.get(&keys[row]).expect("loaded"), &digest);
            let latency_ms = if outcome.is_ok() {
                (end - begin).as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            };
            phase.tally.record(&outcome);
            phase.units.push(Unit {
                ack_ms: (begin - dispatch).as_secs_f64() * 1e3,
                latency_ms,
            });
        }
        marks.push((
            Instant::now(),
            proc_cpu_ms("/proc/self/stat")?,
            phase.ok_units(),
        ));
    }
    // A window is the waves that ended in one tenth of the phase.
    let width = seconds / WINDOWS as f64;
    let mut prev = marks[0];
    for k in 1..=WINDOWS {
        let edge = start + Duration::from_secs_f64(width * k as f64);
        let last = if k == WINDOWS {
            marks.last()
        } else {
            marks.iter().rev().find(|m| m.0 <= edge)
        };
        if let Some(&last) = last.filter(|m| m.0 > prev.0) {
            phase.windows.push(Window {
                units: last.2 - prev.2,
                secs: (last.0 - prev.0).as_secs_f64(),
                cpu_ms: last.1 - prev.1,
            });
            prev = last;
        }
    }
    Ok(phase)
}

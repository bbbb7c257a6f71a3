//! `bench_journal`: measures the journal codec itself and writes the
//! evidence to `BENCH_journal.json`.
//!
//! ```text
//! bench_journal [--quick] [--out BENCH_journal.json]
//! ```
//!
//! Measured on a synthetic `flow.sample` corpus written through the
//! real `Journal` hot path (seq tickets, per-thread buffers,
//! contiguous-prefix flush):
//!
//! - **write**: records/s and bytes/record;
//! - **read**: `tail -n 10` latency through the embedded block index
//!   against the full-scan tail `tail_events` falls back to without
//!   one, plus full-scan decode throughput;
//! - **memory**: RSS before/after the full streaming scan of the corpus
//!   (the streaming reader must stay flat) and the process high-water
//!   mark.
//!
//! The default corpus is 1M records; `--quick` drops to 100k for the CI
//! gate. Exit is nonzero, in either mode, when the two tails disagree or
//! the indexed tail is less than 10× faster than the full scan.

use std::time::Instant;

use ideaflow_trace::{codec, Journal, RunEvent};

const QUICK_RECORDS: u64 = 100_000;
const FULL_RECORDS: u64 = 1_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out_path = "BENCH_journal.json".to_owned();
    let records = if quick { QUICK_RECORDS } else { FULL_RECORDS };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            out_path = it.next().expect("--out requires a path").clone();
        } else if let Some(v) = a.strip_prefix("--out=") {
            out_path = v.to_owned();
        }
    }

    // The measurement is codec cost (encoding + framing), not disk
    // bandwidth: prefer tmpfs so a multi-MB corpus doesn't turn the
    // writer measurement into a kernel-writeback benchmark.
    let scratch = std::path::Path::new("/dev/shm");
    let base = if scratch.is_dir() {
        scratch.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("ideaflow_bench_journal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("corpus.ifj");

    // Best-of-N write runs: the corpus content is deterministic, so
    // re-writing the same file and keeping the fastest run filters out
    // interference from whatever else shares the machine (CI runners
    // are rarely quiet), which otherwise dominates second-scale
    // measurements.
    let write_runs = if quick { 2 } else { 3 };
    eprintln!("bench_journal: writing {records} flow.sample records (best of {write_runs}) ...");
    let write = best_write(&path, records, write_runs);

    // Streaming read. RSS is sampled around the full scan of the whole
    // corpus: a flat delta is the O(block) evidence, because a slurping
    // reader would hold `records` decoded events at once.
    let rss_before_kb = rss_kb("VmRSS");
    let scan = time_scan(&path);
    let rss_after_kb = rss_kb("VmRSS");

    // Tail latency: identical query, two strategies, best of 3. The
    // full scan decodes every record; the indexed tail resumes from
    // the last block-index frame.
    let (tail_full, full_tail_s) = best_tail(|| codec::full_scan_tail(&path, None, 10));
    let (tail_indexed, indexed_tail_s) = best_tail(|| codec::tail_events(&path, None, 10));
    assert_eq!(tail_full, tail_indexed, "both tails must agree");

    let tail_speedup = full_tail_s / indexed_tail_s;
    let vm_hwm_kb = rss_kb("VmHWM");

    let report = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"records\": {records},\n  \"write\": {write},\n  \
         \"read\": {{\n    \
         \"full_scan_tail_s\": {full_tail_s:.6},\n    \
         \"indexed_tail_s\": {indexed_tail_s:.6},\n    \
         \"indexed_tail_speedup\": {tail_speedup:.1},\n    \
         \"scan_records_per_s\": {scan:.0}\n  }},\n  \"memory\": {{\n    \
         \"rss_before_full_scan_kb\": {rss_before_kb},\n    \
         \"rss_after_full_scan_kb\": {rss_after_kb},\n    \
         \"rss_delta_kb\": {rss_delta},\n    \
         \"vm_hwm_kb\": {vm_hwm_kb}\n  }}\n}}\n",
        mode = if quick { "quick" } else { "full" },
        write = write.json(),
        rss_delta = rss_after_kb.saturating_sub(rss_before_kb),
    );
    std::fs::write(&out_path, &report).expect("write report");
    print!("{report}");
    eprintln!("bench_journal: wrote {out_path}");

    let _ = std::fs::remove_dir_all(&dir);

    if tail_speedup < 10.0 {
        eprintln!("bench_journal: FAIL indexed tail only {tail_speedup:.1}x faster (< 10x)");
        std::process::exit(1);
    }
}

struct WriteRun {
    secs: f64,
    bytes: u64,
    records_per_s: f64,
    bytes_per_record: f64,
}

impl WriteRun {
    fn json(&self) -> String {
        format!(
            "{{\"secs\": {:.3}, \"bytes\": {}, \"records_per_s\": {:.0}, \
             \"bytes_per_record\": {:.1}}}",
            self.secs, self.bytes, self.records_per_s, self.bytes_per_record
        )
    }
}

/// Fastest of `runs` corpus writes (the file content is identical each
/// time, so only the timing differs).
fn best_write(path: &std::path::Path, records: u64, runs: u32) -> WriteRun {
    let mut best: Option<WriteRun> = None;
    for _ in 0..runs {
        let run = write_corpus(path, records);
        if best.as_ref().is_none_or(|b| run.secs < b.secs) {
            best = Some(run);
        }
    }
    best.expect("at least one write run")
}

/// Fastest of 3 runs of one `tail -n 10` strategy.
fn best_tail(tail: impl Fn() -> std::io::Result<Vec<RunEvent>>) -> (Vec<RunEvent>, f64) {
    let mut best: Option<(Vec<RunEvent>, f64)> = None;
    for _ in 0..3 {
        let t = Instant::now();
        let events = tail().expect("tail");
        let secs = t.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((events, secs));
        }
    }
    best.expect("at least one tail run")
}

/// Writes `records` schema-conforming `flow.sample` events through the
/// public `Journal` API (the real emit hot path) and times it.
fn write_corpus(path: &std::path::Path, records: u64) -> WriteRun {
    let t = Instant::now();
    let j = Journal::to_file("bench-journal", path).expect("open journal");
    // Deterministic xorshift, so every write run encodes the same payloads.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..records {
        let fp = next();
        j.emit(
            "flow.sample",
            &[
                ("sample", ((i % 1024) as i64).into()),
                ("fingerprint", (fp as i64).into()),
                ("target_ghz", (1.0 + (fp % 997) as f64 / 997.0).into()),
                ("area_um2", (50_000.0 + (fp % 10_007) as f64).into()),
                ("wns_ps", (-50.0 + (fp % 101) as f64).into()),
                ("leakage_nw", ((fp % 100_003) as f64 / 7.0).into()),
                ("runtime_hours", ((fp % 367) as f64 / 83.0).into()),
            ],
        );
    }
    j.finish();
    let secs = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(path).expect("corpus metadata").len();
    WriteRun {
        secs,
        bytes,
        records_per_s: records as f64 / secs,
        bytes_per_record: bytes as f64 / records as f64,
    }
}

/// Full streaming decode of the corpus; returns records/s.
fn time_scan(path: &std::path::Path) -> f64 {
    let t = Instant::now();
    let mut n = 0u64;
    for event in ideaflow_trace::EventStream::open(path).expect("open corpus") {
        event.expect("decode corpus");
        n += 1;
    }
    n as f64 / t.elapsed().as_secs_f64()
}

/// Reads one numeric line (kB) from `/proc/self/status`; 0 when the
/// platform does not expose it (macOS) so the report stays writable.
fn rss_kb(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

//! `bench_journal`: measures the journal substrate itself — JSONL vs
//! the length-prefixed binary codec — and writes the evidence to
//! `BENCH_journal.json`.
//!
//! ```text
//! bench_journal [--quick] [--out BENCH_journal.json]
//! ```
//!
//! Measured on a synthetic `flow.sample` corpus written through the
//! real `Journal` hot path (seq tickets, per-thread buffers,
//! contiguous-prefix flush):
//!
//! - **write**: records/s and bytes/record for each format;
//! - **read**: `tail -n 10` latency — JSONL pays a full streaming scan,
//!   binary seeks via its embedded block index — plus full-scan decode
//!   throughput for both formats;
//! - **memory**: RSS before/after the full streaming scan of the
//!   largest corpus (the streaming readers must stay flat) and the
//!   process high-water mark.
//!
//! The default corpus is ≥1M records; `--quick` drops to 100k for the
//! CI gate. Exit is nonzero when binary write throughput falls below
//! 2× JSONL (both modes), or — full mode only — when any of the
//! headline ratios (≥3× write, ≥2× smaller records, ≥10× faster tail)
//! regresses.

use std::time::Instant;

use ideaflow_trace::{codec, Journal, JournalFormat};

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

    // The comparison is codec cost (serialization + framing), not disk
    // bandwidth: prefer tmpfs so multi-hundred-MB corpora don't turn
    // the writer measurement into a kernel-writeback benchmark.
    let scratch = std::path::Path::new("/dev/shm");
    let base = if scratch.is_dir() {
        scratch.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("ideaflow_bench_journal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let jsonl_path = dir.join("corpus.jsonl");
    let binary_path = dir.join("corpus.ifj");

    // Best-of-N write runs: the corpus content is deterministic, so
    // re-writing the same file and keeping the fastest run filters out
    // interference from whatever else shares the machine (CI runners
    // are rarely quiet), which otherwise dominates second-scale
    // measurements.
    let write_runs = if quick { 2 } else { 3 };
    eprintln!(
        "bench_journal: writing {records} flow.sample records per format \
         (best of {write_runs}) ..."
    );
    let jsonl = best_write(&jsonl_path, JournalFormat::Jsonl, records, write_runs);
    drain_writeback();
    let binary = best_write(&binary_path, JournalFormat::Binary, records, write_runs);
    drain_writeback();

    // Streaming reads. RSS is sampled around the *binary* full scan of
    // the whole corpus: a flat delta is the O(block) evidence, because
    // a slurping reader would hold `records` decoded events at once.
    let rss_before_kb = rss_kb("VmRSS");
    let scan_binary = time_scan(&binary_path);
    let rss_after_kb = rss_kb("VmRSS");
    let scan_jsonl = time_scan(&jsonl_path);

    // Tail latency: identical query, two strategies, best of 3. The
    // JSONL side must scan every byte; the binary side resumes from
    // the last block-index frame.
    let (tail_jsonl, jsonl_tail_s) = best_tail(&jsonl_path);
    let (tail_binary, binary_tail_s) = best_tail(&binary_path);
    assert_eq!(
        tail_jsonl, tail_binary,
        "both formats must agree on the tail"
    );

    let write_ratio = binary.records_per_s / jsonl.records_per_s;
    let bytes_ratio = jsonl.bytes_per_record / binary.bytes_per_record;
    let tail_speedup = jsonl_tail_s / binary_tail_s;
    let vm_hwm_kb = rss_kb("VmHWM");

    let report = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"records\": {records},\n  \"write\": {{\n    \
         \"jsonl\": {jsonl},\n    \"binary\": {binary},\n    \
         \"binary_over_jsonl_throughput\": {write_ratio:.3},\n    \
         \"jsonl_over_binary_bytes_per_record\": {bytes_ratio:.3}\n  }},\n  \"read\": {{\n    \
         \"jsonl_full_scan_tail_s\": {jsonl_tail_s:.6},\n    \
         \"binary_indexed_tail_s\": {binary_tail_s:.6},\n    \
         \"indexed_tail_speedup\": {tail_speedup:.1},\n    \
         \"jsonl_scan_records_per_s\": {sj:.0},\n    \
         \"binary_scan_records_per_s\": {sb:.0}\n  }},\n  \"memory\": {{\n    \
         \"rss_before_full_scan_kb\": {rss_before_kb},\n    \
         \"rss_after_full_scan_kb\": {rss_after_kb},\n    \
         \"rss_delta_kb\": {rss_delta},\n    \
         \"vm_hwm_kb\": {vm_hwm_kb}\n  }}\n}}\n",
        mode = if quick { "quick" } else { "full" },
        jsonl = jsonl.json(),
        binary = binary.json(),
        sj = scan_jsonl,
        sb = scan_binary,
        rss_delta = rss_after_kb.saturating_sub(rss_before_kb),
    );
    std::fs::write(&out_path, &report).expect("write report");
    print!("{report}");
    eprintln!("bench_journal: wrote {out_path}");

    let _ = std::fs::remove_dir_all(&dir);

    let mut failed = false;
    if write_ratio < 2.0 {
        eprintln!("bench_journal: FAIL binary write throughput {write_ratio:.2}x < 2x JSONL");
        failed = true;
    }
    if !quick {
        if write_ratio < 3.0 {
            eprintln!("bench_journal: FAIL binary write throughput {write_ratio:.2}x < 3x JSONL");
            failed = true;
        }
        if bytes_ratio < 2.0 {
            eprintln!("bench_journal: FAIL binary records only {bytes_ratio:.2}x smaller (< 2x)");
            failed = true;
        }
        if tail_speedup < 10.0 {
            eprintln!("bench_journal: FAIL indexed tail only {tail_speedup:.1}x faster (< 10x)");
            failed = true;
        }
    }
    if failed {
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
fn best_write(path: &std::path::Path, format: JournalFormat, records: u64, runs: u32) -> WriteRun {
    let mut best: Option<WriteRun> = None;
    for _ in 0..runs {
        let run = write_corpus(path, format, records);
        if best.as_ref().is_none_or(|b| run.secs < b.secs) {
            best = Some(run);
        }
    }
    best.expect("at least one write run")
}

/// Fastest of 3 `tail -n 10` queries against `path`.
fn best_tail(path: &std::path::Path) -> (Vec<ideaflow_trace::RunEvent>, f64) {
    let mut best: Option<(Vec<ideaflow_trace::RunEvent>, f64)> = None;
    for _ in 0..3 {
        let t = Instant::now();
        let events = codec::tail_events(path, None, 10).expect("tail");
        let secs = t.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((events, secs));
        }
    }
    best.expect("at least one tail run")
}

/// Writes `records` schema-conforming `flow.sample` events through the
/// public `Journal` API (the real emit hot path) and times it.
fn write_corpus(path: &std::path::Path, format: JournalFormat, records: u64) -> WriteRun {
    let t = Instant::now();
    let j = Journal::to_file_with_format("bench-journal", path, format).expect("open journal");
    // Deterministic xorshift so both formats encode the same payloads.
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

/// Flushes dirty pages from the previous phase so each measurement
/// runs against a quiet disk instead of the prior corpus's writeback
/// (a 245MB JSONL corpus draining in the background throttles the
/// writer measured after it). Best-effort: a missing `sync` binary
/// just means noisier numbers.
fn drain_writeback() {
    let _ = std::process::Command::new("sync").status();
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

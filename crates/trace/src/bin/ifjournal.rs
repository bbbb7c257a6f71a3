//! `ifjournal`: offline analysis of ideaflow run journals (the
//! length-prefixed binary codec every journal is written in). A file
//! that does not start with the journal magic, such as a JSONL
//! rendering, is refused with the bad-magic error. Every subcommand
//! streams, so multi-GB corpora read in O(block) memory.
//!
//! ```text
//! ifjournal summary [--by-thread|--failures] <journal>
//!                                          per-step counts + field stats
//!                                          (--by-thread: per-worker span
//!                                          counts and self time instead;
//!                                          --failures: the failure ledger —
//!                                          injected faults, retries,
//!                                          timeouts, kills, censored pulls)
//! ifjournal tail [--step S] [-n N] <journal>
//!                                          last N events (default 10);
//!                                          seeks via the embedded block
//!                                          index instead of scanning from
//!                                          byte 0
//! ifjournal diff <a> <b>                   per-step field-mean deltas
//! ifjournal flame <journal>                folded stacks from span events
//! ifjournal convert <in> <out>           render a journal as JSONL, one
//!                                          event object per line; parsing
//!                                          it back yields the decoded
//!                                          events exactly
//! ifjournal lint <journal>                 validate against the declared
//!                                          trace schema registry (events,
//!                                          fields, kinds, span and counter
//!                                          names) before trusting the
//!                                          journal for warm-starts/resume;
//!                                          warns (without failing) when the
//!                                          journal's schema-hash header is
//!                                          missing or from another build
//! ifjournal watch [--interval-ms N] [--once] <journal>
//!                                          live-tail a growing journal: a
//!                                          rolling status line with event
//!                                          rate, campaign round/best, pull
//!                                          and censor rates, and active
//!                                          alerts; a half-written frame at
//!                                          EOF is held until the next
//!                                          poll, never reported as
//!                                          malformed; exits when the
//!                                          journal records its finish mark
//! ifjournal grafana <dir>                  write the registry-derived
//!                                          Grafana dashboard + provisioning
//!                                          stubs under <dir>
//! ```
//!
//! Exit codes: 0 ok, 1 I/O or parse failure (for `lint`: any schema
//! finding), 2 usage error.

use ideaflow_trace::schema::SchemaDiagnostic;
use ideaflow_trace::{analyze, codec, grafana, schema};
use ideaflow_trace::{DecodeError, EventStream, RunEvent, StreamDecoder};

const USAGE: &str = "usage: ifjournal <summary|tail|diff|flame|convert|lint|watch|grafana> ...
  ifjournal summary [--by-thread|--failures] <journal>
  ifjournal tail [--step <step>] [-n <count>] <journal>
  ifjournal diff <a> <b>
  ifjournal flame <journal>
  ifjournal convert <in> <out>
  ifjournal lint <journal>
  ifjournal watch [--interval-ms <ms>] [--once] <journal>
  ifjournal grafana <dir>";

fn main() {
    std::process::exit(run(std::env::args().skip(1).collect()));
}

fn run(args: Vec<String>) -> i32 {
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    match cmd.as_str() {
        "summary" => summary(&args[1..]),
        "flame" => flame(&args[1..]),
        "tail" => tail(&args[1..]),
        "diff" => diff(&args[1..]),
        "convert" => convert(&args[1..]),
        "lint" => lint(&args[1..]),
        "watch" => watch(&args[1..]),
        "grafana" => grafana_cmd(&args[1..]),
        _ => {
            eprintln!("ifjournal: unknown subcommand {cmd:?}\n{USAGE}");
            2
        }
    }
}

/// Streams every event of `path` through `ingest`.
fn fold(path: &str, mut ingest: impl FnMut(&RunEvent)) -> Result<(), i32> {
    let stream = match EventStream::open(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ifjournal: {path}: {e}");
            return Err(1);
        }
    };
    for event in stream {
        match event {
            Ok(e) => ingest(&e),
            Err(e) => {
                eprintln!("ifjournal: {path}: {e}");
                return Err(1);
            }
        }
    }
    Ok(())
}

fn summary(args: &[String]) -> i32 {
    let by_thread = args.iter().any(|a| a == "--by-thread");
    let failures = args.iter().any(|a| a == "--failures");
    let rest: Vec<String> = args
        .iter()
        .filter(|a| *a != "--by-thread" && *a != "--failures")
        .cloned()
        .collect();
    if by_thread && failures {
        eprintln!("ifjournal: --by-thread and --failures are exclusive\n{USAGE}");
        return 2;
    }
    let [path] = &rest[..] else {
        eprintln!("{USAGE}");
        return 2;
    };
    if by_thread {
        let mut spans = analyze::SpanCollector::new();
        match fold(path, |e| spans.ingest(e)) {
            Ok(()) => {
                print!("{}", spans.by_thread_text());
                0
            }
            Err(code) => code,
        }
    } else if failures {
        let mut ledger = analyze::FailureLedger::new();
        match fold(path, |e| ledger.ingest(e)) {
            Ok(()) => {
                print!("{}", ledger.render());
                0
            }
            Err(code) => code,
        }
    } else {
        let mut builder = analyze::SummaryBuilder::new();
        match fold(path, |e| builder.ingest(e)) {
            Ok(()) => {
                print!("{}", builder.render());
                0
            }
            Err(code) => code,
        }
    }
}

fn flame(args: &[String]) -> i32 {
    let [path] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let mut spans = analyze::SpanCollector::new();
    match fold(path, |e| spans.ingest(e)) {
        Ok(()) => {
            print!("{}", spans.flame_folded());
            0
        }
        Err(code) => code,
    }
}

fn tail(args: &[String]) -> i32 {
    let mut step: Option<String> = None;
    let mut n: usize = 10;
    let mut path: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--step" => match it.next() {
                Some(s) => step = Some(s.clone()),
                None => {
                    eprintln!("ifjournal: --step needs a value\n{USAGE}");
                    return 2;
                }
            },
            "-n" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => n = v,
                None => {
                    eprintln!("ifjournal: -n needs an integer\n{USAGE}");
                    return 2;
                }
            },
            _ if path.is_none() && !a.starts_with('-') => path = Some(a),
            _ => {
                eprintln!("ifjournal: unexpected argument {a:?}\n{USAGE}");
                return 2;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return 2;
    };
    match codec::tail_events(path, step.as_deref(), n) {
        Ok(events) => {
            print!("{}", analyze::tail_render(&events));
            0
        }
        Err(e) => {
            eprintln!("ifjournal: {path}: {e}");
            1
        }
    }
}

fn convert(args: &[String]) -> i32 {
    let [input, output] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    match codec::convert(input, output) {
        Ok(count) => {
            println!("converted {count} events (binary -> jsonl) to {output}");
            0
        }
        Err(e) => {
            eprintln!("ifjournal: {input}: {e}");
            1
        }
    }
}

fn lint(args: &[String]) -> i32 {
    let [path] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    use std::io::Read;
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ifjournal: {path}: {e}");
            return 1;
        }
    };
    let mut dec = StreamDecoder::new();
    let mut diags: Vec<SchemaDiagnostic> = Vec::new();
    let mut version_checked = false;
    let mut eof = false;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut check = |event: &RunEvent, line: usize, diags: &mut Vec<SchemaDiagnostic>| {
        if !version_checked {
            version_checked = true;
            // Cross-version corpora are suspicious but not invalid:
            // warn on a missing or stale schema-hash header, fail only
            // on real findings.
            if let Some(warning) = schema::version_warning(Some(event)) {
                eprintln!("ifjournal: {path}: warning: {warning}");
            }
        }
        diags.extend(
            schema::lint_event(event)
                .into_iter()
                .map(|message| SchemaDiagnostic {
                    line,
                    event: event.step.clone(),
                    message,
                }),
        );
    };
    loop {
        match dec.next_event() {
            Ok(Some(event)) => check(&event, dec.records() as usize, &mut diags),
            Ok(None) if eof => {
                if let Err(e) = dec.finish() {
                    diags.push(decode_diag(&dec, e));
                }
                break;
            }
            Ok(None) => match file.read(&mut chunk) {
                Ok(0) => eof = true,
                Ok(n) => dec.push(&chunk[..n]),
                Err(e) => {
                    eprintln!("ifjournal: {path}: {e}");
                    return 1;
                }
            },
            Err(e) => {
                // A corrupt frame ends the decodable prefix.
                diags.push(decode_diag(&dec, e));
                break;
            }
        }
    }
    if diags.is_empty() {
        let events = dec.records();
        println!("{path}: ok ({events} events conform to the schema registry)");
        return 0;
    }
    for d in &diags {
        println!("{path}:{d}");
    }
    eprintln!(
        "ifjournal: {path}: {} schema finding(s); this journal should not \
         be used for warm-starts or checkpoint resume until writers and \
         the registry (crates/trace/src/schema.rs) agree",
        diags.len()
    );
    1
}

/// A decode failure as a lint diagnostic, anchored at the record it
/// stopped.
fn decode_diag(dec: &StreamDecoder, e: DecodeError) -> SchemaDiagnostic {
    SchemaDiagnostic {
        line: dec.records() as usize + 1,
        event: String::new(),
        message: e.to_string(),
    }
}

fn watch(args: &[String]) -> i32 {
    let mut interval_ms: u64 = 1000;
    let mut once = false;
    let mut path: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => interval_ms = v,
                None => {
                    eprintln!("ifjournal: --interval-ms needs an integer\n{USAGE}");
                    return 2;
                }
            },
            "--once" => once = true,
            _ if path.is_none() && !a.starts_with('-') => path = Some(a),
            _ => {
                eprintln!("ifjournal: unexpected argument {a:?}\n{USAGE}");
                return 2;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return 2;
    };
    // Incremental tail over raw bytes: the writer flushes only
    // seq-contiguous prefixes, so every read extends the event stream
    // in order. The push decoder holds a trailing partial frame
    // (mid-write) pending until the rest lands on a later poll —
    // `next_event` just returns `Ok(None)` for it.
    let mut state = analyze::WatchState::new();
    let mut dec = StreamDecoder::new();
    let mut offset: u64 = 0;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last = std::time::Instant::now();
    let mut first = true;
    loop {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("ifjournal: {path}: {e}");
                return 1;
            }
        };
        if let Err(e) = file.seek(SeekFrom::Start(offset)) {
            eprintln!("ifjournal: {path}: {e}");
            return 1;
        }
        loop {
            match file.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    offset += n as u64;
                    dec.push(&chunk[..n]);
                }
                Err(e) => {
                    eprintln!("ifjournal: {path}: {e}");
                    return 1;
                }
            }
        }
        loop {
            match dec.next_event() {
                Ok(Some(e)) => state.ingest(&e),
                Ok(None) => break, // partial tail: retry next poll
                Err(e) => {
                    eprintln!("ifjournal: {path}: {e}");
                    return 1;
                }
            }
        }
        let elapsed = if first {
            0.0
        } else {
            last.elapsed().as_secs_f64()
        };
        println!("{}", state.status_line(elapsed));
        if once || state.finished() {
            return 0;
        }
        first = false;
        last = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn grafana_cmd(args: &[String]) -> i32 {
    let [dir] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    match grafana::write_all(std::path::Path::new(dir)) {
        Ok(written) => {
            for p in written {
                println!("wrote {}", p.display());
            }
            0
        }
        Err(e) => {
            eprintln!("ifjournal: {dir}: {e}");
            1
        }
    }
}

fn diff(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let mut sa = analyze::SummaryBuilder::new();
    let mut sb = analyze::SummaryBuilder::new();
    if let Err(code) = fold(a, |e| sa.ingest(e)) {
        return code;
    }
    if let Err(code) = fold(b, |e| sb.ingest(e)) {
        return code;
    }
    print!(
        "{}",
        analyze::diff_summaries(&sa.summaries(), &sb.summaries())
    );
    0
}

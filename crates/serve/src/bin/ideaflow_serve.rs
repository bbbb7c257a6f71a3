//! The campaign daemon binary.
//!
//! ```text
//! ideaflow_serve --state-dir DIR [--port N] [--workers N] [--queue-bound N]
//! ```
//!
//! Prints `listening on 127.0.0.1:<port>` once ready (harnesses parse
//! it), then blocks until `POST /shutdown` arrives, at which point it
//! drains gracefully between a `draining` and a `drained` line:
//! submissions get 503, running campaigns are checkpointed at their
//! next round barrier for resume on the next start, journals are
//! flushed. A status line never fails the daemon: once nobody reads
//! stdout, it is dropped and the drain still exits 0. A `kill -9`
//! instead exercises the crash-recovery path: restart with the same
//! `--state-dir` and every acked submission is still there, in-flight
//! campaigns resume.
//!
//! `IDEAFLOW_SERVE_ROUND_HOLD_MS` (env) paces chaos campaigns by
//! sleeping that long after each GWTW round — kill/cancel harnesses
//! use it to reliably catch a campaign mid-flight; results are
//! bit-identical with or without it.

use std::io::Write;
use std::time::Duration;

use ideaflow_serve::{Daemon, DaemonConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let state_dir =
        flag_value(&args, "--state-dir").unwrap_or_else(|| panic!("--state-dir is required"));
    let mut cfg = DaemonConfig::new(state_dir);
    if let Some(v) = flag_value(&args, "--port") {
        cfg.port = v
            .parse()
            .unwrap_or_else(|_| panic!("--port: invalid port {v:?}"));
    }
    if let Some(v) = flag_value(&args, "--workers") {
        cfg.workers = v
            .parse()
            .unwrap_or_else(|_| panic!("--workers: invalid count {v:?}"));
    }
    if let Some(v) = flag_value(&args, "--queue-bound") {
        cfg.queue_bound = v
            .parse()
            .unwrap_or_else(|_| panic!("--queue-bound: invalid bound {v:?}"));
    }
    let mut daemon = Daemon::start(&cfg).unwrap_or_else(|e| panic!("cannot start daemon: {e}"));
    if daemon.recovered() > 0 {
        status(&format!(
            "recovered: {} in-flight campaign(s) resume",
            daemon.recovered()
        ));
    }
    status(&format!("listening on 127.0.0.1:{}", daemon.port()));
    while !daemon.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    status("draining");
    daemon.drain();
    status("drained");
}

/// Prints one status line. Unlike `println!`, a closed stdout (the
/// harness that parsed the port has gone) is ignored, not a panic.
fn status(line: &str) {
    let _ = writeln!(std::io::stdout(), "{line}");
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

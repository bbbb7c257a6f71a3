//! `ideaflow-bench` — the reproduction harness.
//!
//! One module per paper artifact (figure or table); each exposes a `run`
//! function returning plain data, so that:
//!
//! - the `fig*`/`tab*` binaries in `src/bin/` print the same rows/series
//!   the paper reports;
//! - the workspace integration tests assert the *shape* targets of
//!   `DESIGN.md` §4 against the same data;
//! - `tests/harness_cli.rs` drives the binaries' shared flags end to
//!   end.
//!
//! Absolute numbers are not expected to match the paper (our substrate is
//! a simulator, not the authors' 14nm testbed); shapes are.

pub mod experiments;

use std::time::Duration;

use ideaflow_metrics::alerts::AlertEngine;
use ideaflow_metrics::http::TelemetryServer;
use ideaflow_trace::{Journal, TelemetryRegistry};

/// Parses the common `--journal <path>` (or `--journal=<path>`) flag every
/// `fig*`/`tab*` binary accepts and opens a file-backed run journal there
/// (the binary codec; `ifjournal convert` renders it as JSONL); without
/// the flag, returns the no-op journal. Call [`Journal::finish`] before
/// the binary exits so the summary event and counters land in the file.
///
/// # Panics
///
/// Panics (with the offending path) if the journal file cannot be created,
/// or if `--journal` is the last argument with no path following it.
#[must_use]
pub fn journal_from_args(run_id: &str) -> Journal {
    journal_from_arg_list(run_id, std::env::args().skip(1))
}

/// [`journal_from_args`] over an explicit argument list (testable core).
///
/// # Panics
///
/// Same contract as [`journal_from_args`].
pub fn journal_from_arg_list(run_id: &str, args: impl IntoIterator<Item = String>) -> Journal {
    let mut path: Option<String> = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--journal" {
            path = Some(args.next().expect("--journal requires a <path> argument"));
        } else if let Some(p) = a.strip_prefix("--journal=") {
            path = Some(p.to_owned());
        }
    }
    match path {
        Some(path) => Journal::to_file(run_id, &path)
            .unwrap_or_else(|e| panic!("cannot open journal file {path}: {e}")),
        None => Journal::disabled(),
    }
}

/// A bench binary's observability session: the run journal plus an
/// optional live `/metrics` endpoint.
///
/// Built by [`session_from_args`]; the binary runs its workload through
/// [`BenchSession::journal`] and calls [`BenchSession::finish`] last.
pub struct BenchSession {
    /// The run journal (file-backed, telemetry-only, or disabled,
    /// depending on the flags given).
    pub journal: Journal,
    /// The alerting engine, when `--alerts <rules.toml>` was given. The
    /// workload ticks it at its deterministic campaign points; the
    /// telemetry server (when also up) serves its snapshot at
    /// `GET /alerts`.
    pub alerts: Option<AlertEngine>,
    server: Option<TelemetryServer>,
    hold: Duration,
}

impl BenchSession {
    /// Finishes the journal, then — when a telemetry endpoint is up —
    /// keeps it scrapeable for the `--telemetry-hold-ms` window before
    /// shutting it down. Call this right before the binary exits.
    pub fn finish(mut self) {
        if let Some(engine) = self.alerts.as_ref() {
            let transitions = engine.transitions_text();
            if !transitions.is_empty() {
                eprint!("alerts:\n{transitions}");
            }
        }
        self.journal.finish();
        if let Some(server) = self.server.as_mut() {
            if !self.hold.is_zero() {
                std::thread::sleep(self.hold);
            }
            server.shutdown();
        }
    }
}

/// Parses the observability flags every `fig*`/`tab*` binary accepts:
///
/// - `--journal <path>`: file-backed run journal (as
///   [`journal_from_args`]);
/// - `--telemetry-port <port>`: serve live Prometheus metrics on
///   `127.0.0.1:<port>` (`0` picks a free port; the chosen endpoint is
///   printed to stderr). Works with or without `--journal` — without
///   it, a telemetry-only journal drives the registry;
/// - `--telemetry-hold-ms <ms>`: keep the endpoint up that long after
///   the workload finishes, so short benches stay scrapeable;
/// - `--alerts <rules.toml>`: load declarative alert rules and attach
///   an [`AlertEngine`] over the session's registry. Works with or
///   without `--telemetry-port` — with it, the engine's snapshot is
///   served at `GET /alerts` and its `ideaflow_alert_active` gauges
///   appear on `/metrics`; fired/resolved transitions are journaled
///   and printed to stderr at [`BenchSession::finish`] either way.
///
/// # Panics
///
/// Panics on a missing/unparsable flag value, an unbindable port, or an
/// unreadable/malformed rules file.
#[must_use]
pub fn session_from_args(run_id: &str) -> BenchSession {
    session_from_arg_list(run_id, std::env::args().skip(1))
}

/// [`session_from_args`] over an explicit argument list (testable core).
///
/// # Panics
///
/// Same contract as [`session_from_args`].
pub fn session_from_arg_list(run_id: &str, args: impl IntoIterator<Item = String>) -> BenchSession {
    let args: Vec<String> = args.into_iter().collect();
    let mut port: Option<u16> = None;
    let mut hold_ms: u64 = 0;
    let mut rules_path: Option<String> = None;
    // The next positional argument is consumed only when the flag has
    // no inline `=value` (an eager `it.next()` in argument position
    // would swallow the argument after `--flag=value` too).
    fn flag_value<'a>(
        inline: Option<&str>,
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> String {
        match inline {
            Some(v) => v.to_owned(),
            None => it
                .next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
                .clone(),
        }
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--telemetry-port" || a.starts_with("--telemetry-port=") {
            let v = flag_value(
                a.strip_prefix("--telemetry-port="),
                &mut it,
                "--telemetry-port",
            );
            port = Some(
                v.parse()
                    .unwrap_or_else(|_| panic!("--telemetry-port: invalid port {v:?}")),
            );
        } else if a == "--telemetry-hold-ms" || a.starts_with("--telemetry-hold-ms=") {
            let v = flag_value(
                a.strip_prefix("--telemetry-hold-ms="),
                &mut it,
                "--telemetry-hold-ms",
            );
            hold_ms = v
                .parse()
                .unwrap_or_else(|_| panic!("--telemetry-hold-ms: invalid value {v:?}"));
        } else if a == "--alerts" || a.starts_with("--alerts=") {
            rules_path = Some(flag_value(a.strip_prefix("--alerts="), &mut it, "--alerts"));
        }
    }
    let journal = journal_from_arg_list(run_id, args);
    if port.is_none() && rules_path.is_none() {
        return BenchSession {
            journal,
            alerts: None,
            server: None,
            hold: Duration::from_millis(hold_ms),
        };
    }
    // A live registry backs both the endpoint and the alert engine;
    // either flag alone brings it up.
    let registry = TelemetryRegistry::new();
    // Surface the work-stealing pool's gauges (workers, busy
    // workers, queue depth, tasks run) on the same endpoint.
    ideaflow_exec::global().attach_telemetry(&registry);
    let journal = if journal.is_enabled() {
        journal
    } else {
        Journal::telemetry_only(run_id)
    }
    .with_telemetry(registry.clone());
    let alerts = rules_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read alert rules {path}: {e}"));
        let rules = ideaflow_metrics::alerts::parse_rules(&text)
            .unwrap_or_else(|e| panic!("invalid alert rules {path}: {e}"));
        AlertEngine::new(rules, registry.clone()).with_journal(journal.clone())
    });
    let server = port.map(|p| {
        let server = TelemetryServer::serve_with_alerts(p, registry.clone(), alerts.clone())
            .unwrap_or_else(|e| panic!("cannot bind telemetry port {p}: {e}"));
        eprintln!(
            "telemetry: http://127.0.0.1:{}/metrics (healthz: /healthz, alerts: /alerts)",
            server.port()
        );
        server
    });
    BenchSession {
        journal,
        alerts,
        server,
        hold: Duration::from_millis(hold_ms),
    }
}

/// Renders a simple aligned text table (header + rows of equal length).
///
/// # Panics
///
/// Panics if any row length differs from the header length.
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), header.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| (*s).to_owned()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Formats a float at the given precision (tiny convenience for the many
/// row builders).
#[must_use]
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["k", "error"],
            &[
                vec!["1".into(), "35.3%".into()],
                vec!["3".into(), "4.2%".into()],
            ],
        );
        assert!(t.contains("error"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "ragged table row")]
    fn table_rejects_ragged_rows() {
        let _ = render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn journal_flag_parses_both_spellings() {
        let none = journal_from_arg_list("t", Vec::<String>::new());
        assert!(!none.is_enabled());

        let dir = std::env::temp_dir().join("ideaflow_bench_flag_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("a.ifj");
        let j1 = journal_from_arg_list(
            "t",
            vec!["--journal".to_owned(), p1.to_string_lossy().into_owned()],
        );
        assert!(j1.is_enabled());
        j1.emit("x", &[("v", 1.0.into())]);
        j1.finish();
        assert!(Journal::load(&p1).unwrap().len() >= 2);

        let p2 = dir.join("b.ifj");
        let j2 = journal_from_arg_list("t", vec![format!("--journal={}", p2.display())]);
        assert!(j2.is_enabled());
        j2.finish();
        assert!(!Journal::load(&p2).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "--journal requires a <path> argument")]
    fn journal_flag_requires_a_path() {
        let _ = journal_from_arg_list("t", vec!["--journal".to_owned()]);
    }

    #[test]
    fn session_without_flags_is_inert() {
        let s = session_from_arg_list("t", Vec::<String>::new());
        assert!(!s.journal.is_enabled());
        assert!(s.server.is_none());
        s.finish();
    }

    #[test]
    fn session_with_telemetry_port_serves_live_metrics() {
        use std::io::{Read, Write};
        let s = session_from_arg_list("t", vec!["--telemetry-port".to_owned(), "0".to_owned()]);
        // No --journal: a telemetry-only journal still drives the
        // registry.
        assert!(s.journal.is_enabled());
        assert!(s.journal.drain_lines().is_empty());
        s.journal.count("bench.iterations", 3);
        s.journal.observe("bench.cost", 1.5);
        let port = s.server.as_ref().unwrap().port();
        let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.contains("ideaflow_bench_iterations_total 3"), "{body}");
        assert!(body.contains("ideaflow_bench_cost_count 1"), "{body}");
        // The executor's gauges are seeded into every telemetry session,
        // so pool health is scrapeable even before the workload fans out.
        assert!(body.contains("ideaflow_exec_workers"), "{body}");
        s.finish();
    }

    #[test]
    fn session_combines_journal_and_telemetry() {
        let dir = std::env::temp_dir().join("ideaflow_bench_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("combined.ifj");
        let s = session_from_arg_list(
            "t",
            vec![
                format!("--journal={}", p.display()),
                "--telemetry-port=0".to_owned(),
                "--telemetry-hold-ms=0".to_owned(),
            ],
        );
        assert!(s.journal.is_enabled());
        assert!(s.server.is_some());
        s.journal.emit("x", &[("v", 1.0.into())]);
        s.finish();
        assert!(Journal::load(&p).unwrap().len() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "--telemetry-port: invalid port")]
    fn session_rejects_bad_port() {
        let _ = session_from_arg_list("t", vec!["--telemetry-port=notaport".to_owned()]);
    }

    fn write_rules(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("ideaflow_bench_{name}_{}.toml", std::process::id()));
        std::fs::write(
            &path,
            "[[alert]]\nname = \"too-many-iterations\"\nkind = \"counter\"\nmetric = \"bench.iterations\"\nop = \">=\"\nthreshold = 2\n",
        )
        .unwrap();
        path
    }

    #[test]
    fn session_with_alerts_but_no_port_still_evaluates_rules() {
        let path = write_rules("alerts_only");
        let s = session_from_arg_list("t", vec![format!("--alerts={}", path.display())]);
        std::fs::remove_file(&path).ok();
        assert!(s.server.is_none());
        let engine = s.alerts.clone().expect("engine built without a port");
        // The telemetry-only journal drives the registry the engine reads.
        assert!(s.journal.is_enabled());
        s.journal.count("bench.iterations", 3);
        let transitions = engine.tick();
        assert_eq!(transitions.len(), 1);
        assert!(transitions[0].fired);
        assert_eq!(engine.active(), vec!["too-many-iterations".to_owned()]);
        s.finish();
    }

    #[test]
    fn session_serves_alert_snapshot_next_to_metrics() {
        use std::io::{Read, Write};
        let path = write_rules("alerts_http");
        let s = session_from_arg_list(
            "t",
            vec![
                "--telemetry-port=0".to_owned(),
                "--alerts".to_owned(),
                path.to_string_lossy().into_owned(),
            ],
        );
        std::fs::remove_file(&path).ok();
        s.journal.count("bench.iterations", 5);
        s.alerts.as_ref().unwrap().tick();
        let port = s.server.as_ref().unwrap().port();
        let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(stream, "GET /alerts HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.contains("\"rule\": \"too-many-iterations\""), "{body}");
        assert!(body.contains("\"active\": true"), "{body}");
        s.finish();
    }

    #[test]
    #[should_panic(expected = "cannot read alert rules")]
    fn session_rejects_missing_rules_file() {
        let _ = session_from_arg_list("t", vec!["--alerts=/nonexistent/rules.toml".to_owned()]);
    }
}

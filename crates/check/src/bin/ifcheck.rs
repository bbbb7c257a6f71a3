//! `ifcheck` — the workspace static analyzer, run by CI as a required
//! deny-by-default gate.
//!
//! ```text
//! ifcheck [--root DIR] [--allow FILE] [--deny-all] [--format FMT]
//!         [--list-lints]
//! ```
//!
//! Scans production sources for determinism hazards in the
//! deterministic crates, cross-checks every journal/telemetry
//! call-site name against the schema registry in
//! `crates/trace/src/schema.rs`, and runs the concurrency passes
//! (lock-order cycles, blocking-while-locked, SeqCst handshake
//! pairing) over the deterministic crates plus `trace`/`serve`/
//! `metrics`. Any unsuppressed finding exits 1; suppressions live in
//! `crates/check/allow.toml` and must state a reason. `--deny-all`
//! additionally rejects dead registry entries and stale allowlist
//! entries, so neither the registry nor the allowlist can rot.
//!
//! The default text report is byte-stable (CI and the idempotence
//! proptest depend on that); `--format json` emits the same findings
//! as a JSON array for problem-matchers and artifact upload.

use std::path::PathBuf;
use std::process::ExitCode;

use ideaflow_check::{check_workspace, Allowlist, Config, Diagnostic};

const USAGE: &str = "usage: ifcheck [--root DIR] [--allow FILE] [--deny-all] [--format FMT]
               [--list-lints]

  --root DIR    workspace root to scan (default: .)
  --allow FILE  allowlist (default: <root>/crates/check/allow.toml)
  --deny-all    strict mode: also fail on dead schema-registry entries
                and stale allowlist entries
  --format FMT  report format: text (byte-stable, default) or json
  --list-lints  print every lint name and exit";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut allow_path: Option<PathBuf> = None;
    let mut strict = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage_error("--root needs a value"),
            },
            "--allow" => match args.next() {
                Some(v) => allow_path = Some(PathBuf::from(v)),
                None => return usage_error("--allow needs a value"),
            },
            "--deny-all" => strict = true,
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                Some(other) => {
                    return usage_error(&format!("unknown format `{other}` (text|json)"))
                }
                None => return usage_error("--format needs a value"),
            },
            "--list-lints" => {
                for lint in ideaflow_check::determinism::ALL {
                    println!("{lint:22} determinism");
                }
                for lint in ideaflow_check::schema_lint::ALL {
                    println!("{lint:22} journal-schema");
                }
                for lint in ideaflow_check::locks::ALL {
                    println!("{lint:22} concurrency");
                }
                println!("{:22} allowlist hygiene (--deny-all)", "stale-allow");
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let mut cfg = Config::for_workspace(root.clone());
    cfg.strict = strict;
    let allow_file = allow_path.unwrap_or_else(|| root.join("crates/check/allow.toml"));
    if allow_file.exists() {
        let text = match std::fs::read_to_string(&allow_file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ifcheck: cannot read {}: {e}", allow_file.display());
                return ExitCode::FAILURE;
            }
        };
        cfg.allow = match Allowlist::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("ifcheck: {}: {e}", allow_file.display());
                return ExitCode::FAILURE;
            }
        };
    }

    let diags = match check_workspace(&cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ifcheck: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        if !json {
            println!(
                "ifcheck: ok ({} mode, {} allow entries)",
                if strict { "deny-all" } else { "default" },
                cfg.allow.entries.len()
            );
        }
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "ifcheck: {} finding(s); fix them or add a reasoned entry to {}",
        diags.len(),
        allow_file.display()
    );
    ExitCode::FAILURE
}

/// The findings as a JSON array (std-only serializer: the diagnostic
/// fields are flat strings and integers, so escaping is all we need).
fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"path\":{},\"line\":{},\"lint\":{},\"message\":{}}}",
            json_str(&d.path),
            d.line,
            json_str(d.lint),
            json_str(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("ifcheck: {msg}\n{USAGE}");
    ExitCode::FAILURE
}

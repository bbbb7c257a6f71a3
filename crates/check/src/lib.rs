//! `ideaflow-check`: the workspace's own static analyzer.
//!
//! Everything this repro promises — bit-identical campaigns at any
//! thread count, checkpoint-resume equivalence, journal warm-starts —
//! hangs on two conventions no compiler checks: (a) no nondeterminism
//! leaks into the deterministic core, and (b) the stringly-typed
//! journal names emitted in one crate exactly match what readers in
//! another crate parse. Kahng's roadmap (DAC 2018, §3.2) argues flows
//! fail when analysis layers silently drift apart; `ifcheck` is the
//! cheap checker that catches that drift *before* the expensive run,
//! the same "accuracy for free" trade the paper advocates for signoff.
//!
//! Two lint families over a hand-rolled token scanner (std only, no
//! new dependencies):
//!
//! - **determinism** ([`determinism`]): unordered collections,
//!   wall-clock reads, entropy-seeded RNGs, and `Ordering::Relaxed` in
//!   the deterministic crates, with a mandatory-reason allowlist
//!   ([`allowlist`], `crates/check/allow.toml`);
//! - **journal schema** ([`schema_lint`]): every emit/count/observe/
//!   time/span/gauge call-site literal in the workspace cross-checked
//!   against the declared registry in `ideaflow_trace::schema`, plus
//!   reader references and dead registry entries;
//! - **concurrency** ([`locks`]): lock-guard scopes recovered from the
//!   token stream feed a cross-file lock-acquisition graph
//!   (`lock-order-cycle` with both witness sites), blocking calls
//!   under a live guard (`blocking-while-locked`), and SeqCst
//!   store/load handshake pairing (`atomic-handshake`), over the
//!   deterministic crates plus `trace`, `serve`, and `metrics`.
//!
//! The `ifcheck` binary drives all three and is wired into CI and the
//! pre-commit hook as a required deny-by-default gate; `ifjournal lint`
//! applies the same registry to *recorded* journals at runtime.

use std::path::{Path, PathBuf};

pub mod allowlist;
pub mod determinism;
pub mod emits;
pub mod lexer;
pub mod locks;
pub mod schema_lint;

pub use allowlist::Allowlist;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line (0 when the finding has no single line).
    pub line: u32,
    /// Lint name (see [`determinism::ALL`] and [`schema_lint::ALL`]).
    pub lint: &'static str,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; findings report paths relative to it.
    pub root: PathBuf,
    /// Path prefixes (workspace-relative, forward slashes) whose files
    /// get the determinism lints. Journal-schema lints always apply.
    pub det_prefixes: Vec<String>,
    /// Path prefixes whose files get the concurrency lints (lock-guard
    /// scopes, the cross-file lock graph, SeqCst handshake pairing).
    pub lock_prefixes: Vec<String>,
    /// Parsed allowlist.
    pub allow: Allowlist,
    /// Strict mode (`--deny-all`): also report dead registry entries
    /// and stale allowlist entries.
    pub strict: bool,
}

impl Config {
    /// The workspace defaults: determinism lints on the deterministic
    /// crates (`core`, `flow`, `opt`, `bandit`, `mdp`, `faults`, and
    /// `exec`, whose task-visible ordering guarantees are part of the
    /// determinism contract); concurrency lints on those plus `trace`
    /// (per-worker buffers, sink-lock flush merge), `serve` (durable
    /// queue behind HTTP workers), and `metrics` (the HTTP server the
    /// daemon's handlers run on).
    #[must_use]
    pub fn for_workspace(root: PathBuf) -> Self {
        let det = ["core", "flow", "opt", "bandit", "mdp", "faults", "exec"];
        let lock = ["trace", "serve", "metrics"];
        Self {
            root,
            det_prefixes: det.iter().map(|c| format!("crates/{c}/src/")).collect(),
            lock_prefixes: det
                .iter()
                .chain(lock.iter())
                .map(|c| format!("crates/{c}/src/"))
                .collect(),
            allow: Allowlist::default(),
            strict: false,
        }
    }
}

/// Walks the workspace for production Rust sources: `crates/*/src/**`
/// (including `src/bin`), the root package's `src/**`, and `examples/
/// **`. Skips `vendor/` (stand-ins are not ours to lint), `target/`,
/// anything under a `fixtures/` directory (lint test corpora contain
/// deliberate violations), and crate `tests/` directories (covered by
/// `#[cfg(test)]` stripping where inline, and by the runtime journal
/// lint where they emit). The result is sorted so reports are
/// byte-stable regardless of directory iteration order.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal.
pub fn discover_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src"), root.join("examples")];
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            roots.push(entry?.path().join("src"));
        }
    }
    for dir in roots {
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "fixtures" | "target" | "vendor" | ".git") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative forward-slash form of `path`.
#[must_use]
pub fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel.to_string_lossy();
    if std::path::MAIN_SEPARATOR == '/' {
        s.into_owned()
    } else {
        s.replace(std::path::MAIN_SEPARATOR, "/")
    }
}

/// Everything one file contributes to the workspace report, computed by
/// [`analyze_file`] and consumed by [`assemble`]. Cross-file passes
/// (lock-order cycles, SeqCst pairing, dead-entry liveness) run at
/// assembly over these records.
#[derive(Default)]
struct FileReport {
    /// Per-file findings (determinism, schema, blocking-while-locked),
    /// before the allowlist is applied.
    diags: Vec<Diagnostic>,
    /// `(kind, name)` of every journal call site in the *raw* tokens —
    /// liveness counts `#[cfg(test)]` sites too: an entry exercised
    /// only by a test is wired, not dead.
    sites: Vec<(emits::SiteKind, String)>,
    /// Lock edges and atomic accesses for the workspace concurrency
    /// passes; `None` when the file is outside `lock_prefixes`.
    locks: Option<locks::FileLocks>,
}

/// Lints one file's source, returning its [`FileReport`]. Diagnostics
/// come from test-stripped tokens only — test scaffolding names are the
/// runtime `ifjournal lint`'s problem, not this gate's.
fn analyze_file(cfg: &Config, rel: &str, src: &str) -> FileReport {
    let raw = lexer::lex(src);
    let tokens = lexer::strip_test_blocks(raw.clone());
    let mut report = FileReport::default();
    if cfg.det_prefixes.iter().any(|p| rel.starts_with(p.as_str())) {
        report.diags.extend(determinism::lint(rel, &tokens));
    }
    report
        .diags
        .extend(schema_lint::lint(rel, &emits::extract(&tokens)));
    report.sites = emits::extract(&raw)
        .into_iter()
        .map(|s| (s.kind, s.name))
        .collect();
    if cfg
        .lock_prefixes
        .iter()
        .any(|p| rel.starts_with(p.as_str()))
    {
        let mut fl = locks::extract(rel, &tokens);
        report.diags.append(&mut fl.diags);
        report.locks = Some(fl);
    }
    report
}

/// Checks an explicit file list. Deterministic by construction: each
/// file is linted independently and the combined report is sorted by
/// `(path, line, lint, message)`, so any permutation of `files` and any
/// repetition of the call yields byte-identical output (a property the
/// test suite verifies with a shuffle proptest).
#[must_use]
pub fn check_files(cfg: &Config, files: &[PathBuf]) -> Vec<Diagnostic> {
    let reports = files
        .iter()
        .map(|file| {
            let rel = relative(&cfg.root, file);
            let report = match std::fs::read_to_string(file) {
                Ok(src) => analyze_file(cfg, &rel, &src),
                Err(_) => unreadable(&rel),
            };
            (rel, report)
        })
        .collect();
    assemble(cfg, reports)
}

/// The [`FileReport`] for a file that cannot be read.
fn unreadable(rel: &str) -> FileReport {
    FileReport {
        diags: vec![Diagnostic {
            path: rel.to_owned(),
            line: 0,
            lint: "io-error",
            message: "unreadable file".to_owned(),
        }],
        ..FileReport::default()
    }
}

/// Combines per-file reports into the final diagnostic list: workspace
/// concurrency passes, strict-mode dead-entry detection, the allowlist,
/// stale-allow hygiene, and the canonical sort.
fn assemble(cfg: &Config, reports: Vec<(String, FileReport)>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut all_sites = Vec::new();
    let mut lock_files: Vec<(String, locks::FileLocks)> = Vec::new();
    let mut suppressed: Vec<usize> = Vec::new();
    for (rel, report) in reports {
        diags.extend(report.diags);
        all_sites.extend(
            report
                .sites
                .into_iter()
                .map(|(kind, name)| emits::CallSite {
                    kind,
                    name,
                    fields: None,
                    read_fields: Vec::new(),
                    line: 0,
                }),
        );
        if let Some(fl) = report.locks {
            lock_files.push((rel, fl));
        }
    }
    diags.extend(locks::workspace_lints(&lock_files));
    if cfg.strict {
        for (family, name) in schema_lint::dead_entries(&all_sites) {
            diags.push(Diagnostic {
                path: "crates/trace/src/schema.rs".to_owned(),
                line: registry_line(&cfg.root, name),
                lint: schema_lint::DEAD_SCHEMA,
                message: format!(
                    "{family} `{name}` is declared but nothing in the workspace \
                     writes or reads it; delete the entry or finish wiring it"
                ),
            });
        }
    }
    // Apply the allowlist, tracking which entries fired.
    diags.retain(|d| match cfg.allow.suppresses(d.lint, &d.path) {
        Some(idx) => {
            suppressed.push(idx);
            false
        }
        None => true,
    });
    if cfg.strict {
        for (idx, entry) in cfg.allow.entries.iter().enumerate() {
            if !suppressed.contains(&idx) {
                diags.push(Diagnostic {
                    path: "crates/check/allow.toml".to_owned(),
                    line: entry.line,
                    lint: "stale-allow",
                    message: format!(
                        "allow entry ({} in {}) no longer suppresses anything; \
                         delete it",
                        entry.lint, entry.path
                    ),
                });
            }
        }
    }
    diags.sort_by(|a, b| {
        (&a.path, a.line, a.lint, &a.message).cmp(&(&b.path, b.line, b.lint, &b.message))
    });
    diags.dedup();
    diags
}

/// Line of `"name"` in the registry source, for dead-entry diagnostics
/// (0 when the registry file cannot be read, e.g. under fixture roots).
fn registry_line(root: &Path, name: &str) -> u32 {
    let Ok(src) = std::fs::read_to_string(root.join("crates/trace/src/schema.rs")) else {
        return 0;
    };
    let needle = format!("\"{name}\"");
    src.lines()
        .position(|l| l.contains(&needle))
        .map_or(0, |i| (i + 1) as u32)
}

/// Discovers and checks the whole workspace under `cfg.root`.
///
/// # Errors
///
/// Propagates discovery I/O errors.
pub fn check_workspace(cfg: &Config) -> std::io::Result<Vec<Diagnostic>> {
    let files = discover_files(&cfg.root)?;
    Ok(check_files(cfg, &files))
}

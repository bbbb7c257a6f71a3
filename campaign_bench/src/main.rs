//! `campaign_bench` — the ideaflow campaign benchmark.
//!
//! ```text
//! campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                --serve-bin <path to ideaflow_serve> --work-dir <dir>
//! campaign_bench --generate-expected <dir>
//! ```
//!
//! Workloads: `short_campaigns`, `chaos_campaigns` (the real
//! `ideaflow_serve` binary as a child process, driven by closed-loop
//! clients) and `physical_sweep` (the flow library in process). An
//! untraced run prints every end-to-end metric; a traced run prints the
//! per-layer ledger and writes its spans to one file. Either way a table
//! goes to stderr and the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `run.sh` builds
//! everything from source and runs this; see `README.md`.

mod daemon;
mod http;
mod physical;
mod replay;
mod report;
mod server;
mod spans;
mod specs;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Load-generator clients of the daemon workloads, capped at the cores.
const CLIENTS: usize = 2;

/// Settings of one run.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Workload seed: orders the inputs.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced run: per-layer ledger instead of end-to-end metrics.
    pub trace: bool,
    /// The `ideaflow_serve` binary.
    pub serve_bin: PathBuf,
    /// This run's work directory (removed at exit).
    pub work: PathBuf,
    /// Where the traced run's spans go.
    pub spans_dir: PathBuf,
    /// Time zero of every span.
    pub epoch: Instant,
}

impl Run {
    /// Closed-loop clients: two, but never more than the cores.
    #[must_use]
    pub fn clients(&self) -> usize {
        CLIENTS.min(cores())
    }

    /// The traced run's span file.
    #[must_use]
    pub fn spans_path(&self) -> PathBuf {
        self.spans_dir
            .join(format!("{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The filesystem type `path` lives on, from `/proc/mounts` (tmpfs hides
/// the cost of any `fsync`, so the state dir's type is part of the regime).
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn required(args: &[String], name: &str) -> Result<String, String> {
    flag(args, name).ok_or_else(|| format!("{name} is required"))
}

fn parse_run(args: &[String]) -> Result<Run, String> {
    let workload = required(args, "--workload")?;
    let seed = required(args, "--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_owned())?;
    let seconds: f64 = required(args, "--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match required(args, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let serve_bin = PathBuf::from(required(args, "--serve-bin")?);
    let base = PathBuf::from(required(args, "--work-dir")?);
    let work = base.join(format!("{workload}-seed{seed}-pid{}", std::process::id()));
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        serve_bin,
        work,
        spans_dir: base.join("spans"),
        epoch: Instant::now(),
    })
}

fn execute(run: &Run) -> Result<report::Report, String> {
    std::fs::create_dir_all(&run.work)
        .and_then(|()| std::fs::create_dir_all(&run.spans_dir))
        .map_err(|e| format!("cannot create {}: {e}", run.work.display()))?;
    eprintln!(
        "campaign_bench: {} seed {} for {} s, {}; {} core(s)",
        run.workload,
        run.seed,
        run.seconds,
        if run.trace { "traced" } else { "untraced" },
        cores()
    );
    let result = match run.workload.as_str() {
        "short_campaigns" => daemon::run(run, &daemon::short_campaigns()),
        "chaos_campaigns" => daemon::run(run, &daemon::chaos_campaigns()),
        "physical_sweep" => physical::run(run),
        other => Err(format!(
            "unknown workload {other:?}; one of short_campaigns, chaos_campaigns, physical_sweep"
        )),
    };
    // Attempt journals of a chaos run reach a hundred MB: never keep them.
    let _ = std::fs::remove_dir_all(&run.work);
    result
}

fn main() -> ExitCode {
    // The pool and anything spawned must run the production schedule.
    for var in server::SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(dir) = flag(&args, "--generate-expected") {
        for (name, text) in specs::generate_expected() {
            let path = Path::new(&dir).join(name);
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("campaign_bench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
        return ExitCode::SUCCESS;
    }
    let report = parse_run(&args).and_then(|run| execute(&run));
    match report {
        Ok(report) => {
            eprint!("{}", report.table());
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

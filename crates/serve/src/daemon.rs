//! The campaign daemon: durable queue + bounded worker pool + HTTP API.
//!
//! Robustness properties, in order of importance:
//!
//! - **Durable ack**: a `201 Created` means the submission is flushed
//!   into `queue.ifj`; `kill -9` at any later instant cannot lose it.
//! - **Crash-resume**: on start, recovered in-flight campaigns re-run
//!   with a `QorCache` seeded from their prior attempts' journals, so
//!   the replayed prefix comes from cache and the final best is
//!   bit-identical to an uninterrupted run.
//! - **Backpressure**: over the queue bound, submissions get 429 +
//!   `Retry-After` instead of unbounded memory.
//! - **Graceful drain**: [`Daemon::drain`] stops admissions (503),
//!   cancels running campaigns at their next round barrier *without*
//!   journaling a terminal record — the durable state is the
//!   crash-recovery shape, so the next start resumes them — then
//!   flushes and joins everything.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ideaflow_bench::experiments::{fig06_orchestration, fig07_mab};
use ideaflow_exec::CancelToken;
use ideaflow_flow::cache::QorCache;
use ideaflow_metrics::http::{HttpLimits, HttpServer};
use ideaflow_trace::{EventStream, Journal, TelemetryRegistry};

use crate::queue::{self, Claim, DurableQueue};
use crate::spec::CampaignKind;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// HTTP port (0 picks a free one).
    pub port: u16,
    /// State directory: `queue.ifj` + `journals/` live here.
    pub state_dir: PathBuf,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Pending-queue bound (admission control).
    pub queue_bound: usize,
    /// HTTP connection limits.
    pub limits: HttpLimits,
    /// Pause chaos campaigns this long after every GWTW round — pure
    /// pacing so kill/cancel harnesses can reliably land mid-campaign
    /// (the search never observes the clock; results are
    /// bit-identical). Defaults from `IDEAFLOW_SERVE_ROUND_HOLD_MS`.
    pub round_hold: Option<Duration>,
}

impl DaemonConfig {
    /// Defaults for `state_dir`: 2 workers, bound 32, default limits,
    /// port 0, round hold from the environment.
    #[must_use]
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self {
            port: 0,
            state_dir: state_dir.into(),
            workers: 2,
            queue_bound: 32,
            limits: HttpLimits::default(),
            round_hold: round_hold_env(),
        }
    }
}

/// State shared between the HTTP handler, the workers, and the owner.
pub(crate) struct Shared {
    pub(crate) queue: DurableQueue,
    pub(crate) registry: TelemetryRegistry,
    pub(crate) state_dir: PathBuf,
    /// Per-running-campaign cancel tokens.
    pub(crate) tokens: Mutex<HashMap<String, CancelToken>>,
    /// Campaigns the client cancelled while running (beats drain).
    pub(crate) user_cancelled: Mutex<HashSet<String>>,
    /// Draining: refuse submissions, checkpoint running campaigns.
    pub(crate) draining: AtomicBool,
    /// `POST /shutdown` arrived; the owner should call `drain`.
    pub(crate) shutdown_requested: AtomicBool,
    /// Chaos-round pacing (see [`DaemonConfig::round_hold`]).
    pub(crate) round_hold: Option<Duration>,
}

/// A running campaign daemon. [`Daemon::drain`] (or drop) shuts down
/// gracefully.
pub struct Daemon {
    shared: Arc<Shared>,
    server: HttpServer,
    workers: Vec<JoinHandle<()>>,
    recovered: usize,
}

impl Daemon {
    /// Opens (recovering) the durable queue under `cfg.state_dir`,
    /// starts the worker pool and the HTTP API, and returns.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the state dir, queue journal, or
    /// listening socket cannot be set up.
    pub fn start(cfg: &DaemonConfig) -> std::io::Result<Self> {
        let registry = TelemetryRegistry::new();
        let (queue, recovered) =
            DurableQueue::open(&cfg.state_dir, cfg.queue_bound, Some(registry.clone()))?;
        let shared = Arc::new(Shared {
            queue,
            registry,
            state_dir: cfg.state_dir.clone(),
            tokens: Mutex::new(HashMap::new()),
            user_cancelled: Mutex::new(HashSet::new()),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            round_hold: cfg.round_hold,
        });
        // workers == 0 is a queue-only daemon: submissions are acked
        // and never claimed (tests use it to pin admission control).
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let server = HttpServer::bind(
            cfg.port,
            cfg.limits,
            Arc::new(crate::http_api::Api::new(Arc::clone(&shared))),
        )?;
        Ok(Self {
            shared,
            server,
            workers,
            recovered,
        })
    }

    /// The bound HTTP port.
    #[must_use]
    pub fn port(&self) -> u16 {
        self.server.port()
    }

    /// In-flight campaigns recovered to pending at start (the
    /// crash-resume count).
    #[must_use]
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Whether a client requested shutdown via `POST /shutdown`; the
    /// owner polls this and calls [`Daemon::drain`].
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Graceful drain: stop admitting (503), cancel running campaigns
    /// at their next round barrier (checkpointed for resume, not
    /// terminal), join the workers, flush the queue journal, and stop
    /// the HTTP server. Idempotent.
    pub fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        for token in self.shared.tokens.lock().expect("tokens lock").values() {
            token.cancel();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.queue.flush();
        self.server.shutdown();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        match shared.queue.claim() {
            Some(claim) => run_campaign(shared, &claim),
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Runs one claimed campaign to a terminal state (or a checkpoint).
/// Each attempt journals into its own `journals/<id>.a<n>.ifj`; chaos
/// attempts ≥ 2 seed their QoR cache from every prior attempt first.
fn run_campaign(shared: &Shared, claim: &Claim) {
    let token = CancelToken::new();
    shared
        .tokens
        .lock()
        .expect("tokens lock")
        .insert(claim.id.clone(), token.clone());

    let result = execute(shared, claim, &token);

    shared.tokens.lock().expect("tokens lock").remove(&claim.id);
    let user_cancel = shared
        .user_cancelled
        .lock()
        .expect("cancel lock")
        .remove(&claim.id);
    if token.is_cancelled() {
        if user_cancel {
            shared.queue.confirm_cancelled(&claim.id);
        } else {
            // Drain checkpoint: durable state stays "started", so the
            // next daemon start resumes this campaign.
            shared.queue.checkpoint_for_resume(&claim.id);
        }
        return;
    }
    match result {
        Ok((best, detail)) => shared.queue.finish(
            &claim.id,
            true,
            Some(&format!("{:016x}", best.to_bits())),
            Some(best),
            detail.as_deref(),
        ),
        Err(e) => shared.queue.finish(&claim.id, false, None, None, Some(&e)),
    }
}

/// Runs the campaign body, returning the bit-stable best value.
fn execute(
    shared: &Shared,
    claim: &Claim,
    token: &CancelToken,
) -> Result<(f64, Option<String>), String> {
    let journal_path = queue::attempt_journal_path(&shared.state_dir, &claim.id, claim.attempt);
    let journal = Journal::to_file(&claim.id, &journal_path)
        .map_err(|e| format!("cannot open campaign journal: {e}"))?
        .with_telemetry(shared.registry.clone());
    let outcome = match claim.spec.kind {
        CampaignKind::Chaos {
            rounds,
            seed,
            fault_rate,
        } => {
            let cfg = fig06_orchestration::ChaosConfig {
                rounds,
                seed,
                fault_rate,
                ..fig06_orchestration::ChaosConfig::default()
            };
            let cache = QorCache::new();
            // Checkpoint-resume: replay every prior attempt's journal
            // into the cache; the re-run serves the replayed prefix
            // from cache, bit-identical.
            for path in prior_attempts(shared, claim) {
                if let Ok(stream) = EventStream::open(&path) {
                    for event in stream.flatten() {
                        // A torn tail (killed mid-write) simply ends
                        // the warm prefix.
                        cache.seed_event(&event);
                    }
                }
            }
            let out = fig06_orchestration::run_chaos_gwtw_cancellable(
                &cfg,
                cfg.rounds,
                cache,
                &journal,
                None,
                Some(token),
                shared.round_hold,
            );
            Ok((out.best_cost, None))
        }
        CampaignKind::Gwtw { dim, seed } => {
            let p = fig06_orchestration::run_gwtw(dim, seed);
            Ok((p.gwtw_best, None))
        }
        CampaignKind::Multistart { dim, starts, seed } => {
            let p = fig06_orchestration::run_ams(dim, starts, seed);
            Ok((p.adaptive_best, None))
        }
        CampaignKind::Bandit { instances, seed } => {
            let data = fig07_mab::run_journaled(instances, seed, &journal);
            let best = data.best_line.last().copied().unwrap_or(0.0);
            Ok((best, None))
        }
    };
    journal.finish();
    outcome
}

/// Test/CI pacing default: `IDEAFLOW_SERVE_ROUND_HOLD_MS` pauses chaos
/// campaigns that long after every GWTW round, so a harness can land a
/// `kill -9` or a cancel mid-campaign even in release builds (which
/// finish an unpaced campaign in tens of milliseconds). Pure pacing —
/// the search never observes the clock, results are bit-identical.
/// In-process harnesses set [`DaemonConfig::round_hold`] directly.
fn round_hold_env() -> Option<Duration> {
    std::env::var("IDEAFLOW_SERVE_ROUND_HOLD_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
}

fn prior_attempts(shared: &Shared, claim: &Claim) -> Vec<PathBuf> {
    queue::attempt_journals(&shared.state_dir, &claim.id)
        .into_iter()
        .filter(|p| *p != queue::attempt_journal_path(&shared.state_dir, &claim.id, claim.attempt))
        .collect()
}

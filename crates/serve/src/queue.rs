//! The durable, journal-backed submission queue.
//!
//! Every state transition of every campaign is one append-only record
//! in `<state>/queue.ifj`, written in the binary journal format:
//!
//! ```text
//! queue.accepted  {id, kind, spec}   submission durably acked
//! queue.started   {id, attempt}      claimed by a worker
//! queue.finished  {id, ok, ...}      terminal result
//! campaign.cancelled {id}            terminal, client-requested
//! ```
//!
//! **Durability contract**: `submit` flushes the `queue.accepted`
//! record to the file *before* returning, so once a client has its
//! HTTP 201 the submission survives `kill -9`. All journal writes
//! happen under the queue mutex — a single-threaded emitter keeps the
//! journal's seq-contiguous flush writing every staged record.
//!
//! **Recovery**: on open, the previous journal (if any) is streamed;
//! a torn tail (`Truncated`/`Corrupt` from a crash mid-append) ends
//! the valid prefix and is dropped — by the durability contract the
//! torn record can only be one whose effect was never acknowledged.
//! Folding records by id rebuilds the state: `started` without a
//! terminal record means the daemon died mid-campaign, and the
//! campaign returns to the pending queue with its attempt count
//! intact (the daemon later seeds its QoR cache from the dead
//! attempt's journal — checkpoint-resume). Because the fold is keyed
//! by id, recovery can never double-queue (and thus never
//! double-start) a campaign.
//!
//! **Compaction**: the journal writer truncates on open, so recovery
//! rewrites the folded state (≤ 3 records per campaign) to
//! `queue.new.ifj` and atomically renames it over `queue.ifj`. A
//! crash before the rename leaves the old journal intact; after, the
//! compacted one — both parse to the same state.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ideaflow_trace::{EventStream, Journal, RunEvent, TelemetryRegistry};
use serde::Value;

use crate::spec::CampaignSpec;

/// Campaign lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Accepted, waiting for a worker (includes crash-recovered
    /// in-flight campaigns awaiting their resume attempt).
    Pending,
    /// Claimed by a worker.
    Running,
    /// Finished (see `ok`/`error` on the record).
    Done,
    /// Cancelled by client request.
    Cancelled,
}

impl CampaignState {
    /// Wire name used in JSON status payloads.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Pending => "pending",
            Self::Running => "running",
            Self::Done => "done",
            Self::Cancelled => "cancelled",
        }
    }

    /// Whether the campaign can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Done | Self::Cancelled)
    }
}

#[derive(Debug, Clone)]
struct Campaign {
    id: String,
    spec: CampaignSpec,
    state: CampaignState,
    attempts: u32,
    ok: bool,
    best_bits: Option<String>,
    best_cost: Option<f64>,
    error: Option<String>,
}

/// Public snapshot of one campaign's status.
#[derive(Debug, Clone)]
pub struct CampaignInfo {
    /// Campaign id (`c0001`, monotonic across restarts).
    pub id: String,
    /// Campaign kind wire name.
    pub kind: &'static str,
    /// Current state.
    pub state: CampaignState,
    /// Start attempts so far (≥ 2 means the campaign was resumed).
    pub attempts: u32,
    /// Whether the terminal result was a success.
    pub ok: bool,
    /// Bit-exact hex of the best cost, when done.
    pub best_bits: Option<String>,
    /// Best cost, when done.
    pub best_cost: Option<f64>,
    /// Error message, when failed.
    pub error: Option<String>,
}

/// A claim handed to a worker.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Campaign id.
    pub id: String,
    /// The parsed spec.
    pub spec: CampaignSpec,
    /// This start's attempt number (1-based).
    pub attempt: u32,
}

/// Admission-control rejection: the pending queue is at its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Pending depth at rejection time.
    pub depth: usize,
}

/// Outcome of a cancel request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// Was pending; removed from the queue (terminal).
    Dequeued,
    /// Is running; the daemon must signal the worker's `CancelToken`
    /// and the worker will confirm via `confirm_cancelled`.
    SignalRunning,
    /// Already terminal; nothing to do.
    AlreadyTerminal,
    /// No such campaign.
    NotFound,
}

struct Inner {
    journal: Journal,
    path: PathBuf,
    campaigns: Vec<Campaign>,
    next_id: u64,
}

/// The durable queue: all state transitions journaled and flushed
/// under one mutex before the caller observes them.
pub struct DurableQueue {
    bound: usize,
    telemetry: Option<TelemetryRegistry>,
    inner: Mutex<Inner>,
}

impl DurableQueue {
    /// Opens (recovering + compacting) the queue journal under
    /// `state_dir`. `bound` caps the pending queue; `telemetry`
    /// receives the `queue.depth` / `serve.running` gauges and the
    /// journal's counter mirror. Returns the queue and the number of
    /// in-flight campaigns returned to pending (crash-resumes).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the state dir or journal cannot be
    /// created or the compacted journal cannot be renamed into place.
    pub fn open(
        state_dir: &Path,
        bound: usize,
        telemetry: Option<TelemetryRegistry>,
    ) -> std::io::Result<(Self, usize)> {
        fs::create_dir_all(state_dir.join("journals"))?;
        let path = state_dir.join("queue.ifj");
        let mut campaigns = Vec::new();
        let mut next_id = 1;
        if path.exists() {
            for event in EventStream::open(&path)? {
                let Ok(event) = event else {
                    // Torn tail from a crash mid-append: the valid
                    // prefix is the durable state, the rest was never
                    // acked to anyone.
                    break;
                };
                fold(&mut campaigns, &event);
            }
            for c in &campaigns {
                if let Some(n) = c.id.strip_prefix('c').and_then(|n| n.parse::<u64>().ok()) {
                    next_id = next_id.max(n + 1);
                }
            }
        }
        // In-flight at crash time: back to pending, keeping the
        // attempt count so the next start seeds from prior journals.
        let mut resumed = 0;
        for c in &mut campaigns {
            if c.state == CampaignState::Running {
                c.state = CampaignState::Pending;
                resumed += 1;
            }
        }

        // Compact-rewrite: the journal writer truncates on open, so
        // write the folded state to a sibling and rename over.
        let tmp = state_dir.join("queue.new.ifj");
        let mut journal = Journal::to_file("queue", &tmp)?;
        if let Some(t) = &telemetry {
            journal = journal.with_telemetry(t.clone());
        }
        for c in &campaigns {
            emit_accepted(&journal, &c.id, &c.spec);
            if c.attempts > 0 {
                emit_started(&journal, &c.id, c.attempts);
            }
            match c.state {
                CampaignState::Done => emit_finished(
                    &journal,
                    &c.id,
                    c.ok,
                    c.best_bits.as_deref(),
                    c.best_cost,
                    c.error.as_deref(),
                ),
                CampaignState::Cancelled => emit_cancelled(&journal, &c.id),
                CampaignState::Pending | CampaignState::Running => {}
            }
        }
        journal.flush();
        fs::rename(&tmp, &path)?;

        let queue = Self {
            bound,
            telemetry,
            inner: Mutex::new(Inner {
                journal,
                path,
                campaigns,
                next_id,
            }),
        };
        queue.set_gauges(&queue.inner.lock().expect("queue lock"));
        Ok((queue, resumed))
    }

    /// Durably admits a submission: the `queue.accepted` record is on
    /// disk before this returns. Over the pending bound, journals a
    /// `queue.rejected` record and refuses.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the pending queue is at its bound.
    pub fn submit(&self, spec: CampaignSpec) -> Result<String, QueueFull> {
        let mut inner = self.inner.lock().expect("queue lock");
        let depth = pending_depth(&inner.campaigns);
        if depth >= self.bound {
            inner.journal.emit(
                "queue.rejected",
                &[
                    ("reason", Value::Str("queue full".to_owned())),
                    ("depth", Value::Int(depth as i64)),
                ],
            );
            inner.journal.count("queue.rejected", 1);
            inner.journal.flush();
            return Err(QueueFull { depth });
        }
        let id = format!("c{:04}", inner.next_id);
        inner.next_id += 1;
        emit_accepted(&inner.journal, &id, &spec);
        inner.journal.count("queue.submitted", 1);
        inner.journal.flush();
        inner.campaigns.push(Campaign {
            id: id.clone(),
            spec,
            state: CampaignState::Pending,
            attempts: 0,
            ok: false,
            best_bits: None,
            best_cost: None,
            error: None,
        });
        self.set_gauges(&inner);
        Ok(id)
    }

    /// Claims the oldest pending campaign for a worker, journaling the
    /// start. Returns `None` when nothing is pending.
    pub fn claim(&self) -> Option<Claim> {
        let mut inner = self.inner.lock().expect("queue lock");
        let idx = inner
            .campaigns
            .iter()
            .position(|c| c.state == CampaignState::Pending)?;
        inner.campaigns[idx].state = CampaignState::Running;
        inner.campaigns[idx].attempts += 1;
        let claim = Claim {
            id: inner.campaigns[idx].id.clone(),
            spec: inner.campaigns[idx].spec.clone(),
            attempt: inner.campaigns[idx].attempts,
        };
        emit_started(&inner.journal, &claim.id, claim.attempt);
        inner.journal.flush();
        self.set_gauges(&inner);
        Some(claim)
    }

    /// Journals a terminal result for a running campaign.
    pub fn finish(
        &self,
        id: &str,
        ok: bool,
        best_bits: Option<&str>,
        best_cost: Option<f64>,
        error: Option<&str>,
    ) {
        let mut inner = self.inner.lock().expect("queue lock");
        let Some(c) = inner.campaigns.iter_mut().find(|c| c.id == id) else {
            return;
        };
        c.state = CampaignState::Done;
        c.ok = ok;
        c.best_bits = best_bits.map(str::to_owned);
        c.best_cost = best_cost;
        c.error = error.map(str::to_owned);
        emit_finished(&inner.journal, id, ok, best_bits, best_cost, error);
        inner.journal.count("queue.completed", 1);
        inner.journal.flush();
        self.set_gauges(&inner);
    }

    /// Requests cancellation. Pending campaigns are dequeued and
    /// journaled terminal immediately; running ones need their worker
    /// signalled (see [`CancelOutcome::SignalRunning`]).
    pub fn cancel(&self, id: &str) -> CancelOutcome {
        let mut inner = self.inner.lock().expect("queue lock");
        let Some(c) = inner.campaigns.iter_mut().find(|c| c.id == id) else {
            return CancelOutcome::NotFound;
        };
        match c.state {
            CampaignState::Pending => {
                c.state = CampaignState::Cancelled;
                emit_cancelled(&inner.journal, id);
                inner.journal.flush();
                self.set_gauges(&inner);
                CancelOutcome::Dequeued
            }
            CampaignState::Running => CancelOutcome::SignalRunning,
            CampaignState::Done | CampaignState::Cancelled => CancelOutcome::AlreadyTerminal,
        }
    }

    /// Worker confirmation that a running campaign stopped at a cancel
    /// checkpoint: journaled terminal as client-cancelled.
    pub fn confirm_cancelled(&self, id: &str) {
        let mut inner = self.inner.lock().expect("queue lock");
        let Some(c) = inner.campaigns.iter_mut().find(|c| c.id == id) else {
            return;
        };
        c.state = CampaignState::Cancelled;
        emit_cancelled(&inner.journal, id);
        inner.journal.flush();
        self.set_gauges(&inner);
    }

    /// Worker confirmation that a drain checkpointed a running
    /// campaign: back to pending, **no** journal record — the durable
    /// state stays `started` without a terminal record, which is
    /// exactly the crash-recovery shape, so the next daemon start
    /// resumes it.
    pub fn checkpoint_for_resume(&self, id: &str) {
        let mut inner = self.inner.lock().expect("queue lock");
        if let Some(c) = inner.campaigns.iter_mut().find(|c| c.id == id) {
            if c.state == CampaignState::Running {
                c.state = CampaignState::Pending;
            }
        }
        inner.journal.flush();
        self.set_gauges(&inner);
    }

    /// Snapshot of one campaign.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<CampaignInfo> {
        let inner = self.inner.lock().expect("queue lock");
        inner.campaigns.iter().find(|c| c.id == id).map(info)
    }

    /// Snapshot of every campaign, submission order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<CampaignInfo> {
        let inner = self.inner.lock().expect("queue lock");
        inner.campaigns.iter().map(info).collect()
    }

    /// Current pending depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        let inner = self.inner.lock().expect("queue lock");
        pending_depth(&inner.campaigns)
    }

    /// Flushes the queue journal (drain epilogue; every mutation
    /// already flushes).
    pub fn flush(&self) {
        let inner = self.inner.lock().expect("queue lock");
        inner.journal.flush();
    }

    /// The on-disk journal path (tests truncate it).
    #[must_use]
    pub fn journal_path(&self) -> PathBuf {
        self.inner.lock().expect("queue lock").path.clone()
    }

    fn set_gauges(&self, inner: &Inner) {
        if let Some(t) = &self.telemetry {
            t.set_gauge("queue.depth", pending_depth(&inner.campaigns) as f64);
            let running = inner
                .campaigns
                .iter()
                .filter(|c| c.state == CampaignState::Running)
                .count();
            t.set_gauge("serve.running", running as f64);
        }
    }
}

fn pending_depth(campaigns: &[Campaign]) -> usize {
    campaigns
        .iter()
        .filter(|c| c.state == CampaignState::Pending)
        .count()
}

fn info(c: &Campaign) -> CampaignInfo {
    CampaignInfo {
        id: c.id.clone(),
        kind: c.spec.kind_name(),
        state: c.state,
        attempts: c.attempts,
        ok: c.ok,
        best_bits: c.best_bits.clone(),
        best_cost: c.best_cost,
        error: c.error.clone(),
    }
}

/// Folds one journal record into the recovered campaign list. Records
/// for ids that never had an `accepted` (impossible without journal
/// surgery) are ignored; duplicate `accepted` for one id keeps the
/// first, so recovery never double-queues.
fn fold(campaigns: &mut Vec<Campaign>, event: &RunEvent) {
    let id = |ev: &RunEvent| {
        ev.payload
            .get("id")
            .and_then(Value::as_str)
            .map(str::to_owned)
    };
    match event.step.as_str() {
        "queue.accepted" => {
            let (Some(id), Some(spec_raw)) = (id(event), event.payload.get("spec")) else {
                return;
            };
            if campaigns.iter().any(|c| c.id == id) {
                return;
            }
            let Ok(spec) = CampaignSpec::from_value(spec_raw) else {
                return;
            };
            campaigns.push(Campaign {
                id,
                spec,
                state: CampaignState::Pending,
                attempts: 0,
                ok: false,
                best_bits: None,
                best_cost: None,
                error: None,
            });
        }
        "queue.started" => {
            let Some(id) = id(event) else { return };
            if let Some(c) = campaigns.iter_mut().find(|c| c.id == id) {
                c.state = CampaignState::Running;
                if let Some(Value::Int(a)) = event.payload.get("attempt") {
                    c.attempts = (*a).max(0) as u32;
                }
            }
        }
        "queue.finished" => {
            let Some(id) = id(event) else { return };
            if let Some(c) = campaigns.iter_mut().find(|c| c.id == id) {
                c.state = CampaignState::Done;
                c.ok = matches!(event.payload.get("ok"), Some(Value::Bool(true)));
                c.best_bits = event
                    .payload
                    .get("best_bits")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
                c.best_cost = match event.payload.get("best_cost") {
                    Some(Value::Float(f)) => Some(*f),
                    Some(Value::Int(i)) => Some(*i as f64),
                    _ => None,
                };
                c.error = event
                    .payload
                    .get("error")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
            }
        }
        "campaign.cancelled" => {
            let Some(id) = id(event) else { return };
            if let Some(c) = campaigns.iter_mut().find(|c| c.id == id) {
                c.state = CampaignState::Cancelled;
            }
        }
        _ => {}
    }
}

fn emit_accepted(journal: &Journal, id: &str, spec: &CampaignSpec) {
    journal.emit(
        "queue.accepted",
        &[
            ("id", Value::Str(id.to_owned())),
            ("kind", Value::Str(spec.kind_name().to_owned())),
            ("spec", spec.raw.clone()),
        ],
    );
}

fn emit_started(journal: &Journal, id: &str, attempt: u32) {
    journal.emit(
        "queue.started",
        &[
            ("id", Value::Str(id.to_owned())),
            ("attempt", Value::Int(i64::from(attempt))),
        ],
    );
}

fn emit_finished(
    journal: &Journal,
    id: &str,
    ok: bool,
    best_bits: Option<&str>,
    best_cost: Option<f64>,
    error: Option<&str>,
) {
    let mut fields: Vec<(&str, Value)> =
        vec![("id", Value::Str(id.to_owned())), ("ok", Value::Bool(ok))];
    if let Some(bits) = best_bits {
        fields.push(("best_bits", Value::Str(bits.to_owned())));
    }
    if let Some(cost) = best_cost {
        fields.push(("best_cost", Value::Float(cost)));
    }
    if let Some(e) = error {
        fields.push(("error", Value::Str(e.to_owned())));
    }
    journal.emit("queue.finished", &fields);
}

fn emit_cancelled(journal: &Journal, id: &str) {
    journal.emit("campaign.cancelled", &[("id", Value::Str(id.to_owned()))]);
}

/// Attempt-journal paths for a campaign id under `state_dir`, sorted
/// by attempt: the files `QorCache` seeding reads on resume.
#[must_use]
pub fn attempt_journals(state_dir: &Path, id: &str) -> Vec<PathBuf> {
    let dir = state_dir.join("journals");
    let mut found: Vec<(u32, PathBuf)> = Vec::new();
    if let Ok(entries) = fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&format!("{id}.a")) else {
                continue;
            };
            if let Some(n) = rest
                .strip_suffix(".ifj")
                .and_then(|n| n.parse::<u32>().ok())
            {
                found.push((n, dir.join(name)));
            }
        }
    }
    found.sort_by_key(|(n, _)| *n);
    found.into_iter().map(|(_, p)| p).collect()
}

/// The journal path for one attempt of a campaign.
#[must_use]
pub fn attempt_journal_path(state_dir: &Path, id: &str, attempt: u32) -> PathBuf {
    state_dir
        .join("journals")
        .join(format!("{id}.a{attempt}.ifj"))
}

/// Ids that appear in a recovered snapshot more than once — always
/// empty by construction; exposed for the proptest invariant.
#[must_use]
pub fn duplicate_ids(infos: &[CampaignInfo]) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut dups = Vec::new();
    for info in infos {
        if !seen.insert(info.id.clone()) {
            dups.push(info.id.clone());
        }
    }
    dups
}

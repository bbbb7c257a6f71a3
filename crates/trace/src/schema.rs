//! The declared journal schema: every event, counter, histogram, span
//! name, and telemetry gauge the workspace is allowed to emit, with the
//! required payload fields and their kinds.
//!
//! The journal is stringly typed at the emit sites — `journal.emit(
//! "flow.sample", &[("wns_ps", ..)])` in one crate, `reader
//! .field_stats_grouped("bandit.pull", "arm", "reward")` in another —
//! so a misspelled name silently severs a writer from its readers
//! (warm-starts, checkpoint resume, the failure ledger). This module is
//! the registry both checkers cross-reference:
//!
//! - **statically**: `ifcheck` (crate `ideaflow-check`) extracts every
//!   emit/count/observe/time/span/gauge call-site literal in the
//!   workspace and fails on names or field keys not declared here;
//! - **at runtime**: `ifjournal lint` validates a recorded journal
//!   event by event ([`lint_event`]; [`lint_jsonl`] over a JSONL
//!   rendering) before it is trusted for replay, warm-starts, or
//!   resume.
//!
//! The workflow is registry-first: to add a journal event, declare it
//! here (name, fields, kinds), then write the emit site. `ifcheck`
//! fails on emits the registry does not know *and* on registry entries
//! nothing emits or reads, so the registry can neither lag behind nor
//! rot ahead of the code.
//!
//! Names ending in `.*` are wildcards: `flow.step.*` covers the
//! per-step metric events built with `format!("flow.step.{}", ..)`.
//! Wildcard events accept extra payload fields (their keys come from
//! dynamic metric vocabularies); exact events reject undeclared fields
//! so a typo like `wns_sp` is a diagnostic, not a silently unread key.

use crate::RunEvent;
use serde::Value;

/// The kind a payload field must parse as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// JSON integer.
    Int,
    /// Integer or float (numeric measurements; integral floats are
    /// emitted without a decimal point by the vendored serde).
    Num,
    /// String.
    Str,
    /// Boolean.
    Bool,
    /// Array.
    Array,
    /// Object.
    Map,
}

impl FieldKind {
    /// Whether `value` conforms to this kind.
    #[must_use]
    pub fn admits(self, value: &Value) -> bool {
        match self {
            FieldKind::Int => matches!(value, Value::Int(_)),
            FieldKind::Num => matches!(value, Value::Int(_) | Value::Float(_)),
            FieldKind::Str => matches!(value, Value::Str(_)),
            FieldKind::Bool => matches!(value, Value::Bool(_)),
            FieldKind::Array => matches!(value, Value::Array(_)),
            FieldKind::Map => matches!(value, Value::Object(_)),
        }
    }

    /// Human-readable kind name for diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FieldKind::Int => "int",
            FieldKind::Num => "number",
            FieldKind::Str => "string",
            FieldKind::Bool => "bool",
            FieldKind::Array => "array",
            FieldKind::Map => "object",
        }
    }
}

/// One declared payload field of an event.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    /// The payload key.
    pub name: &'static str,
    /// The kind the value must parse as.
    pub kind: FieldKind,
    /// Whether the field may be absent or `null`. Writers encode
    /// "unknown" as `null` (e.g. NaN serializes to `null`), so an
    /// optional field admits `null` where a required one does not.
    pub optional: bool,
}

/// One declared journal event.
#[derive(Debug, Clone, Copy)]
pub struct EventSchema {
    /// Exact event name, or a `prefix.*` wildcard.
    pub name: &'static str,
    /// Required payload fields (all must be present with the right kind).
    pub fields: &'static [FieldSpec],
    /// Whether payload keys beyond `fields` are permitted. Exact events
    /// declare their full vocabulary and set this false; wildcard
    /// events carry dynamic metric keys and set it true.
    pub extra_fields: bool,
    /// What the event records (for docs and diagnostics).
    pub doc: &'static str,
}

/// A declared counter, histogram, span name, or telemetry gauge: a bare
/// name (or `prefix.*` wildcard) plus its purpose.
#[derive(Debug, Clone, Copy)]
pub struct NameSchema {
    /// Exact name or `prefix.*` wildcard.
    pub name: &'static str,
    /// What the aggregate measures.
    pub doc: &'static str,
}

const fn f(name: &'static str, kind: FieldKind) -> FieldSpec {
    FieldSpec {
        name,
        kind,
        optional: false,
    }
}

/// An optional field: may be absent or `null` (a writer's "unknown").
const fn opt(name: &'static str, kind: FieldKind) -> FieldSpec {
    FieldSpec {
        name,
        kind,
        optional: true,
    }
}

use FieldKind::{Array, Bool, Int, Map, Num, Str};

/// Every journal **event** the workspace may emit.
pub const EVENTS: &[EventSchema] = &[
    // ---- flow fast surface -------------------------------------------------
    EventSchema {
        name: "flow.sample",
        fields: &[
            f("sample", Int),
            f("fingerprint", Int),
            f("target_ghz", Num),
            f("area_um2", Num),
            f("wns_ps", Num),
            f("leakage_nw", Num),
            f("runtime_hours", Num),
        ],
        extra_fields: false,
        doc: "one fast-surface QoR evaluation; carries the cache key so \
              QorCache::seed_from_journal can rebuild the memo store",
    },
    EventSchema {
        name: "flow.step.*",
        fields: &[f("flow_run", Str)],
        extra_fields: true,
        doc: "per-step METRICS record, the input metrics::corpus mines \
              (step-specific metric keys ride as extra fields)",
    },
    // ---- flow physical pipeline -------------------------------------------
    EventSchema {
        name: "flow.floorplan",
        fields: &[
            f("flow_run", Str),
            f("utilization", Num),
            f("aspect_ratio", Num),
            f("secs", Num),
        ],
        extra_fields: false,
        doc: "floorplan stage of run_physical",
    },
    EventSchema {
        name: "flow.place",
        fields: &[
            f("flow_run", Str),
            f("moves", Int),
            f("hpwl_um", Num),
            f("secs", Num),
        ],
        extra_fields: false,
        doc: "annealed placement stage of run_physical",
    },
    EventSchema {
        name: "flow.cts",
        fields: &[
            f("flow_run", Str),
            f("skew_ps", Num),
            f("buffers", Int),
            f("secs", Num),
        ],
        extra_fields: false,
        doc: "clock-tree synthesis stage of run_physical",
    },
    EventSchema {
        name: "flow.route",
        fields: &[
            f("flow_run", Str),
            f("overflow", Num),
            f("hot_fraction", Num),
            f("secs", Num),
        ],
        extra_fields: false,
        doc: "global route stage of run_physical",
    },
    EventSchema {
        name: "flow.signoff",
        fields: &[
            f("flow_run", Str),
            f("wns_ps", Num),
            f("skew_ps", Num),
            f("secs", Num),
        ],
        extra_fields: false,
        doc: "multi-corner signoff stage of run_physical",
    },
    EventSchema {
        name: "flow.detail_route",
        fields: &[
            f("flow_run", Str),
            f("initial_drvs", Int),
            f("final_drvs", Int),
            f("secs", Num),
        ],
        extra_fields: false,
        doc: "detailed-route DRV simulation stage of run_physical",
    },
    EventSchema {
        name: "flow.run_physical",
        fields: &[
            f("flow_run", Str),
            f("sample", Int),
            f("target_ghz", Num),
            f("wns_ps", Num),
            f("hpwl_um", Num),
            f("secs", Num),
        ],
        extra_fields: false,
        doc: "whole-pipeline summary of one run_physical call",
    },
    // ---- fault injection & supervision -------------------------------------
    EventSchema {
        name: "fault.injected",
        fields: &[
            f("mode", Str),
            f("sample", Int),
            f("fingerprint", Int),
            f("magnitude", Num),
        ],
        extra_fields: false,
        doc: "one injected fault (crash/hang/corrupt_qor) at a flow key",
    },
    EventSchema {
        name: "run.timeout",
        fields: &[
            f("sample", Int),
            f("attempt", Int),
            f("runtime_hours", Num),
            f("deadline_hours", Num),
        ],
        extra_fields: false,
        doc: "a supervised run exceeded its model-hours deadline",
    },
    EventSchema {
        name: "run.retry",
        fields: &[
            f("sample", Int),
            f("attempt", Int),
            f("next_sample", Int),
            f("backoff_ms", Int),
        ],
        extra_fields: false,
        doc: "supervisor retry with capped backoff after a failed attempt",
    },
    EventSchema {
        name: "run.killed",
        fields: &[
            f("sample", Int),
            f("at_step", Int),
            f("step", Str),
            f("hours_saved", Num),
        ],
        extra_fields: false,
        doc: "early-kill: the doomed-run predictor stopped an in-flight run",
    },
    // ---- optimizers ---------------------------------------------------------
    EventSchema {
        name: "anneal.run",
        fields: &[
            f("seed", Int),
            f("moves", Int),
            f("t_initial", Num),
            f("t_final", Num),
            f("accepted", Int),
            f("uphill_accepted", Int),
            f("acceptance_rate", Num),
            f("best_cost", Num),
        ],
        extra_fields: false,
        doc: "one simulated-annealing run summary",
    },
    EventSchema {
        name: "gwtw.round",
        fields: &[
            f("round", Int),
            f("t", Num),
            f("best", Num),
            f("median", Num),
            f("worst", Num),
            f("terminated", Int),
            f("survivors", Int),
            f("casualties", Int),
            f("best_so_far", Num),
        ],
        extra_fields: false,
        doc: "one go-with-the-winners selection round",
    },
    EventSchema {
        name: "gwtw.run",
        fields: &[
            f("seed", Int),
            f("population", Int),
            f("rounds", Int),
            f("evaluations", Int),
            f("best_cost", Num),
        ],
        extra_fields: false,
        doc: "one GWTW campaign summary",
    },
    EventSchema {
        name: "multistart.start",
        fields: &[
            f("variant", Str),
            f("start", Int),
            f("cost", Num),
            f("evaluations", Int),
            f("best_so_far", Num),
        ],
        extra_fields: false,
        doc: "one completed multistart start",
    },
    EventSchema {
        name: "multistart.failed",
        fields: &[f("variant", Str), f("start", Int)],
        extra_fields: false,
        doc: "one skipped multistart start (supervised failure)",
    },
    EventSchema {
        name: "multistart.run",
        fields: &[f("variant", Str), f("starts", Int), f("best_cost", Num)],
        extra_fields: false,
        doc: "one multistart campaign summary",
    },
    // ---- bandit orchestration ----------------------------------------------
    EventSchema {
        name: "bandit.pull",
        fields: &[
            f("t", Int),
            f("policy", Str),
            f("arm", Int),
            f("reward", Num),
            // Regret needs an oracle; environments without one emit
            // NaN, which serializes as null.
            opt("cumulative_regret", Num),
            f("posterior_means", Array),
        ],
        extra_fields: false,
        doc: "one bandit pull; ThompsonGaussian::seed_from_journal rebuilds \
              per-arm sufficient statistics from the (arm, reward) history",
    },
    EventSchema {
        name: "bandit.censored",
        fields: &[f("t", Int), f("policy", Str), f("arm", Int)],
        extra_fields: false,
        doc: "a concurrent pull whose reward was lost to a fault (censored)",
    },
    EventSchema {
        name: "bandit.iteration",
        fields: &[
            f("iteration", Int),
            f("concurrency", Int),
            f("best_reward", Num),
        ],
        extra_fields: false,
        doc: "one concurrent-bandit batch iteration",
    },
    // ---- orchestration ------------------------------------------------------
    EventSchema {
        name: "orchestrate.compare",
        fields: &[
            f("target_ghz", Num),
            f("gwtw_best_cost", Num),
            f("independent_best_cost", Num),
            f("total_runs", Int),
        ],
        extra_fields: false,
        doc: "GWTW-vs-independent orchestration comparison outcome",
    },
    // ---- spans / journal internals -----------------------------------------
    EventSchema {
        name: "span.open",
        fields: &[
            f("name", Str),
            f("id", Int),
            f("parent", Int),
            f("depth", Int),
            f("thread", Str),
        ],
        extra_fields: false,
        doc: "RAII span opened (see trace::span)",
    },
    EventSchema {
        name: "span.close",
        fields: &[
            f("name", Str),
            f("id", Int),
            f("parent", Int),
            f("depth", Int),
            f("secs", Num),
            f("thread", Str),
        ],
        extra_fields: false,
        doc: "RAII span closed with elapsed wall time",
    },
    EventSchema {
        name: "journal.summary",
        fields: &[f("counters", Map), f("histograms", Map)],
        extra_fields: false,
        doc: "final flush of in-process counters and histogram statistics",
    },
    EventSchema {
        name: "journal.meta",
        fields: &[f("schema_hash", Str), f("format", Int)],
        extra_fields: false,
        doc: "journal header (first event of every file journal): hash of \
              the schema registry the writer was compiled against, so \
              readers can flag cross-version corpora",
    },
    // ---- alerting -----------------------------------------------------------
    EventSchema {
        name: "alert.fired",
        fields: &[
            f("rule", Str),
            f("kind", Str),
            f("value", Num),
            f("threshold", Num),
            f("tick", Int),
        ],
        extra_fields: false,
        doc: "an alert rule crossed its threshold (metrics::alerts engine)",
    },
    EventSchema {
        name: "alert.resolved",
        fields: &[
            f("rule", Str),
            f("kind", Str),
            f("value", Num),
            f("threshold", Num),
            f("tick", Int),
        ],
        extra_fields: false,
        doc: "a previously firing alert rule returned within bounds",
    },
    // ---- campaign service (ideaflow-serve durable queue) -------------------
    EventSchema {
        name: "queue.accepted",
        fields: &[f("id", Str), f("kind", Str), f("spec", Map)],
        extra_fields: false,
        doc: "a campaign submission durably acked into the daemon queue \
              (the record is flushed to disk before the HTTP 201 is sent)",
    },
    EventSchema {
        name: "queue.started",
        fields: &[f("id", Str), f("attempt", Int)],
        extra_fields: false,
        doc: "a worker claimed a queued campaign; attempt > 1 marks a \
              crash-resume re-run seeded from the prior attempt's journal",
    },
    EventSchema {
        name: "queue.finished",
        fields: &[
            f("id", Str),
            f("ok", Bool),
            opt("best_bits", Str),
            opt("best_cost", Num),
            opt("error", Str),
        ],
        extra_fields: false,
        doc: "a claimed campaign reached a terminal result (best_bits is \
              the bit-exact hex of the best cost, diffable across resumes)",
    },
    EventSchema {
        name: "queue.rejected",
        fields: &[f("reason", Str), f("depth", Int)],
        extra_fields: false,
        doc: "a submission shed by admission control (HTTP 429): the \
              pending queue was at its bound",
    },
    EventSchema {
        name: "campaign.cancelled",
        fields: &[f("id", Str)],
        extra_fields: false,
        doc: "a campaign cancelled by client request — terminal; drain \
              checkpoints instead and leaves no terminal record",
    },
    // ---- bench harness timers ----------------------------------------------
    EventSchema {
        name: "bench.*",
        fields: &[f("secs", Num)],
        extra_fields: false,
        doc: "Journal::time wrapper around one fig/tab bench harness",
    },
];

/// Every **counter** (`Journal::count` / `TelemetryRegistry::inc_counter`).
pub const COUNTERS: &[NameSchema] = &[
    NameSchema {
        name: "journal.events",
        doc: "events emitted (telemetry mirror only)",
    },
    NameSchema {
        name: "flow.samples",
        doc: "fast-surface evaluations (cold or cached)",
    },
    NameSchema {
        name: "flow.run_physical.calls",
        doc: "full physical-pipeline runs",
    },
    NameSchema {
        name: "flow.cache.hits",
        doc: "QorCache hits (an insert that finds its key stored counts too)",
    },
    NameSchema {
        name: "flow.cache.misses",
        doc: "QorCache misses (one per insert that creates an entry)",
    },
    NameSchema {
        name: "faults.injected",
        doc: "injected faults (all modes)",
    },
    NameSchema {
        name: "faults.crash",
        doc: "injected tool crashes",
    },
    NameSchema {
        name: "faults.hang",
        doc: "injected hangs (inflated model hours)",
    },
    NameSchema {
        name: "faults.corrupt_qor",
        doc: "injected QoR corruptions",
    },
    NameSchema {
        name: "faults.timeouts",
        doc: "supervised runs over deadline",
    },
    NameSchema {
        name: "supervise.model_hours_mh",
        doc: "model hours consumed by supervised attempts, in integer \
              milli-hours (integer sums are exact and order-independent, \
              so budget alerts are bit-stable at any thread count)",
    },
    NameSchema {
        name: "faults.retries",
        doc: "supervisor retries",
    },
    NameSchema {
        name: "faults.kills",
        doc: "early-killed doomed runs",
    },
    NameSchema {
        name: "faults.censored_pulls",
        doc: "bandit pulls lost to faults",
    },
    NameSchema {
        name: "faults.failed_starts",
        doc: "multistart starts skipped",
    },
    NameSchema {
        name: "faults.gwtw_casualties",
        doc: "GWTW clones lost to faults",
    },
    NameSchema {
        name: "anneal.runs",
        doc: "annealing runs",
    },
    NameSchema {
        name: "gwtw.runs",
        doc: "GWTW campaigns",
    },
    NameSchema {
        name: "multistart.runs",
        doc: "multistart campaigns",
    },
    NameSchema {
        name: "bandit.pulls",
        doc: "bandit pulls",
    },
    NameSchema {
        name: "orchestrate.comparisons",
        doc: "orchestration comparisons",
    },
    NameSchema {
        name: "bench.iterations",
        doc: "bench harness iterations",
    },
    NameSchema {
        name: "queue.submitted",
        doc: "campaign submissions durably acked",
    },
    NameSchema {
        name: "queue.rejected",
        doc: "submissions shed by admission control (429)",
    },
    NameSchema {
        name: "queue.completed",
        doc: "campaigns that reached a terminal result",
    },
    NameSchema {
        name: "serve.requests",
        doc: "HTTP requests handled by the campaign daemon",
    },
];

/// Every **histogram** (`Journal::observe`, plus the `.secs` histograms
/// `Journal::time` and span close derive from their step/span names).
pub const HISTOGRAMS: &[NameSchema] = &[
    NameSchema {
        name: "flow.place.hpwl_um",
        doc: "post-place half-perimeter wirelength",
    },
    NameSchema {
        name: "flow.signoff.wns_ps",
        doc: "signoff worst negative slack",
    },
    NameSchema {
        name: "flow.run_physical.secs",
        doc: "wall time per physical run",
    },
    NameSchema {
        name: "anneal.best_cost",
        doc: "best cost per annealing run",
    },
    NameSchema {
        name: "gwtw.round.best",
        doc: "best cost per GWTW round",
    },
    NameSchema {
        name: "multistart.start.cost",
        doc: "cost per multistart start",
    },
    NameSchema {
        name: "bandit.reward",
        doc: "reward per bandit pull",
    },
    NameSchema {
        name: "bench.cost",
        doc: "bench harness cost samples",
    },
    NameSchema {
        name: "span.*.secs",
        doc: "wall time per span name (span close)",
    },
    NameSchema {
        name: "bench.*.secs",
        doc: "wall time per bench harness (Journal::time)",
    },
    NameSchema {
        name: "serve.request_ms",
        doc: "campaign-daemon HTTP request latency",
    },
];

/// Every **span name** (`Journal::span`). Span events themselves are
/// `span.open`/`span.close`; these are the allowed `name` field values.
pub const SPANS: &[NameSchema] = &[
    NameSchema {
        name: "flow.run_physical",
        doc: "whole physical pipeline",
    },
    NameSchema {
        name: "flow.floorplan",
        doc: "floorplan stage",
    },
    NameSchema {
        name: "flow.place",
        doc: "placement stage",
    },
    NameSchema {
        name: "flow.cts",
        doc: "clock-tree synthesis stage",
    },
    NameSchema {
        name: "flow.route",
        doc: "global route stage",
    },
    NameSchema {
        name: "flow.signoff",
        doc: "signoff stage",
    },
    NameSchema {
        name: "flow.detail_route",
        doc: "detailed route stage",
    },
    NameSchema {
        name: "anneal.run",
        doc: "one annealing run",
    },
    NameSchema {
        name: "gwtw.run",
        doc: "one GWTW campaign",
    },
    NameSchema {
        name: "gwtw.round",
        doc: "one GWTW round",
    },
    NameSchema {
        name: "multistart.run",
        doc: "one multistart campaign",
    },
    NameSchema {
        name: "bandit.run_sequential",
        doc: "sequential bandit run",
    },
    NameSchema {
        name: "bandit.run_concurrent",
        doc: "concurrent bandit run",
    },
    NameSchema {
        name: "orchestrate.compare",
        doc: "orchestration comparison",
    },
    NameSchema {
        name: "orchestrate.gwtw",
        doc: "GWTW half of the comparison",
    },
    NameSchema {
        name: "orchestrate.baseline",
        doc: "independent baseline half",
    },
    NameSchema {
        name: "parallel.section",
        doc: "executor parallel section",
    },
    NameSchema {
        name: "parallel.task",
        doc: "executor task body",
    },
];

/// Every **telemetry gauge** (`TelemetryRegistry::set_gauge`).
pub const GAUGES: &[NameSchema] = &[
    NameSchema {
        name: "exec.workers",
        doc: "configured executor workers",
    },
    NameSchema {
        name: "exec.workers_busy",
        doc: "workers currently running a task",
    },
    NameSchema {
        name: "exec.queue_depth",
        doc: "tasks pending in executor queues",
    },
    NameSchema {
        name: "exec.tasks",
        doc: "tasks run since pool start",
    },
    NameSchema {
        name: "campaign.round",
        doc: "latest completed campaign round (set at the round barrier)",
    },
    NameSchema {
        name: "campaign.best",
        doc: "best-so-far campaign cost",
    },
    NameSchema {
        name: "alert.active",
        doc: "1 while the named alert rule is firing, else 0 \
              (one labeled series per rule)",
    },
    NameSchema {
        name: "queue.depth",
        doc: "campaigns pending in the daemon queue",
    },
    NameSchema {
        name: "serve.running",
        doc: "campaigns currently claimed by daemon workers",
    },
];

/// Whether `name` matches `pattern`: exact, or a single `*` matching one
/// or more characters (`flow.step.*`, `span.*.secs`).
#[must_use]
pub fn matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        Some((prefix, suffix)) => {
            name.len() > prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
        }
        None => pattern == name,
    }
}

/// Looks up the schema for an event name. Exact entries win over
/// wildcards; among wildcards the longest prefix wins (`bench.*.secs`
/// is a histogram, not an event, so no ambiguity arises today).
#[must_use]
pub fn event_schema(name: &str) -> Option<&'static EventSchema> {
    EVENTS.iter().find(|s| s.name == name).or_else(|| {
        EVENTS
            .iter()
            .filter(|s| s.name.contains('*') && matches(s.name, name))
            .max_by_key(|s| s.name.len())
    })
}

fn known(names: &[NameSchema], name: &str) -> bool {
    names.iter().any(|s| matches(s.name, name))
}

/// Whether `name` is a declared counter.
#[must_use]
pub fn is_counter(name: &str) -> bool {
    known(COUNTERS, name)
}

/// Whether `name` is a declared histogram. `Journal::time(step, ..)`
/// and span close derive `<name>.secs` histograms, so any declared
/// timer-shaped event or span also admits its `.secs` histogram.
#[must_use]
pub fn is_histogram(name: &str) -> bool {
    known(HISTOGRAMS, name)
        || name
            .strip_suffix(".secs")
            .is_some_and(|base| known(SPANS, base) || event_schema(base).is_some())
}

/// Whether `name` is a declared span name.
#[must_use]
pub fn is_span(name: &str) -> bool {
    known(SPANS, name)
}

/// Whether `name` is a declared telemetry gauge.
#[must_use]
pub fn is_gauge(name: &str) -> bool {
    known(GAUGES, name)
}

/// A stable fingerprint of this build's registry: FNV-1a over every
/// declared event (name, field names, kinds, optionality, the
/// extra-fields flag) and every aggregate name, with section tags and
/// token separators so reorderings and splices hash differently. Two
/// builds agree on the hash iff they agree on the registry, so the
/// `journal.meta` header a file journal records pins the schema it was
/// written under.
#[must_use]
pub fn registry_hash() -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let eat = |h: &mut u64, token: &str| {
        for b in token.bytes().chain(std::iter::once(0)) {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(PRIME);
        }
    };
    for e in EVENTS {
        eat(&mut h, "event");
        eat(&mut h, e.name);
        for field in e.fields {
            eat(&mut h, field.name);
            eat(&mut h, field.kind.name());
            eat(&mut h, if field.optional { "opt" } else { "req" });
        }
        eat(&mut h, if e.extra_fields { "open" } else { "closed" });
    }
    for (section, names) in [
        ("counter", COUNTERS),
        ("histogram", HISTOGRAMS),
        ("span", SPANS),
        ("gauge", GAUGES),
    ] {
        for n in names {
            eat(&mut h, section);
            eat(&mut h, n.name);
        }
    }
    h
}

/// [`registry_hash`] as the fixed-width hex string carried by
/// `journal.meta` headers (u64 values can exceed the JSON int range
/// the vendored serde round-trips, so the wire format is a string).
#[must_use]
pub fn registry_hash_hex() -> String {
    format!("{:016x}", registry_hash())
}

/// Cross-version check for a recorded journal: compares the
/// `journal.meta` header (the first event of every file journal since
/// schema versioning landed) against this build's [`registry_hash`].
/// Pass the journal's first event, or `None` for an empty journal
/// (which warns like a headerless one — there is no hash to check).
/// Returns a human-readable warning when the corpus predates
/// versioning or was written under a different registry — the journal
/// still lints field by field, but field kinds and vocabularies may
/// have drifted, so replay/warm-start consumers should be told.
#[must_use]
pub fn version_warning(first: Option<&RunEvent>) -> Option<String> {
    let Some(event) = first else {
        return Some(
            "no journal.meta header (journal predates schema versioning); \
             registry hash not checked"
                .to_owned(),
        );
    };
    if event.step != "journal.meta" {
        return Some(
            "no journal.meta header (journal predates schema versioning); \
             registry hash not checked"
                .to_owned(),
        );
    }
    match event.payload.get("schema_hash") {
        Some(Value::Str(hash)) if *hash == registry_hash_hex() => None,
        Some(Value::Str(hash)) => Some(format!(
            "schema registry hash mismatch: journal written under {hash}, \
             this build is {} — cross-version corpus, field vocabularies \
             may have drifted",
            registry_hash_hex()
        )),
        _ => Some("journal.meta header carries no schema_hash".to_owned()),
    }
}

/// One finding from validating a recorded journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaDiagnostic {
    /// 1-based line number in the JSONL input (`ifjournal lint`: the
    /// record ordinal).
    pub line: usize,
    /// The event name the line carried (empty for parse failures).
    pub event: String,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for SchemaDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.event.is_empty() {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "line {}: [{}] {}", self.line, self.event, self.message)
        }
    }
}

/// Validates one event payload against its schema. Returns the problems
/// found (empty when conforming).
#[must_use]
pub fn lint_event(event: &RunEvent) -> Vec<String> {
    let Some(schema) = event_schema(&event.step) else {
        return vec![
            "unknown event (not in the trace schema registry; declare it in \
             crates/trace/src/schema.rs before emitting)"
                .to_owned(),
        ];
    };
    let mut problems = Vec::new();
    let Some(entries) = event.payload.as_object() else {
        return vec!["payload is not an object".to_owned()];
    };
    for spec in schema.fields {
        match entries.iter().find(|(k, _)| k == spec.name) {
            None if spec.optional => {}
            None => problems.push(format!("missing required field `{}`", spec.name)),
            Some((_, v)) if spec.optional && matches!(v, Value::Null) => {}
            Some((_, v)) if !spec.kind.admits(v) => problems.push(format!(
                "field `{}` should be {} (got {})",
                spec.name,
                spec.kind.name(),
                kind_of(v)
            )),
            Some(_) => {}
        }
    }
    if !schema.extra_fields {
        for (k, _) in entries {
            if !schema.fields.iter().any(|spec| spec.name == k) {
                problems.push(format!(
                    "unknown field `{k}` (misspelled? the registry declares: {})",
                    schema
                        .fields
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
    }
    // The summary's aggregate names are themselves schema-checked, so a
    // misspelled counter shows up when the journal is linted even though
    // the count() call only materializes here.
    if event.step == "journal.summary" {
        for (section, check) in [
            ("counters", is_counter as fn(&str) -> bool),
            ("histograms", is_histogram),
        ] {
            if let Some(obj) = event.payload.get(section).and_then(Value::as_object) {
                for (name, _) in obj {
                    if !check(name) {
                        problems.push(format!("unknown {section} entry `{name}`"));
                    }
                }
            }
        }
    }
    if event.step == "span.open" || event.step == "span.close" {
        if let Some(Value::Str(name)) = event.payload.get("name") {
            if !is_span(name) {
                problems.push(format!("unknown span name `{name}`"));
            }
        }
    }
    problems
}

fn kind_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) => "int",
        Value::Float(_) => "float",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

/// Validates a journal's JSONL rendering against the registry: every line
/// must parse as a [`RunEvent`] whose name, fields, and field kinds the
/// registry declares. Returns line-numbered diagnostics; empty means
/// the journal conforms and is safe to feed to `seed_from_journal`
/// warm-starts and checkpoint resume.
#[must_use]
pub fn lint_jsonl(text: &str) -> Vec<SchemaDiagnostic> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        match serde_json::from_str::<RunEvent>(line) {
            Err(e) => out.push(SchemaDiagnostic {
                line: lineno,
                event: String::new(),
                message: format!("malformed event line: {e}"),
            }),
            Ok(event) => {
                out.extend(
                    lint_event(&event)
                        .into_iter()
                        .map(|message| SchemaDiagnostic {
                            line: lineno,
                            event: event.step.clone(),
                            message,
                        }),
                )
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Journal;

    #[test]
    fn wildcard_matching() {
        assert!(matches("flow.step.*", "flow.step.place"));
        assert!(!matches("flow.step.*", "flow.step."));
        assert!(!matches("flow.step.*", "flow.sample"));
        assert!(matches("flow.sample", "flow.sample"));
    }

    #[test]
    fn exact_lookup_beats_wildcard() {
        assert_eq!(event_schema("flow.sample").unwrap().name, "flow.sample");
        assert_eq!(event_schema("flow.step.place").unwrap().name, "flow.step.*");
        assert!(event_schema("flow.nope").is_none());
    }

    #[test]
    fn derived_secs_histograms_are_known() {
        assert!(is_histogram("span.flow.place.secs"));
        assert!(is_histogram("bench.fig07_mab.secs"));
        assert!(is_histogram("flow.run_physical.secs"));
        assert!(!is_histogram("no.such.histogram"));
    }

    #[test]
    fn conforming_journal_lints_clean() {
        let j = Journal::in_memory("ok");
        j.emit(
            "bandit.pull",
            &[
                ("t", 0i64.into()),
                ("policy", "thompson".into()),
                ("arm", 1i64.into()),
                ("reward", 0.5.into()),
                ("cumulative_regret", 0.1.into()),
                ("posterior_means", serde::Value::Array(vec![0.5.into()])),
            ],
        );
        j.count("bandit.pulls", 1);
        j.observe("bandit.reward", 0.5);
        j.finish();
        let text = j.drain_lines().join("\n");
        let diags = lint_jsonl(&text);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_event_is_diagnosed_with_line() {
        let j = Journal::in_memory("bad");
        j.emit("flow.sample_typo", &[("sample", 1i64.into())]);
        let text = j.drain_lines().join("\n");
        let diags = lint_jsonl(&text);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[0].event, "flow.sample_typo");
        assert!(diags[0].message.contains("unknown event"), "{}", diags[0]);
    }

    #[test]
    fn misspelled_field_is_diagnosed() {
        let j = Journal::in_memory("bad");
        j.emit(
            "run.killed",
            &[
                ("sample", 3i64.into()),
                ("at_step", 2i64.into()),
                ("step", "route".into()),
                ("hours_savd", 1.5.into()), // misspelled
            ],
        );
        let text = j.drain_lines().join("\n");
        let diags = lint_jsonl(&text);
        let msgs: Vec<String> = diags.iter().map(ToString::to_string).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("missing required field `hours_saved`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("unknown field `hours_savd`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn wrong_kind_is_diagnosed() {
        let j = Journal::in_memory("bad");
        j.emit(
            "bandit.censored",
            &[
                ("t", 1i64.into()),
                ("policy", "ucb".into()),
                ("arm", "two".into()), // should be an int
            ],
        );
        let diags = lint_jsonl(&j.drain_lines().join("\n"));
        assert_eq!(diags.len(), 1);
        assert!(
            diags[0].message.contains("`arm` should be int"),
            "{}",
            diags[0]
        );
    }

    #[test]
    fn unknown_span_name_and_summary_counter_are_diagnosed() {
        let j = Journal::in_memory("bad");
        drop(j.span("not.a.span"));
        j.count("faults.typo_counter", 1);
        j.finish();
        let diags = lint_jsonl(&j.drain_lines().join("\n"));
        let msgs: Vec<String> = diags.iter().map(ToString::to_string).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("unknown span name `not.a.span`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("unknown counters entry `faults.typo_counter`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn malformed_line_is_diagnosed_with_number() {
        let diags = lint_jsonl("\n{not json}\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert!(diags[0].message.contains("malformed"), "{}", diags[0]);
    }

    #[test]
    fn registry_hash_is_stable_within_a_build() {
        assert_eq!(registry_hash(), registry_hash());
        assert_eq!(registry_hash_hex().len(), 16);
        assert!(registry_hash_hex().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn version_warning_flags_missing_and_mismatched_headers() {
        // No header at all: pre-versioning corpus.
        let j = Journal::in_memory("old");
        j.count("bandit.pulls", 1);
        j.finish();
        let events = crate::parse_jsonl(&j.drain_lines().join("\n")).unwrap();
        let warn = version_warning(events.first()).expect("headerless journal warns");
        assert!(warn.contains("no journal.meta header"), "{warn}");
        assert_eq!(version_warning(None), Some(warn));

        // A matching header is silent.
        let good = format!(
            "{{\"run_id\":\"v\",\"step\":\"journal.meta\",\"seq\":0,\
             \"payload\":{{\"schema_hash\":\"{}\",\"format\":2}}}}",
            registry_hash_hex()
        );
        let meta: RunEvent = serde_json::from_str(&good).unwrap();
        assert_eq!(version_warning(Some(&meta)), None);
        assert!(lint_jsonl(&good).is_empty(), "{:?}", lint_jsonl(&good));

        // A stale hash is a cross-version warning naming both hashes.
        let stale = good.replace(&registry_hash_hex(), "00000000deadbeef");
        let stale: RunEvent = serde_json::from_str(&stale).unwrap();
        let warn = version_warning(Some(&stale)).expect("stale hash warns");
        assert!(warn.contains("00000000deadbeef"), "{warn}");
        assert!(warn.contains(&registry_hash_hex()), "{warn}");
    }

    #[test]
    fn every_registry_name_is_well_formed() {
        for e in EVENTS {
            assert!(!e.name.is_empty());
            assert!(
                !e.name.contains(' '),
                "event names are dot-separated tokens: {}",
                e.name
            );
        }
        // No event is shadowed by an earlier duplicate.
        for (i, a) in EVENTS.iter().enumerate() {
            for b in &EVENTS[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate registry entry");
            }
        }
    }
}

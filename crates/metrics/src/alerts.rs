//! Deterministic campaign alerting over the live [`TelemetryRegistry`].
//!
//! A multi-day GWTW/bandit campaign needs something that *watches* the
//! metrics the instrumented flow already reports — "this run is burning
//! its model-hour budget", "the fault-retry rate just spiked", "best
//! QoR has not moved in five rounds" — without a human polling
//! `/metrics`. This module is that watcher: a declarative [`AlertRule`]
//! set evaluated by an [`AlertEngine`] against the registry on a
//! *seeded tick* (the caller ticks at deterministic points, e.g. the
//! GWTW round barrier — never on wall clock), with every fired/resolved
//! transition journaled as `alert.fired` / `alert.resolved` events and
//! mirrored into `alert.active{rule=…}` gauges.
//!
//! # Determinism
//!
//! The transition sequence for a fixed-seed campaign is bit-identical
//! at any thread count because every rule reads order-independent
//! state:
//!
//! - **budget** rules read the `supervise.model_hours_mh` counter —
//!   integer milli-hours, whose parallel sum is exact;
//! - **percentile** rules read the log-bin quantile estimates, which
//!   depend only on integer bin counts, not sample order;
//! - **rate** rules divide two integer counters;
//! - **stall** rules read the `campaign.round` / `campaign.best`
//!   gauges, set from the single-threaded round loop.
//!
//! Float-summed aggregates (histogram `sum`, `mean`) are deliberately
//! not rule inputs: their low bits depend on reduction order.

use std::sync::Arc;

use ideaflow_trace::{Journal, TelemetryRegistry};
use parking_lot::Mutex;
use serde::Value;

/// The counter a [`AlertKind::Budget`] rule reads: integer milli-model-
/// hours accumulated by `flow::supervise` deadline accounting.
pub const BUDGET_COUNTER: &str = "supervise.model_hours_mh";

/// What a rule measures.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertKind {
    /// A registry counter's value.
    Counter {
        /// Counter name (journal vocabulary, e.g. `faults.injected`).
        metric: String,
    },
    /// A registry gauge's value.
    Gauge {
        /// Gauge name (e.g. `exec.queue_depth`).
        metric: String,
    },
    /// A histogram quantile estimate (log-bin, order-independent).
    Percentile {
        /// Histogram name (e.g. `span.flow.place.secs`).
        metric: String,
        /// Quantile: `0.5` or `0.95` (the two the summaries expose).
        q: f64,
    },
    /// Model-hours consumed, in hours ([`BUDGET_COUNTER`] / 1000).
    Budget,
    /// Ticks since `campaign.best` last improved.
    Stall,
    /// Ratio of two counters (`numerator / denominator`).
    Rate {
        /// Numerator counter (e.g. `faults.retries`).
        numerator: String,
        /// Denominator counter (e.g. `flow.samples`).
        denominator: String,
    },
}

impl AlertKind {
    /// Stable kind tag used in journal events and `/alerts` JSON.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            AlertKind::Counter { .. } => "counter",
            AlertKind::Gauge { .. } => "gauge",
            AlertKind::Percentile { .. } => "percentile",
            AlertKind::Budget => "budget",
            AlertKind::Stall => "stall",
            AlertKind::Rate { .. } => "rate",
        }
    }
}

/// Threshold comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Fire when `value > threshold`.
    Gt,
    /// Fire when `value >= threshold`.
    Ge,
    /// Fire when `value < threshold`.
    Lt,
    /// Fire when `value <= threshold`.
    Le,
}

impl Cmp {
    /// Whether `value` crosses `threshold` under this comparison.
    #[must_use]
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
        }
    }

    /// The operator as written in rules files and JSON.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            ">" => Some(Cmp::Gt),
            ">=" => Some(Cmp::Ge),
            "<" => Some(Cmp::Lt),
            "<=" => Some(Cmp::Le),
            _ => None,
        }
    }
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name: unique, label-safe (`[A-Za-z0-9_.-]`), used as the
    /// `rule` label of the `alert.active` gauge and in journal events.
    pub name: String,
    /// What the rule measures.
    pub kind: AlertKind,
    /// How the measured value is compared to `threshold`.
    pub cmp: Cmp,
    /// The firing threshold (hours for budget rules, ticks for stall
    /// rules, a ratio for rate rules).
    pub threshold: f64,
}

impl AlertRule {
    /// A model-hour budget rule: fires once the campaign has consumed
    /// at least `budget_hours` of supervised model time.
    #[must_use]
    pub fn budget(name: &str, budget_hours: f64) -> Self {
        Self {
            name: name.to_owned(),
            kind: AlertKind::Budget,
            cmp: Cmp::Ge,
            threshold: budget_hours,
        }
    }

    /// A stall rule: fires when `campaign.best` has not improved for
    /// at least `rounds` engine ticks.
    #[must_use]
    pub fn stall(name: &str, rounds: u64) -> Self {
        Self {
            name: name.to_owned(),
            kind: AlertKind::Stall,
            cmp: Cmp::Ge,
            threshold: rounds as f64,
        }
    }
}

/// One fired/resolved state change, in engine-tick order.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// The tick the transition happened on (1-based).
    pub tick: u64,
    /// The rule that transitioned.
    pub rule: String,
    /// `true` for fired, `false` for resolved.
    pub fired: bool,
    /// The measured value at transition time.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

#[derive(Debug, Default)]
struct RuleState {
    firing: bool,
    /// Tick the rule last fired on (while firing).
    since: u64,
    /// Stall bookkeeping: best `campaign.best` seen and the tick it
    /// improved on.
    stall_best: Option<f64>,
    stall_best_tick: u64,
}

struct EngineState {
    rules: Vec<(AlertRule, RuleState)>,
    tick: u64,
    transitions: Vec<AlertTransition>,
}

/// The alert evaluator: ticked explicitly at deterministic campaign
/// points, journaling transitions and mirroring active-state gauges.
/// Cheap to clone; clones share one engine.
#[derive(Clone)]
pub struct AlertEngine {
    registry: TelemetryRegistry,
    journal: Journal,
    state: Arc<Mutex<EngineState>>,
}

impl AlertEngine {
    /// An engine evaluating `rules` against `registry`. Transitions are
    /// not journaled until a journal is attached with
    /// [`AlertEngine::with_journal`].
    #[must_use]
    pub fn new(rules: Vec<AlertRule>, registry: TelemetryRegistry) -> Self {
        Self {
            registry,
            journal: Journal::disabled(),
            state: Arc::new(Mutex::new(EngineState {
                rules: rules
                    .into_iter()
                    .map(|r| (r, RuleState::default()))
                    .collect(),
                tick: 0,
                transitions: Vec::new(),
            })),
        }
    }

    /// Attaches the journal that records `alert.fired` /
    /// `alert.resolved` events (builder style).
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// The registry the engine evaluates against.
    #[must_use]
    pub fn registry(&self) -> &TelemetryRegistry {
        &self.registry
    }

    /// Evaluates every rule once. Rules whose input metric does not
    /// exist yet are skipped (no transition either way). Returns the
    /// transitions this tick produced, in rule order.
    pub fn tick(&self) -> Vec<AlertTransition> {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        let mut fresh = Vec::new();
        for (rule, rs) in &mut st.rules {
            let Some(value) = evaluate(&self.registry, rule, rs, tick) else {
                continue;
            };
            let active = rule.cmp.holds(value, rule.threshold);
            if active != rs.firing {
                rs.firing = active;
                if active {
                    rs.since = tick;
                }
                let t = AlertTransition {
                    tick,
                    rule: rule.name.clone(),
                    fired: active,
                    value,
                    threshold: rule.threshold,
                };
                self.journal.emit(
                    if active {
                        "alert.fired"
                    } else {
                        "alert.resolved"
                    },
                    &[
                        ("rule", Value::Str(rule.name.clone())),
                        ("kind", Value::Str(rule.kind.tag().to_owned())),
                        ("value", Value::Float(value)),
                        ("threshold", Value::Float(rule.threshold)),
                        ("tick", Value::Int(tick as i64)),
                    ],
                );
                fresh.push(t);
            }
            self.registry.set_gauge_labeled(
                "alert.active",
                &format!("rule=\"{}\"", rule.name),
                if rs.firing { 1.0 } else { 0.0 },
            );
        }
        st.transitions.extend(fresh.iter().cloned());
        fresh
    }

    /// Every transition recorded so far, in tick order.
    #[must_use]
    pub fn transitions(&self) -> Vec<AlertTransition> {
        self.state.lock().transitions.clone()
    }

    /// The transition log as stable text, one line per transition —
    /// the byte-comparable artifact the 1-vs-4-thread determinism
    /// tests diff.
    #[must_use]
    pub fn transitions_text(&self) -> String {
        self.transitions()
            .iter()
            .map(|t| {
                format!(
                    "tick {} {} {} value={} threshold={}\n",
                    t.tick,
                    if t.fired { "FIRED" } else { "RESOLVED" },
                    t.rule,
                    t.value,
                    t.threshold
                )
            })
            .collect()
    }

    /// Names of the rules currently firing, in rule order.
    #[must_use]
    pub fn active(&self) -> Vec<String> {
        self.state
            .lock()
            .rules
            .iter()
            .filter(|(_, rs)| rs.firing)
            .map(|(r, _)| r.name.clone())
            .collect()
    }

    /// The `/alerts` JSON document: the engine tick plus one object
    /// per rule with its current state. Deterministic for a given
    /// engine state (rule order is declaration order).
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let st = self.state.lock();
        let alerts: Vec<Value> = st
            .rules
            .iter()
            .map(|(rule, rs)| {
                Value::Object(vec![
                    ("rule".to_owned(), Value::Str(rule.name.clone())),
                    ("kind".to_owned(), Value::Str(rule.kind.tag().to_owned())),
                    ("op".to_owned(), Value::Str(rule.cmp.symbol().to_owned())),
                    ("threshold".to_owned(), Value::Float(rule.threshold)),
                    ("active".to_owned(), Value::Bool(rs.firing)),
                    (
                        "since_tick".to_owned(),
                        if rs.firing {
                            Value::Int(rs.since as i64)
                        } else {
                            Value::Null
                        },
                    ),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("tick".to_owned(), Value::Int(st.tick as i64)),
            (
                "firing".to_owned(),
                Value::Int(st.rules.iter().filter(|(_, rs)| rs.firing).count() as i64),
            ),
            ("alerts".to_owned(), Value::Array(alerts)),
        ]);
        serde_json::to_string_pretty(&doc).expect("alert snapshots are serializable")
    }
}

/// Measures one rule. `None` means the input metric has no data yet.
fn evaluate(
    registry: &TelemetryRegistry,
    rule: &AlertRule,
    rs: &mut RuleState,
    tick: u64,
) -> Option<f64> {
    match &rule.kind {
        AlertKind::Counter { metric } => registry.counter_value(metric).map(|v| v as f64),
        AlertKind::Gauge { metric } => registry.gauge_value(metric),
        AlertKind::Percentile { metric, q } => {
            let s = registry.histogram_stats(metric)?;
            Some(if *q <= 0.5 { s.p50 } else { s.p95 })
        }
        AlertKind::Budget => registry
            .counter_value(BUDGET_COUNTER)
            .map(|mh| mh as f64 / 1000.0),
        AlertKind::Stall => {
            let best = registry.gauge_value("campaign.best")?;
            // First observation, or an improvement: reset the clock.
            if rs.stall_best.is_none_or(|b| best < b) {
                rs.stall_best = Some(best);
                rs.stall_best_tick = tick;
            }
            Some((tick - rs.stall_best_tick) as f64)
        }
        AlertKind::Rate {
            numerator,
            denominator,
        } => {
            let den = registry.counter_value(denominator)?;
            if den == 0 {
                return None;
            }
            let num = registry.counter_value(numerator).unwrap_or(0);
            Some(num as f64 / den as f64)
        }
    }
}

/// Parses a `[[alert]]` rules file (the same hand-rolled TOML subset
/// as `ifcheck`'s allowlist: string values double-quoted, numbers
/// bare). Example:
///
/// ```toml
/// [[alert]]
/// name = "model-hour-budget"
/// kind = "budget"
/// budget_hours = 40.0
///
/// [[alert]]
/// name = "retry-rate"
/// kind = "rate"
/// numerator = "faults.retries"
/// denominator = "flow.samples"
/// op = ">"
/// threshold = 0.25
/// ```
///
/// Per kind: `counter`/`gauge` need `metric`, `op`, `threshold`;
/// `percentile` additionally `q` (0.5 or 0.95); `budget` needs only
/// `budget_hours`; `stall` only `rounds`; `rate` needs `numerator`,
/// `denominator`, `op`, `threshold`.
///
/// # Errors
///
/// Returns a line-numbered message for malformed input, unknown keys,
/// invalid kinds/operators, or duplicate rule names.
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, String> {
    #[derive(Default)]
    struct Raw {
        line: usize,
        name: Option<String>,
        kind: Option<String>,
        metric: Option<String>,
        op: Option<String>,
        threshold: Option<f64>,
        q: Option<f64>,
        budget_hours: Option<f64>,
        rounds: Option<f64>,
        numerator: Option<String>,
        denominator: Option<String>,
    }

    let mut raws: Vec<Raw> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[alert]]" {
            raws.push(Raw {
                line: lineno,
                ..Raw::default()
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {lineno}: only [[alert]] tables are supported, got {line}"
            ));
        }
        let Some(entry) = raws.last_mut() else {
            return Err(format!("line {lineno}: key outside an [[alert]] table"));
        };
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let value = value.trim();
        let string = |v: &str| -> Result<String, String> {
            v.strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .map(str::to_owned)
                .ok_or_else(|| format!("line {lineno}: `{}` must be a quoted string", key.trim()))
        };
        let number = |v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("line {lineno}: `{}` must be a finite number", key.trim()))
        };
        match key.trim() {
            "name" => entry.name = Some(string(value)?),
            "kind" => entry.kind = Some(string(value)?),
            "metric" => entry.metric = Some(string(value)?),
            "op" => entry.op = Some(string(value)?),
            "numerator" => entry.numerator = Some(string(value)?),
            "denominator" => entry.denominator = Some(string(value)?),
            "threshold" => entry.threshold = Some(number(value)?),
            "q" => entry.q = Some(number(value)?),
            "budget_hours" => entry.budget_hours = Some(number(value)?),
            "rounds" => entry.rounds = Some(number(value)?),
            other => return Err(format!("line {lineno}: unknown key `{other}`")),
        }
    }

    let mut rules = Vec::new();
    for raw in raws {
        let at = raw.line;
        let name = raw
            .name
            .ok_or_else(|| format!("line {at}: [[alert]] entry is missing `name`"))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        {
            return Err(format!(
                "line {at}: rule name `{name}` must be non-empty and label-safe \
                 ([A-Za-z0-9_.-], it becomes a Prometheus label value)"
            ));
        }
        if rules.iter().any(|r: &AlertRule| r.name == name) {
            return Err(format!("line {at}: duplicate rule name `{name}`"));
        }
        let kind_tag = raw
            .kind
            .ok_or_else(|| format!("line {at}: [[alert]] entry is missing `kind`"))?;
        let cmp_of = |op: Option<String>| -> Result<Cmp, String> {
            let op = op.ok_or_else(|| format!("line {at}: rule `{name}` is missing `op`"))?;
            Cmp::parse(&op)
                .ok_or_else(|| format!("line {at}: bad op `{op}` (expected >, >=, <, <=)"))
        };
        let threshold_of = |t: Option<f64>| -> Result<f64, String> {
            t.ok_or_else(|| format!("line {at}: rule `{name}` is missing `threshold`"))
        };
        let metric_of = |m: Option<String>| -> Result<String, String> {
            m.ok_or_else(|| format!("line {at}: rule `{name}` is missing `metric`"))
        };
        let rule = match kind_tag.as_str() {
            "counter" => AlertRule {
                kind: AlertKind::Counter {
                    metric: metric_of(raw.metric)?,
                },
                cmp: cmp_of(raw.op)?,
                threshold: threshold_of(raw.threshold)?,
                name,
            },
            "gauge" => AlertRule {
                kind: AlertKind::Gauge {
                    metric: metric_of(raw.metric)?,
                },
                cmp: cmp_of(raw.op)?,
                threshold: threshold_of(raw.threshold)?,
                name,
            },
            "percentile" => {
                let q = raw
                    .q
                    .ok_or_else(|| format!("line {at}: rule `{name}` is missing `q`"))?;
                if q != 0.5 && q != 0.95 {
                    return Err(format!(
                        "line {at}: q must be 0.5 or 0.95 (the quantiles the \
                         log-bin summaries expose), got {q}"
                    ));
                }
                AlertRule {
                    kind: AlertKind::Percentile {
                        metric: metric_of(raw.metric)?,
                        q,
                    },
                    cmp: cmp_of(raw.op)?,
                    threshold: threshold_of(raw.threshold)?,
                    name,
                }
            }
            "budget" => {
                let hours = raw
                    .budget_hours
                    .ok_or_else(|| format!("line {at}: rule `{name}` is missing `budget_hours`"))?;
                if hours <= 0.0 {
                    return Err(format!(
                        "line {at}: `budget_hours` must be positive, got {hours}"
                    ));
                }
                AlertRule::budget(&name, hours)
            }
            "stall" => {
                let rounds = raw
                    .rounds
                    .ok_or_else(|| format!("line {at}: rule `{name}` is missing `rounds`"))?;
                if rounds < 1.0 || rounds.fract() != 0.0 {
                    return Err(format!(
                        "line {at}: `rounds` must be a positive integer, got {rounds}"
                    ));
                }
                AlertRule::stall(&name, rounds as u64)
            }
            "rate" => AlertRule {
                kind: AlertKind::Rate {
                    numerator: raw.numerator.ok_or_else(|| {
                        format!("line {at}: rule `{name}` is missing `numerator`")
                    })?,
                    denominator: raw.denominator.ok_or_else(|| {
                        format!("line {at}: rule `{name}` is missing `denominator`")
                    })?,
                },
                cmp: cmp_of(raw.op)?,
                threshold: threshold_of(raw.threshold)?,
                name,
            },
            other => {
                return Err(format!(
                    "line {at}: unknown kind `{other}` (expected counter, gauge, \
                     percentile, budget, stall, rate)"
                ))
            }
        };
        rules.push(rule);
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rule_fires_and_resolves_with_hysteresis_free_threshold() {
        let reg = TelemetryRegistry::new();
        let journal = Journal::in_memory("alerts");
        let engine = AlertEngine::new(
            vec![AlertRule {
                name: "queue".to_owned(),
                kind: AlertKind::Gauge {
                    metric: "exec.queue_depth".to_owned(),
                },
                cmp: Cmp::Gt,
                threshold: 5.0,
            }],
            reg.clone(),
        )
        .with_journal(journal.clone());

        // No data yet: no transition, not even a gauge.
        assert!(engine.tick().is_empty());
        reg.set_gauge("exec.queue_depth", 3.0);
        assert!(engine.tick().is_empty(), "below threshold");
        reg.set_gauge("exec.queue_depth", 9.0);
        let fired = engine.tick();
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
        assert_eq!(fired[0].tick, 3);
        assert_eq!(engine.active(), vec!["queue".to_owned()]);
        assert_eq!(reg.gauge_value("alert.active{rule=\"queue\"}"), Some(1.0));

        reg.set_gauge("exec.queue_depth", 0.0);
        let resolved = engine.tick();
        assert_eq!(resolved.len(), 1);
        assert!(!resolved[0].fired);
        assert!(engine.active().is_empty());
        assert_eq!(reg.gauge_value("alert.active{rule=\"queue\"}"), Some(0.0));

        let lines = journal.drain_lines().join("\n");
        assert!(lines.contains("alert.fired"), "{lines}");
        assert!(lines.contains("alert.resolved"), "{lines}");
        let diags = ideaflow_trace::schema::lint_jsonl(&lines);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn budget_rule_reads_integer_milli_hours() {
        let reg = TelemetryRegistry::new();
        let engine = AlertEngine::new(vec![AlertRule::budget("budget", 2.0)], reg.clone());
        reg.inc_counter(BUDGET_COUNTER, 1500);
        assert!(engine.tick().is_empty(), "1.5h < 2h");
        reg.inc_counter(BUDGET_COUNTER, 600);
        let t = engine.tick();
        assert_eq!(t.len(), 1);
        assert!(t[0].fired);
        assert_eq!(t[0].value, 2.1);
        // Budget alerts never resolve on their own: hours only grow.
        assert!(engine.tick().is_empty());
        assert_eq!(engine.active(), vec!["budget".to_owned()]);
    }

    #[test]
    fn stall_rule_tracks_rounds_since_best_improved() {
        let reg = TelemetryRegistry::new();
        let engine = AlertEngine::new(vec![AlertRule::stall("stall", 2)], reg.clone());
        reg.set_gauge("campaign.best", 10.0);
        assert!(engine.tick().is_empty(), "tick 1: fresh best");
        reg.set_gauge("campaign.best", 8.0);
        assert!(engine.tick().is_empty(), "tick 2: improved");
        assert!(engine.tick().is_empty(), "tick 3: one stalled round");
        let t = engine.tick();
        assert_eq!(t.len(), 1, "tick 4: two stalled rounds >= 2");
        assert!(t[0].fired);
        reg.set_gauge("campaign.best", 7.5);
        let t = engine.tick();
        assert_eq!(t.len(), 1, "improvement resolves the stall");
        assert!(!t[0].fired);
    }

    #[test]
    fn rate_rule_divides_counters_and_waits_for_data() {
        let reg = TelemetryRegistry::new();
        let engine = AlertEngine::new(
            vec![AlertRule {
                name: "retry-rate".to_owned(),
                kind: AlertKind::Rate {
                    numerator: "faults.retries".to_owned(),
                    denominator: "flow.samples".to_owned(),
                },
                cmp: Cmp::Gt,
                threshold: 0.5,
            }],
            reg.clone(),
        );
        assert!(engine.tick().is_empty(), "no denominator yet");
        reg.inc_counter("flow.samples", 4);
        reg.inc_counter("faults.retries", 3);
        let t = engine.tick();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].value, 0.75);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_complete() {
        let reg = TelemetryRegistry::new();
        let engine = AlertEngine::new(
            vec![
                AlertRule::budget("budget", 1.0),
                AlertRule::stall("stall", 3),
            ],
            reg.clone(),
        );
        reg.inc_counter(BUDGET_COUNTER, 1200);
        engine.tick();
        let json = engine.snapshot_json();
        assert_eq!(json, engine.snapshot_json(), "stable between reads");
        assert!(json.contains("\"tick\": 1"), "{json}");
        assert!(json.contains("\"firing\": 1"), "{json}");
        assert!(json.contains("\"rule\": \"budget\""), "{json}");
        assert!(json.contains("\"active\": true"), "{json}");
        assert!(json.contains("\"since_tick\": 1"), "{json}");
        assert!(json.contains("\"rule\": \"stall\""), "{json}");
    }

    #[test]
    fn rules_file_round_trips() {
        let text = r#"
# campaign guardrails
[[alert]]
name = "model-hour-budget"
kind = "budget"
budget_hours = 40.0

[[alert]]
name = "retry-rate"
kind = "rate"
numerator = "faults.retries"
denominator = "flow.samples"
op = ">"
threshold = 0.25

[[alert]]
name = "stalled"
kind = "stall"
rounds = 3

[[alert]]
name = "p95-place"
kind = "percentile"
metric = "span.flow.place.secs"
q = 0.95
op = ">"
threshold = 10.0

[[alert]]
name = "faults"
kind = "counter"
metric = "faults.injected"
op = ">="
threshold = 100
"#;
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules.len(), 5);
        assert_eq!(rules[0], AlertRule::budget("model-hour-budget", 40.0));
        assert_eq!(rules[2], AlertRule::stall("stalled", 3));
        assert_eq!(
            rules[3].kind,
            AlertKind::Percentile {
                metric: "span.flow.place.secs".to_owned(),
                q: 0.95
            }
        );
        assert_eq!(rules[4].cmp, Cmp::Ge);
    }

    #[test]
    fn rules_file_rejects_malformed_entries() {
        for (text, needle) in [
            ("[[alert]]\nkind = \"budget\"\nbudget_hours = 1\n", "missing `name`"),
            ("[[alert]]\nname = \"x\"\n", "missing `kind`"),
            ("[[alert]]\nname = \"x\"\nkind = \"frob\"\n", "unknown kind"),
            (
                "[[alert]]\nname = \"x\"\nkind = \"counter\"\nmetric = \"c\"\nop = \"=\"\nthreshold = 1\n",
                "bad op",
            ),
            (
                "[[alert]]\nname = \"x\"\nkind = \"percentile\"\nmetric = \"h\"\nq = 0.9\nop = \">\"\nthreshold = 1\n",
                "q must be 0.5 or 0.95",
            ),
            (
                "[[alert]]\nname = \"has space\"\nkind = \"budget\"\nbudget_hours = 1\n",
                "label-safe",
            ),
            (
                "[[alert]]\nname = \"x\"\nkind = \"budget\"\nbudget_hours = 1\n[[alert]]\nname = \"x\"\nkind = \"stall\"\nrounds = 2\n",
                "duplicate rule name",
            ),
            ("threshold = 1\n", "outside an [[alert]] table"),
            ("[frob]\n", "only [[alert]] tables"),
            (
                "[[alert]]\nname = \"x\"\nkind = \"gauge\"\nmetric = \"g\"\nop = \">\"\nthreshold = nan\n",
                "line 6: `threshold` must be a finite number",
            ),
            (
                "[[alert]]\nname = \"x\"\nkind = \"counter\"\nmetric = \"c\"\nop = \"<\"\nthreshold = -inf\n",
                "line 6: `threshold` must be a finite number",
            ),
            (
                "[[alert]]\nname = \"x\"\nkind = \"budget\"\nbudget_hours = inf\n",
                "line 4: `budget_hours` must be a finite number",
            ),
            (
                "[[alert]]\nname = \"x\"\nkind = \"budget\"\nbudget_hours = -1\n",
                "line 1: `budget_hours` must be positive",
            ),
            (
                "[[alert]]\nname = \"x\"\nkind = \"budget\"\nbudget_hours = 0\n",
                "line 1: `budget_hours` must be positive",
            ),
            (
                "[[alert]]\nname = \"x\"\nkind = \"stall\"\nrounds = NaN\n",
                "line 4: `rounds` must be a finite number",
            ),
        ] {
            let err = parse_rules(text).unwrap_err();
            assert!(err.contains(needle), "`{needle}` not in `{err}`");
        }
    }

    /// Number spellings for generated rules files: finite, non-finite,
    /// out of range, and not a number.
    const NUMBERS: &[&str] = &[
        "1", "0.5", "0.95", "-1", "0", "nan", "inf", "-inf", "1e309", "x",
    ];
    const KINDS: &[&str] = &[
        "counter",
        "gauge",
        "percentile",
        "budget",
        "stall",
        "rate",
        "?",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// On any text, the parser answers `Ok` or `Err` without
        /// panicking, and every rule it accepts has a finite threshold
        /// (a positive one, for budgets). Inputs are generated rules
        /// files, random text, or both spliced together.
        #[test]
        fn parse_rules_never_panics(
            kinds in proptest::collection::vec(0..KINDS.len(), 0..4),
            numbers in proptest::collection::vec(0..2 * NUMBERS.len(), 4),
            noise in "[ -~\n]{0,24}",
            at in 0usize..2048,
        ) {
            let [t, b, r, q] = [0, 1, 2, 3].map(|i| *NUMBERS.get(numbers[i]).unwrap_or(&"2"));
            let mut text = String::new();
            for (i, &k) in kinds.iter().enumerate() {
                text += &format!(
                    "[[alert]]\nname = \"r{i}\"\nkind = \"{}\"\nmetric = \"m\"\nop = \">\"\n\
                     numerator = \"a\"\ndenominator = \"b\"\nthreshold = {t}\n\
                     budget_hours = {b}\nrounds = {r}\nq = {q}\n",
                    KINDS[k]
                );
            }
            // Half the cases splice the random text in (all of the text,
            // when no entries were generated).
            if at < 1024 {
                text.insert_str(at.min(text.len()), &noise);
            }
            if let Ok(rules) = parse_rules(&text) {
                for rule in rules {
                    proptest::prop_assert!(rule.threshold.is_finite());
                    if rule.kind == AlertKind::Budget {
                        proptest::prop_assert!(rule.threshold > 0.0);
                    }
                }
            }
        }
    }
}

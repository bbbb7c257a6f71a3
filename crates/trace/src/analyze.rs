//! Journal analysis: the text renderings behind the `ifjournal` CLI.
//!
//! Each view is a streaming **builder** that folds one [`RunEvent`] at
//! a time, so multi-GB corpora render in O(state) memory — feed it from
//! a [`crate::EventStream`]:
//!
//! - [`SummaryBuilder`]: per-step event counts and numeric-field stats;
//! - [`tail_render`]: the last N events, as selected by
//!   [`crate::codec::tail_events`];
//! - [`diff_summaries`]: per-step/field mean deltas between two
//!   journals — the run-to-run comparison the paper's §3.3 METRICS loop
//!   needs to spot regressions across tool runs;
//! - [`SpanCollector`]: span events folded into `a;b;c <self-µs>`
//!   stacks, the input format of standard flamegraph tooling, or into
//!   per-thread accounting;
//! - [`FailureLedger`]: every way a campaign degraded without dying;
//! - [`WatchState`]: the rolling live-tail status line.

use crate::reader::StepSummary;
use crate::stats::Histogram;
use crate::RunEvent;
use serde::Value;

/// Streaming per-step summary: counts and numeric-field histograms,
/// folded one event at a time.
#[derive(Default)]
pub struct SummaryBuilder {
    events: usize,
    runs: Vec<String>,
    /// (step, count, per-field histograms), in first-seen order.
    steps: Vec<StepAcc>,
}

/// One step's accumulator: `(step, count, per-field histograms)`.
type StepAcc = (String, usize, Vec<(String, Histogram)>);

impl SummaryBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event in.
    pub fn ingest(&mut self, e: &RunEvent) {
        self.events += 1;
        if !self.runs.iter().any(|r| r == &e.run_id) {
            self.runs.push(e.run_id.clone());
        }
        let idx = match self.steps.iter().position(|(s, ..)| *s == e.step) {
            Some(i) => i,
            None => {
                self.steps.push((e.step.clone(), 0, Vec::new()));
                self.steps.len() - 1
            }
        };
        let (_, count, fields) = &mut self.steps[idx];
        *count += 1;
        if let Some(obj) = e.payload.as_object() {
            for (k, v) in obj {
                let x = match v {
                    Value::Float(f) => *f,
                    Value::Int(i) => *i as f64,
                    _ => continue,
                };
                match fields.iter_mut().find(|(n, _)| n == k) {
                    Some((_, h)) => h.record(x),
                    None => {
                        let mut h = Histogram::new();
                        h.record(x);
                        fields.push((k.clone(), h));
                    }
                }
            }
        }
    }

    /// Total events folded so far.
    #[must_use]
    pub fn events(&self) -> usize {
        self.events
    }

    /// Distinct run ids seen, in first-seen order.
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The per-step summaries, sorted by step name.
    #[must_use]
    pub fn summaries(&self) -> Vec<StepSummary> {
        let mut steps: Vec<&StepAcc> = self.steps.iter().collect();
        steps.sort_by(|a, b| a.0.cmp(&b.0));
        steps
            .into_iter()
            .map(|(step, count, fields)| StepSummary {
                step: step.clone(),
                count: *count,
                fields: fields.iter().map(|(n, h)| (n.clone(), h.stats())).collect(),
            })
            .collect()
    }

    /// Renders the aligned summary table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let runs = self.run_count();
        out.push_str(&format!(
            "{} events, {} run{}\n\n",
            self.events,
            runs,
            if runs == 1 { "" } else { "s" }
        ));
        out.push_str(&format!(
            "{:<24} {:>6}  {}\n",
            "step", "count", "fields (mean / p95)"
        ));
        for s in self.summaries() {
            let fields: Vec<String> = s
                .fields
                .iter()
                .map(|(name, st)| {
                    let flag = if st.negatives > 0 { "!" } else { "" };
                    format!("{name}={} /{}{flag}", short(st.mean), short(st.p95))
                })
                .collect();
            out.push_str(&format!(
                "{:<24} {:>6}  {}\n",
                s.step,
                s.count,
                fields.join("  ")
            ));
        }
        out
    }
}

/// Renders already-selected tail events, one aligned line each.
#[must_use]
pub fn tail_render<'a>(events: impl IntoIterator<Item = &'a RunEvent>) -> String {
    let mut out = String::new();
    for e in events {
        let payload = render_payload(&e.payload);
        out.push_str(&format!("{:>6}  {:<24} {payload}\n", e.seq, e.step));
    }
    out
}

/// Per-step, per-field comparison of two journals' summaries: count
/// deltas and mean deltas (with percentage where defined). Steps present
/// in only one journal are flagged. Sorted by step for stable output.
/// Building each side with a [`SummaryBuilder`] diffs two journals
/// without holding either one's events in memory.
#[must_use]
pub fn diff_summaries(sa: &[StepSummary], sb: &[StepSummary]) -> String {
    let mut steps: Vec<&str> = sa
        .iter()
        .map(|s| s.step.as_str())
        .chain(sb.iter().map(|s| s.step.as_str()))
        .collect();
    steps.sort_unstable();
    steps.dedup();

    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>9} {:>9}  {}\n",
        "step", "count a", "count b", "field mean a -> b (delta)"
    ));
    for step in steps {
        let fa = sa.iter().find(|s| s.step == step);
        let fb = sb.iter().find(|s| s.step == step);
        match (fa, fb) {
            (Some(x), None) => {
                out.push_str(&format!(
                    "{:<24} {:>9} {:>9}  only in a\n",
                    step, x.count, "-"
                ));
            }
            (None, Some(y)) => {
                out.push_str(&format!(
                    "{:<24} {:>9} {:>9}  only in b\n",
                    step, "-", y.count
                ));
            }
            (Some(x), Some(y)) => {
                let mut cells: Vec<String> = Vec::new();
                for (name, stx) in &x.fields {
                    let Some((_, sty)) = y.fields.iter().find(|(n, _)| n == name) else {
                        continue;
                    };
                    if stx.mean.is_nan() || sty.mean.is_nan() {
                        continue;
                    }
                    let delta = sty.mean - stx.mean;
                    let pct = if stx.mean != 0.0 {
                        format!(" {:+.1}%", 100.0 * delta / stx.mean.abs())
                    } else {
                        String::new()
                    };
                    cells.push(format!(
                        "{name}={} -> {} ({}{pct})",
                        short(stx.mean),
                        short(sty.mean),
                        short_signed(delta)
                    ));
                }
                out.push_str(&format!(
                    "{:<24} {:>9} {:>9}  {}\n",
                    step,
                    x.count,
                    y.count,
                    cells.join("  ")
                ));
            }
            (None, None) => unreachable!("step came from one of the summaries"),
        }
    }
    out
}

/// A node of the reconstructed span tree.
struct SpanNode {
    id: i64,
    parent: i64,
    name: String,
    thread: String,
    secs: f64,
}

/// Streaming collector for `span.close` events, rendered as folded
/// flamegraph stacks or per-thread accounting. Holds one node per closed
/// span — the only analysis state that scales with journal content
/// rather than vocabulary, because stack reconstruction needs every
/// span's parent link.
#[derive(Default)]
pub struct SpanCollector {
    nodes: Vec<SpanNode>,
}

impl SpanCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event in (non-span events are ignored).
    pub fn ingest(&mut self, e: &RunEvent) {
        if e.step != "span.close" {
            return;
        }
        let get_int = |k: &str| match e.payload.get(k) {
            Some(Value::Int(i)) => Some(*i),
            _ => None,
        };
        let (Some(id), Some(parent)) = (get_int("id"), get_int("parent")) else {
            return;
        };
        let Some(Value::Str(name)) = e.payload.get("name") else {
            return;
        };
        let thread = match e.payload.get("thread") {
            Some(Value::Str(t)) => t.clone(),
            _ => "unknown".to_owned(),
        };
        let secs = match e.payload.get("secs") {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            _ => 0.0,
        };
        self.nodes.push(SpanNode {
            id,
            parent,
            name: name.clone(),
            thread,
            secs,
        });
    }

    /// Whether any spans were collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Self time of a node: its span time minus its direct children's span
/// time, clamped at zero. Children may have run on other threads (scope
/// tasks parent under the spawning span), which is exactly the
/// attribution wanted: a parent waiting on workers gets no credit for
/// their work.
fn self_secs(n: &SpanNode, nodes: &[SpanNode]) -> f64 {
    let child_secs: f64 = nodes
        .iter()
        .filter(|c| c.parent == n.id)
        .map(|c| c.secs)
        .sum();
    (n.secs - child_secs).max(0.0)
}

impl SpanCollector {
    /// Renders the spans as flamegraph folded-stack lines:
    /// `root;child;leaf <self-time-µs>`, one line per distinct stack,
    /// with self time = span time minus the time of its direct children
    /// (clamped at zero). Lines are merged and sorted so output is
    /// deterministic. Empty when the journal has no span events.
    #[must_use]
    pub fn flame_folded(&self) -> String {
        let nodes = &self.nodes;
        let mut stacks: Vec<(String, u64)> = Vec::new();
        for n in nodes {
            let self_us = (self_secs(n, nodes) * 1e6).round() as u64;
            // Build the stack path by walking parents; a missing parent
            // (still-open span at journal end) truncates the path there.
            let mut path = vec![n.name.as_str()];
            let mut cursor = n.parent;
            while cursor >= 0 {
                match nodes.iter().find(|p| p.id == cursor) {
                    Some(p) => {
                        path.push(p.name.as_str());
                        cursor = p.parent;
                    }
                    None => break,
                }
            }
            path.reverse();
            let line = path.join(";");
            match stacks.iter_mut().find(|(l, _)| *l == line) {
                Some((_, v)) => *v += self_us,
                None => stacks.push((line, self_us)),
            }
        }
        stacks.sort();
        let mut out = String::new();
        for (line, us) in stacks {
            out.push_str(&format!("{line} {us}\n"));
        }
        out
    }

    /// Per-thread span accounting (the `summary --by-thread` view): for
    /// each OS thread that closed spans, the span count, total self
    /// time, and the busiest span names by self time. Worker threads of
    /// the executor show up as `ifw-<n>`; spans from old journals
    /// without a `thread` field group under `unknown`. Sorted by self
    /// time descending so the hottest thread leads.
    #[must_use]
    pub fn by_thread_text(&self) -> String {
        let nodes = &self.nodes;
        if nodes.is_empty() {
            return "no span events\n".to_owned();
        }
        // thread -> (span count, total self secs, per-name self secs)
        type ThreadRow = (String, usize, f64, Vec<(String, f64)>);
        let mut threads: Vec<ThreadRow> = Vec::new();
        for n in nodes {
            let s = self_secs(n, nodes);
            let entry = match threads.iter_mut().find(|(t, ..)| *t == n.thread) {
                Some(e) => e,
                None => {
                    threads.push((n.thread.clone(), 0, 0.0, Vec::new()));
                    threads.last_mut().expect("just pushed")
                }
            };
            entry.1 += 1;
            entry.2 += s;
            match entry.3.iter_mut().find(|(name, _)| *name == n.name) {
                Some((_, v)) => *v += s,
                None => entry.3.push((n.name.clone(), s)),
            }
        }
        threads.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>6} {:>10}  top spans by self time\n",
            "thread", "spans", "self_s"
        ));
        for (thread, count, total, mut names) in threads {
            names.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let top: Vec<String> = names
                .iter()
                .take(3)
                .map(|(name, s)| format!("{name}={}", short(*s)))
                .collect();
            out.push_str(&format!(
                "{:<16} {:>6} {:>10}  {}\n",
                thread,
                count,
                short(total),
                top.join("  ")
            ));
        }
        out
    }
}

/// The failure ledger (the `summary --failures` view): per-mode
/// injected-fault counts, retries, timeouts, early kills (with refunded
/// model hours), censored bandit pulls, skipped multistart starts, and
/// GWTW casualties — every way a campaign degraded without dying.
/// O(failure-vocabulary) state regardless of journal size.
#[derive(Default)]
pub struct FailureLedger {
    injected: usize,
    by_mode: Vec<(String, usize)>,
    retries: usize,
    backoff_ms: Histogram,
    timeouts: usize,
    kills: usize,
    hours_saved: f64,
    censored: usize,
    multistart_failed: usize,
    casualties: i64,
}

impl FailureLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event in (non-failure events are ignored).
    pub fn ingest(&mut self, e: &RunEvent) {
        match e.step.as_str() {
            "fault.injected" => {
                self.injected += 1;
                let mode = match e.payload.get("mode") {
                    Some(Value::Str(m)) => m.clone(),
                    _ => "unknown".to_owned(),
                };
                match self.by_mode.iter_mut().find(|(m, _)| *m == mode) {
                    Some((_, n)) => *n += 1,
                    None => self.by_mode.push((mode, 1)),
                }
            }
            "run.retry" => {
                self.retries += 1;
                match e.payload.get("backoff_ms") {
                    Some(Value::Float(f)) => self.backoff_ms.record(*f),
                    Some(Value::Int(i)) => self.backoff_ms.record(*i as f64),
                    _ => {}
                }
            }
            "run.timeout" => self.timeouts += 1,
            "run.killed" => {
                self.kills += 1;
                match e.payload.get("hours_saved") {
                    Some(Value::Float(f)) => self.hours_saved += *f,
                    Some(Value::Int(i)) => self.hours_saved += *i as f64,
                    _ => {}
                }
            }
            "bandit.censored" => self.censored += 1,
            "multistart.failed" => self.multistart_failed += 1,
            "gwtw.round" => {
                if let Some(Value::Int(i)) = e.payload.get("casualties") {
                    self.casualties += *i;
                }
            }
            _ => {}
        }
    }

    /// Renders the failure table; says so when the journal recorded no
    /// failures at all.
    #[must_use]
    pub fn render(&self) -> String {
        let mut rows: Vec<(String, usize, String)> = Vec::new();
        if self.injected > 0 {
            let mut by_mode = self.by_mode.clone();
            by_mode.sort();
            let detail: Vec<String> = by_mode.iter().map(|(m, n)| format!("{m}={n}")).collect();
            rows.push(("fault.injected".to_owned(), self.injected, detail.join(" ")));
        }
        if self.retries > 0 {
            let detail = if self.backoff_ms.count() > 0 {
                format!("mean backoff {} ms", short(self.backoff_ms.stats().mean))
            } else {
                String::new()
            };
            rows.push(("run.retry".to_owned(), self.retries, detail));
        }
        if self.timeouts > 0 {
            rows.push(("run.timeout".to_owned(), self.timeouts, String::new()));
        }
        if self.kills > 0 {
            rows.push((
                "run.killed".to_owned(),
                self.kills,
                format!("refunded {} model hours", short(self.hours_saved)),
            ));
        }
        if self.censored > 0 {
            rows.push(("bandit.censored".to_owned(), self.censored, String::new()));
        }
        if self.multistart_failed > 0 {
            rows.push((
                "multistart.failed".to_owned(),
                self.multistart_failed,
                String::new(),
            ));
        }
        if self.casualties > 0 {
            rows.push((
                "gwtw casualties".to_owned(),
                self.casualties as usize,
                String::new(),
            ));
        }
        if rows.is_empty() {
            return "no failure events\n".to_owned();
        }
        let mut out = String::new();
        out.push_str(&format!("{:<20} {:>6}  detail\n", "failure", "count"));
        for (name, count, detail) in rows {
            out.push_str(&format!("{name:<20} {count:>6}  {detail}\n"));
        }
        out
    }
}

/// Incremental state behind `ifjournal watch`: fed events as a live
/// journal grows (the file writer flushes only seq-contiguous
/// prefixes, so any read picks up whole events in order), it renders a
/// rolling one-line status — event throughput, campaign round and best
/// QoR, bandit pull/censor/retry rates, and the alerts currently
/// firing (tracked from `alert.fired`/`alert.resolved` transitions).
#[derive(Debug, Default)]
pub struct WatchState {
    events: u64,
    last_seq: u64,
    rounds: u64,
    best: Option<f64>,
    pulls: u64,
    censored: u64,
    retries: u64,
    finished: bool,
    active: Vec<String>,
    window_events: u64,
    window_pulls: u64,
}

impl WatchState {
    /// A fresh watcher.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event in (call in file order).
    pub fn ingest(&mut self, e: &RunEvent) {
        self.events += 1;
        self.window_events += 1;
        self.last_seq = self.last_seq.max(e.seq);
        let num = |k: &str| match e.payload.get(k) {
            Some(Value::Float(f)) => Some(*f),
            Some(Value::Int(i)) => Some(*i as f64),
            _ => None,
        };
        match e.step.as_str() {
            "gwtw.round" => {
                self.rounds += 1;
                if let Some(b) = num("best_so_far") {
                    self.best = Some(b);
                }
            }
            "bandit.pull" => {
                self.pulls += 1;
                self.window_pulls += 1;
            }
            "bandit.censored" => self.censored += 1,
            "run.retry" => self.retries += 1,
            "journal.summary" => self.finished = true,
            "alert.fired" | "alert.resolved" => {
                if let Some(Value::Str(rule)) = e.payload.get("rule") {
                    self.active.retain(|r| r != rule);
                    if e.step == "alert.fired" {
                        self.active.push(rule.clone());
                    }
                }
            }
            _ => {}
        }
    }

    /// Whether a `journal.summary` has been seen — the writer's
    /// `finish()` mark, after which the journal will not grow.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Renders the rolling status line and resets the rate window.
    /// `elapsed_secs` is the wall time since the previous render (or
    /// zero for a one-shot snapshot, which suppresses the rates).
    pub fn status_line(&mut self, elapsed_secs: f64) -> String {
        let mut out = format!("seq {:>6}  events {:>6}", self.last_seq, self.events);
        if elapsed_secs > 0.0 {
            out.push_str(&format!(
                "  {:.1} evt/s",
                self.window_events as f64 / elapsed_secs
            ));
        }
        if self.rounds > 0 {
            out.push_str(&format!("  round {}", self.rounds));
        }
        if let Some(b) = self.best {
            out.push_str(&format!("  best {b:.6}"));
        }
        if self.pulls > 0 {
            out.push_str(&format!("  pulls {}", self.pulls));
            if elapsed_secs > 0.0 {
                out.push_str(&format!(
                    " ({:.1}/s)",
                    self.window_pulls as f64 / elapsed_secs
                ));
            }
            out.push_str(&format!(
                "  censored {:.1}%",
                100.0 * self.censored as f64 / self.pulls as f64
            ));
        }
        if self.retries > 0 {
            out.push_str(&format!("  retries {}", self.retries));
        }
        if self.active.is_empty() {
            out.push_str("  alerts: none");
        } else {
            out.push_str(&format!("  alerts: {}", self.active.join(",")));
        }
        self.window_events = 0;
        self.window_pulls = 0;
        out
    }
}

fn render_payload(v: &Value) -> String {
    match v.as_object() {
        Some(obj) => {
            let cells: Vec<String> = obj
                .iter()
                .map(|(k, val)| format!("{k}={}", render_value(val)))
                .collect();
            cells.join(" ")
        }
        None => render_value(v),
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => short(*f),
        Value::Str(s) => s.clone(),
        Value::Array(xs) => format!("[{} items]", xs.len()),
        Value::Object(fs) => format!("{{{} fields}}", fs.len()),
    }
}

/// Compact numeric rendering for tables: four significant-ish digits.
fn short(x: f64) -> String {
    if x.is_nan() {
        return "nan".to_owned();
    }
    if x == 0.0 {
        return "0".to_owned();
    }
    let a = x.abs();
    if !(1e-3..1e6).contains(&a) {
        format!("{x:.3e}")
    } else if a >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.4}")
    }
}

fn short_signed(x: f64) -> String {
    if x > 0.0 {
        format!("+{}", short(x))
    } else {
        short(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Journal;

    /// Feeds the journal's drained events to `ingest`, in order — the
    /// in-memory form of `ifjournal`'s fold over an `EventStream`.
    fn feed(j: &Journal, ingest: impl FnMut(&RunEvent)) {
        let events = crate::parse_jsonl(&j.drain_lines().join("\n")).unwrap();
        events.iter().for_each(ingest);
    }

    fn summary(j: &Journal) -> SummaryBuilder {
        let mut b = SummaryBuilder::new();
        feed(j, |e| b.ingest(e));
        b
    }

    fn spans(j: &Journal) -> SpanCollector {
        let mut c = SpanCollector::new();
        feed(j, |e| c.ingest(e));
        c
    }

    fn failures(j: &Journal) -> FailureLedger {
        let mut ledger = FailureLedger::new();
        feed(j, |e| ledger.ingest(e));
        ledger
    }

    #[test]
    fn summary_text_lists_every_step() {
        let j = Journal::in_memory("s");
        j.emit("flow.place", &[("hpwl_um", 10.0.into())]);
        j.emit("flow.place", &[("hpwl_um", 20.0.into())]);
        j.emit("flow.route", &[("drv", 3u64.into())]);
        let text = summary(&j).render();
        assert!(text.contains("flow.place"), "{text}");
        assert!(text.contains("flow.route"), "{text}");
        assert!(text.contains("hpwl_um=15"), "{text}");
    }

    #[test]
    fn summary_text_flags_sign_lossy_quantiles() {
        let j = Journal::in_memory("neg");
        j.emit("opt.delta", &[("gain", (-2.0).into())]);
        j.emit("opt.delta", &[("gain", 5.0.into())]);
        let text = summary(&j).render();
        assert!(text.contains('!'), "negatives flag missing: {text}");
    }

    #[test]
    fn tail_render_filters_and_limits_through_tail_events() {
        let path = std::env::temp_dir().join(format!("ideaflow_tail_{}.ifj", std::process::id()));
        let j = Journal::to_file("t", &path).unwrap();
        for i in 0..10 {
            j.emit("a", &[("i", (i as u64).into())]);
            j.emit("b", &[("i", (i as u64).into())]);
        }
        j.finish();
        let tail = |step, n| tail_render(&crate::codec::tail_events(&path, step, n).unwrap());
        let all = tail(None, 5);
        assert_eq!(all.lines().count(), 5);
        let only_a = tail(Some("a"), 3);
        std::fs::remove_file(&path).ok();
        assert_eq!(only_a.lines().count(), 3);
        assert!(only_a.lines().all(|l| l.contains(" a ")), "{only_a}");
        assert!(only_a.contains("i=9"), "{only_a}");
    }

    #[test]
    fn diff_text_reports_mean_deltas_and_missing_steps() {
        let a = Journal::in_memory("a");
        a.emit("flow.place", &[("hpwl_um", 100.0.into())]);
        a.emit("a.only", &[]);
        let b = Journal::in_memory("b");
        b.emit("flow.place", &[("hpwl_um", 110.0.into())]);
        b.emit("b.only", &[]);
        let text = diff_summaries(&summary(&a).summaries(), &summary(&b).summaries());
        assert!(text.contains("hpwl_um=100.0 -> 110.0"), "{text}");
        assert!(text.contains("+10.0%"), "{text}");
        assert!(text.contains("only in a"), "{text}");
        assert!(text.contains("only in b"), "{text}");
    }

    #[test]
    fn flame_folded_builds_stacks_with_self_time() {
        let j = Journal::in_memory("f");
        {
            let _root = j.span("flow");
            {
                let _c1 = j.span("place");
            }
            {
                let _c2 = j.span("route");
            }
        }
        let text = spans(&j).flame_folded();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines.iter().any(|l| l.starts_with("flow ")), "{text}");
        assert!(lines.iter().any(|l| l.starts_with("flow;place ")), "{text}");
        assert!(lines.iter().any(|l| l.starts_with("flow;route ")), "{text}");
        // Every line ends in an integer microsecond count.
        for l in lines {
            let (_, us) = l.rsplit_once(' ').unwrap();
            us.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn flame_folded_is_empty_without_spans() {
        let j = Journal::in_memory("nospans");
        j.emit("flow.place", &[]);
        assert!(spans(&j).flame_folded().is_empty());
    }

    #[test]
    fn by_thread_text_accounts_spans_per_thread() {
        let j = Journal::in_memory("bt");
        {
            let _root = j.span("flow");
            let snap = crate::SpanStack::capture();
            let jc = j.clone();
            std::thread::Builder::new()
                .name("w-1".into())
                .spawn(move || {
                    snap.enter(|| {
                        let _task = jc.span("task");
                    });
                })
                .unwrap()
                .join()
                .unwrap();
        }
        let text = spans(&j).by_thread_text();
        assert!(text.contains("w-1"), "{text}");
        assert!(text.contains("task="), "{text}");
        // Header plus at least two thread rows (the test thread and w-1).
        assert!(text.lines().count() >= 3, "{text}");
    }

    #[test]
    fn failures_text_ledgers_every_degradation_mode() {
        let j = Journal::in_memory("fails");
        j.emit(
            "fault.injected",
            &[("mode", "crash".into()), ("sample", 3u64.into())],
        );
        j.emit(
            "fault.injected",
            &[("mode", "hang".into()), ("sample", 4u64.into())],
        );
        j.emit(
            "run.retry",
            &[("sample", 3u64.into()), ("backoff_ms", 12u64.into())],
        );
        j.emit(
            "run.killed",
            &[("sample", 9u64.into()), ("hours_saved", 42.5.into())],
        );
        j.emit("bandit.censored", &[("arm", 1u64.into())]);
        j.emit(
            "gwtw.round",
            &[("round", 0u64.into()), ("casualties", 2u64.into())],
        );
        let text = failures(&j).render();
        assert!(text.contains("fault.injected"), "{text}");
        assert!(text.contains("crash=1 hang=1"), "{text}");
        assert!(text.contains("run.retry"), "{text}");
        assert!(text.contains("refunded 42.5"), "{text}");
        assert!(text.contains("bandit.censored"), "{text}");
        assert!(text.contains("gwtw casualties"), "{text}");
    }

    #[test]
    fn failures_text_without_failures_says_so() {
        let j = Journal::in_memory("clean");
        j.emit("flow.sample", &[("wns_ps", 5.0.into())]);
        assert_eq!(failures(&j).render(), "no failure events\n");
    }

    #[test]
    fn watch_state_tracks_campaign_rates_and_alerts() {
        let j = Journal::in_memory("w");
        j.emit(
            "gwtw.round",
            &[("round", 0u64.into()), ("best_so_far", 2.5.into())],
        );
        j.emit("bandit.pull", &[("arm", 0u64.into())]);
        j.emit("bandit.pull", &[("arm", 1u64.into())]);
        j.emit("bandit.censored", &[("arm", 1u64.into())]);
        j.emit(
            "run.retry",
            &[("attempt", 1u64.into()), ("backoff_ms", 5u64.into())],
        );
        j.emit(
            "alert.fired",
            &[
                ("rule", "model-hour-budget".into()),
                ("kind", "budget".into()),
                ("value", 40.0.into()),
                ("threshold", 36.0.into()),
                ("tick", 1u64.into()),
            ],
        );
        let mut w = WatchState::new();
        feed(&j, |e| w.ingest(e));
        assert!(!w.finished());
        let line = w.status_line(2.0);
        assert!(line.contains("round 1"), "{line}");
        assert!(line.contains("best 2.500000"), "{line}");
        assert!(line.contains("pulls 2 (1.0/s)"), "{line}");
        assert!(line.contains("censored 50.0%"), "{line}");
        assert!(line.contains("retries 1"), "{line}");
        assert!(line.contains("alerts: model-hour-budget"), "{line}");
        assert!(line.contains("3.0 evt/s"), "{line}");
        // The rate window resets per render; totals persist.
        let next = w.status_line(1.0);
        assert!(next.contains("0.0 evt/s"), "{next}");
        assert!(next.contains("pulls 2 (0.0/s)"), "{next}");
    }

    #[test]
    fn watch_state_resolves_alerts_and_sees_the_finish_mark() {
        let j = Journal::in_memory("w2");
        j.emit(
            "alert.fired",
            &[
                ("rule", "stalled".into()),
                ("kind", "stall".into()),
                ("value", 3.0.into()),
                ("threshold", 3.0.into()),
                ("tick", 4u64.into()),
            ],
        );
        j.emit(
            "alert.resolved",
            &[
                ("rule", "stalled".into()),
                ("kind", "stall".into()),
                ("value", 0.0.into()),
                ("threshold", 3.0.into()),
                ("tick", 5u64.into()),
            ],
        );
        let mut w = WatchState::new();
        feed(&j, |e| w.ingest(e));
        let line = w.status_line(0.0);
        assert!(line.contains("alerts: none"), "{line}");
        assert!(
            !line.contains("evt/s"),
            "one-shot render has no rates: {line}"
        );
        j.finish();
        let mut w2 = WatchState::new();
        feed(&j, |e| w2.ingest(e));
        assert!(w2.finished());
    }

    #[test]
    fn by_thread_text_without_spans_says_so() {
        let j = Journal::in_memory("ns");
        j.emit("x", &[]);
        assert_eq!(spans(&j).by_thread_text(), "no span events\n");
    }
}

//! The metric catalogue and the two outputs of a run: a table on stderr
//! for people, and one JSON line on stdout for machines.

use std::collections::BTreeMap;

use crate::stats::{self, cpu_per_unit, throughput, total_rate, Tally, Window};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// `failed_frac` is reported through the result's `attempted`/`failed`
/// counts and the stderr table.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("ack_p95_ms", "ms"),
    ("setup_s", "s"),
    ("cpu_ms_per_unit", "ms/unit"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("metrics.http.healthz_rtt_ms_p50", "ms"),
    ("serve.http_api.handler_ms_p50", "ms"),
    ("serve.http_api.handler_ms_p95", "ms"),
    ("serve.http_api.follow_ms_p50", "ms"),
    ("serve.http_api.follow_bytes_per_unit", "B/unit"),
    ("serve.http_api.follow_render_us_per_record", "us/record"),
    ("serve.queue.submit_us_p50", "us"),
    ("serve.queue.claim_us_p50", "us"),
    ("serve.queue.finish_us_p50", "us"),
    ("serve.queue.get_us_p50", "us"),
    ("serve.queue.bytes_per_unit", "B/unit"),
    ("serve.queue.open_s", "s"),
    ("serve.queue.history", "count"),
    ("serve.daemon.wait_ms_p50", "ms"),
    ("serve.daemon.wait_share", "frac"),
    ("bench.experiments.gwtw_ms_p50", "ms"),
    ("bench.experiments.multistart_ms_p50", "ms"),
    ("bench.experiments.bandit_ms_p50", "ms"),
    ("bench.experiments.chaos_ms_p50", "ms"),
    ("trace.journal.share", "frac"),
    ("trace.journal.emit_ns_per_record", "ns/record"),
    ("trace.journal.records_per_unit", "records/unit"),
    ("trace.journal.bytes_per_unit", "B/unit"),
    ("trace.codec.decode_us_per_record", "us/record"),
    ("flow.supervise.retries_per_unit", "count/unit"),
    ("flow.supervise.backoff_sleep_ms_per_unit", "ms/unit"),
    ("faults.injected_per_unit", "count/unit"),
    ("flow.cache.hit_rate", "frac"),
    ("flow.spnr.tool_runs_per_unit", "runs/unit"),
    ("opt.gwtw.round_ms_p50", "ms"),
    ("place.floorplan_ms_p50", "ms"),
    ("place.placer_ms_p50", "ms"),
    ("place.cts_ms_p50", "ms"),
    ("route.global_ms_p50", "ms"),
    ("route.drv_ms_p50", "ms"),
    ("timing.signoff_ms_p50", "ms"),
    ("netlist.generate_ms", "ms"),
    ("exec.speedup", "x"),
    ("exec.threads", "count"),
    ("tracing.overhead_latency_p50_ms", "ms"),
    ("tracing.overhead_throughput_frac", "frac"),
];

/// Measured values by metric name, each with the base it was taken
/// over (sample count, denominator, or the two sides of a ratio).
#[derive(Debug, Default)]
pub struct Measured {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Measured {
    /// Sets a metric; `name` must be in the catalogue.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`END_TO_END`] and [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64, base: impl Into<String>) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, (value, base.into()));
    }
}

/// Sets the end-to-end metrics every workload derives the same way from
/// its measured phase: rates as medians over `windows`, percentiles over
/// every unit (a failed unit's latency is infinite). `cpu_of` names the
/// process whose CPU the windows hold.
///
/// # Errors
///
/// Refuses a p95 from fewer than [`stats::P95_MIN_SAMPLES`] units.
pub fn set_phase(
    m: &mut Measured,
    latencies: &[f64],
    acks: &[f64],
    windows: &[Window],
    cpu_of: &str,
) -> Result<(), String> {
    let n = latencies.len();
    let ok = latencies.iter().filter(|l| l.is_finite()).count();
    let w = windows.len();
    m.set(
        "throughput_per_s",
        throughput(windows),
        format!("median of {w} windows, {ok} units"),
    );
    m.set("latency_p50_ms", stats::p50(latencies), format!("n={n}"));
    m.set("latency_p95_ms", stats::p95(latencies)?, format!("n={n}"));
    m.set("ack_p50_ms", stats::p50(acks), format!("n={n}"));
    m.set("ack_p95_ms", stats::p95(acks)?, format!("n={n}"));
    m.set(
        "cpu_ms_per_unit",
        cpu_per_unit(windows),
        format!("{cpu_of} CPU, median of {w} windows"),
    );
    Ok(())
}

/// Sets the tracing overhead: the traced slices' latency p50 and
/// throughput against the untraced slices'.
pub fn set_overhead(m: &mut Measured, plain: (&[f64], &[Window]), traced: (&[f64], &[Window])) {
    let (p, t) = (stats::p50(plain.0), stats::p50(traced.0));
    m.set(
        "tracing.overhead_latency_p50_ms",
        t - p,
        format!("traced {t:.3} ms - untraced {p:.3} ms"),
    );
    let (pt, tt) = (total_rate(plain.1), total_rate(traced.1));
    m.set(
        "tracing.overhead_throughput_frac",
        1.0 - tt / pt,
        format!("1 - traced {tt:.2}/s / untraced {pt:.2}/s"),
    );
}

/// One run's result.
#[derive(Debug)]
pub struct Report {
    /// Every operation's outcome; the run is correct when none failed.
    pub tally: Tally,
    /// The catalogue this run prints.
    pub catalogue: &'static [(&'static str, &'static str)],
    /// What was measured.
    pub measured: Measured,
}

impl Report {
    /// Rows in catalogue order; unmeasured layers read 0.
    fn rows(&self) -> Vec<(&'static str, &'static str, f64, String)> {
        self.catalogue
            .iter()
            .map(|(name, unit)| match self.measured.values.get(name) {
                Some((v, base)) => (*name, *unit, *v, base.clone()),
                None => (*name, *unit, 0.0, "not reached by this workload".to_owned()),
            })
            .collect()
    }

    /// The table for people: every metric by name with unit and base.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let t = &self.tally;
        out.push_str(&format!(
            "  {:<44} {:>14.6} {:<12} {} failed of {} attempted {:?}\n",
            "failed_frac",
            t.failed_frac(),
            "frac",
            t.failed(),
            t.attempted(),
            t.by_class()
        ));
        if let Some(first) = t.first() {
            out.push_str(&format!("  first failure: {first:?}\n"));
        }
        for (name, unit, value, base) in self.rows() {
            out.push_str(&format!("  {name:<44} {value:>14.6} {unit:<12} {base}\n"));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// Values print with every digit; a non-finite value (a percentile
    /// that landed on a failed unit) prints as the largest finite f64.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .into_iter()
            .map(|(name, unit, value, _)| {
                let v = if value.is_finite() { value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed() == 0,
            self.tally.attempted(),
            self.tally.failed(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ideaflow_trace::PayloadValue;

    /// The names, units and metric sets in `BENCHMARK.json` are the ones
    /// this catalogue prints.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec: PayloadValue =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(PayloadValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(PayloadValue::as_str).unwrap();
                    (field("name").to_owned(), field("unit").to_owned())
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn json_line_has_every_metric_and_parses() {
        let mut measured = Measured::default();
        measured.set("latency_p50_ms", 36.125, "n=400");
        measured.set("latency_p95_ms", f64::INFINITY, "n=400");
        let mut tally = Tally::default();
        tally.record(&Ok(()));
        let report = Report {
            tally,
            catalogue: END_TO_END,
            measured,
        };
        let line = report.json_line();
        let v: PayloadValue = serde_json::from_str(&line).unwrap();
        let metrics = v.get("metrics").and_then(PayloadValue::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 36.125, \"unit\": \"ms\"}"));
        assert!(line.contains(&format!("{:?}", f64::MAX)));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(report.table().contains("failed_frac"));
    }
}

//! Registry-driven Grafana dashboard generation (`ifjournal grafana`).
//!
//! The schema registry ([`crate::schema`]) is the single source of
//! truth for every counter, histogram, and gauge the workspace may
//! write; this module derives a Grafana dashboard (plus provisioning
//! stubs) from it, so the committed `grafana/` directory can never
//! drift from the metrics that actually exist. Output is a pure
//! function of the registry: a unit test renders it into a scratch
//! directory and compares it with the committed copy, file by file.
//!
//! Panel naming follows the live `/metrics` exposition
//! ([`crate::telemetry`]): counters gain `_total` and are plotted as
//! 5-minute rates; histograms plot their p50/p95 summary quantiles;
//! gauges plot raw. Wildcard registry entries (`prefix.*`) have no
//! fixed series name and are skipped.

use crate::schema::{self, NameSchema, COUNTERS, GAUGES, HISTOGRAMS};
use crate::telemetry::prometheus_metric_name;
use serde::Value;
use std::path::{Path, PathBuf};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// One query target of a panel: `(expr, legend)`.
type Target = (String, String);

fn panel(id: i64, slot: i64, name: &str, doc: &str, targets: Vec<Target>) -> Value {
    const REFS: &[&str] = &["A", "B", "C", "D"];
    let targets: Vec<Value> = targets
        .into_iter()
        .enumerate()
        .map(|(i, (expr, legend))| {
            obj(vec![
                ("refId", REFS[i.min(REFS.len() - 1)].into()),
                ("expr", expr.into()),
                ("legendFormat", legend.into()),
                (
                    "datasource",
                    obj(vec![
                        ("type", "prometheus".into()),
                        ("uid", "prometheus".into()),
                    ]),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("id", Value::Int(id)),
        ("title", name.into()),
        ("description", doc.into()),
        ("type", "timeseries".into()),
        (
            "datasource",
            obj(vec![
                ("type", "prometheus".into()),
                ("uid", "prometheus".into()),
            ]),
        ),
        (
            "gridPos",
            obj(vec![
                ("h", Value::Int(8)),
                ("w", Value::Int(8)),
                ("x", Value::Int((slot % 3) * 8)),
                ("y", Value::Int((slot / 3) * 8)),
            ]),
        ),
        ("targets", Value::Array(targets)),
    ])
}

fn exact(entries: &[NameSchema]) -> impl Iterator<Item = &NameSchema> {
    entries.iter().filter(|e| !e.name.contains('*'))
}

/// The full dashboard as deterministic pretty-printed JSON (trailing
/// newline included, as committed files carry one).
#[must_use]
pub fn dashboard_json() -> String {
    let mut panels = Vec::new();
    let mut id = 0i64;
    let mut slot = 0i64;
    let mut push = |panels: &mut Vec<Value>, name: &str, doc: &str, targets: Vec<Target>| {
        id += 1;
        panels.push(panel(id, slot, name, doc, targets));
        slot += 1;
    };
    for e in exact(COUNTERS) {
        let m = prometheus_metric_name(e.name);
        push(
            &mut panels,
            e.name,
            e.doc,
            vec![(format!("rate({m}_total[5m])"), format!("{}/s", e.name))],
        );
    }
    for e in exact(HISTOGRAMS) {
        let m = prometheus_metric_name(e.name);
        push(
            &mut panels,
            e.name,
            e.doc,
            vec![
                (format!("{m}{{quantile=\"0.5\"}}"), "p50".to_owned()),
                (format!("{m}{{quantile=\"0.95\"}}"), "p95".to_owned()),
            ],
        );
    }
    for e in exact(GAUGES) {
        let m = prometheus_metric_name(e.name);
        // Labeled families (the alert-active series) legend by label.
        let legend = if e.name == "alert.active" {
            "{{rule}}".to_owned()
        } else {
            e.name.to_owned()
        };
        push(&mut panels, e.name, e.doc, vec![(m, legend)]);
    }
    let dash = obj(vec![
        ("title", "ideaflow".into()),
        ("uid", "ideaflow".into()),
        (
            "description",
            format!(
                "Generated from the ideaflow schema registry \
                 (hash {}); regenerate with `ifjournal grafana`.",
                schema::registry_hash_hex()
            )
            .into(),
        ),
        (
            "tags",
            Value::Array(vec!["ideaflow".into(), "generated".into()]),
        ),
        ("schemaVersion", Value::Int(39)),
        ("version", Value::Int(1)),
        ("editable", Value::Bool(false)),
        ("refresh", "5s".into()),
        (
            "time",
            obj(vec![("from", "now-1h".into()), ("to", "now".into())]),
        ),
        ("panels", Value::Array(panels)),
    ]);
    let mut out = serde_json::to_string_pretty(&dash).expect("pure value tree renders");
    out.push('\n');
    out
}

/// Grafana dashboard-provider provisioning stub: point Grafana at the
/// directory holding `ideaflow.json`.
#[must_use]
pub fn dashboards_provisioning_yml() -> String {
    "# Generated by `ifjournal grafana`; do not edit.\n\
     apiVersion: 1\n\
     providers:\n\
     \x20 - name: ideaflow\n\
     \x20   folder: ideaflow\n\
     \x20   type: file\n\
     \x20   options:\n\
     \x20     path: /var/lib/grafana/dashboards\n"
        .to_owned()
}

/// Prometheus datasource provisioning stub matching the panels' uid.
#[must_use]
pub fn datasource_provisioning_yml() -> String {
    "# Generated by `ifjournal grafana`; do not edit.\n\
     apiVersion: 1\n\
     datasources:\n\
     \x20 - name: prometheus\n\
     \x20   uid: prometheus\n\
     \x20   type: prometheus\n\
     \x20   access: proxy\n\
     \x20   url: http://127.0.0.1:9090\n\
     \x20   isDefault: true\n"
        .to_owned()
}

/// Writes the dashboard and provisioning stubs under `dir`, creating
/// directories as needed. Returns the paths written, in a fixed order.
///
/// # Errors
///
/// Propagates the first I/O failure.
pub fn write_all(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let files = [
        (PathBuf::from("ideaflow.json"), dashboard_json()),
        (
            PathBuf::from("provisioning/dashboards/ideaflow.yml"),
            dashboards_provisioning_yml(),
        ),
        (
            PathBuf::from("provisioning/datasources/prometheus.yml"),
            datasource_provisioning_yml(),
        ),
    ];
    let mut written = Vec::new();
    for (rel, content) in files {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, content)?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dashboard_is_deterministic_and_names_real_series() {
        let a = dashboard_json();
        assert_eq!(a, dashboard_json());
        // One panel per exact registry entry, none for wildcards.
        assert!(a.contains("rate(ideaflow_journal_events_total[5m])"), "{a}");
        assert!(
            a.contains("rate(ideaflow_supervise_model_hours_mh_total[5m])"),
            "{a}"
        );
        assert!(
            a.contains("ideaflow_gwtw_round_best{quantile=\\\"0.95\\\"}")
                || a.contains("ideaflow_gwtw_round_best{quantile=\"0.95\"}"),
            "{a}"
        );
        assert!(a.contains("ideaflow_campaign_best"), "{a}");
        assert!(a.contains("ideaflow_alert_active"), "{a}");
        assert!(a.contains("{{rule}}"), "{a}");
        assert!(!a.contains('*'), "wildcard entries must be skipped: {a}");
        // The registry hash pins the dashboard to the schema version.
        assert!(a.contains(&schema::registry_hash_hex()), "{a}");
        assert!(a.ends_with("}\n"), "trailing newline");
    }

    #[test]
    fn write_all_round_trips_under_a_directory() {
        let dir = std::env::temp_dir().join(format!("ideaflow_grafana_{}", std::process::id()));
        let written = write_all(&dir).unwrap();
        assert_eq!(written.len(), 3);
        let json = std::fs::read_to_string(dir.join("ideaflow.json")).unwrap();
        assert_eq!(json, dashboard_json());
        let yml =
            std::fs::read_to_string(dir.join("provisioning/dashboards/ideaflow.yml")).unwrap();
        assert!(yml.contains("apiVersion: 1"), "{yml}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file under `dir`, as paths relative to it, sorted.
    fn files_under(dir: &Path) -> Vec<PathBuf> {
        let mut files = Vec::new();
        let mut pending = vec![dir.to_path_buf()];
        while let Some(d) = pending.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                } else {
                    files.push(path.strip_prefix(dir).unwrap().to_path_buf());
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn committed_dashboards_match_the_registry() {
        // `diff -r` of a fresh render against the committed grafana/.
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../grafana");
        let fresh =
            std::env::temp_dir().join(format!("ideaflow_grafana_check_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&fresh);
        write_all(&fresh).unwrap();
        let rendered = files_under(&fresh);
        assert_eq!(
            rendered,
            files_under(&committed),
            "grafana/ holds other files than the registry renders; \
             rerun `ifjournal grafana grafana`"
        );
        for rel in &rendered {
            assert!(
                std::fs::read(fresh.join(rel)).unwrap()
                    == std::fs::read(committed.join(rel)).unwrap(),
                "grafana/{} is stale; rerun `ifjournal grafana grafana`",
                rel.display()
            );
        }
        std::fs::remove_dir_all(&fresh).ok();
    }
}

//! Workspace-policy tests for the campaign alerting engine: under the
//! pinned chaos seeds and the committed CI rule set, the deliberately
//! tight model-hour budget must fire — and the whole transition
//! sequence must be bit-identical between a 1-thread pool (the exact
//! sequential baseline) and a 4-thread pool, because every rule input
//! is an order-independent aggregate (integer counters, bin-only
//! quantiles, orchestrator-thread gauges).

use ideaflow::exec::{with_pool, PoolBuilder};
use ideaflow::flow::cache::QorCache;
use ideaflow::metrics::alerts::{parse_rules, AlertEngine};
use ideaflow::trace::schema;
use ideaflow::trace::{Journal, JournalReader, PayloadValue, RunEvent, TelemetryRegistry};
use ideaflow_bench::experiments::fig06_orchestration::{run_chaos_gwtw_alerted, ChaosConfig};

/// Runs `f` on an explicit pool of `threads` workers.
fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = PoolBuilder::new().threads(threads).build();
    with_pool(&pool, f)
}

fn ci_rules() -> Vec<ideaflow::metrics::alerts::AlertRule> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/ci/alerts.toml");
    let text = std::fs::read_to_string(path).expect("committed CI rule set");
    parse_rules(&text).expect("CI rule set parses")
}

/// One alerted chaos campaign (3 review rounds — enough for the 2000
/// model-hour CI budget to fire at tick 3). Returns the engine's two
/// text surfaces, the campaign best and the journal, for cross-thread
/// diffing.
fn alerted_campaign() -> (String, String, u64, Vec<RunEvent>) {
    let registry = TelemetryRegistry::new();
    let journal = Journal::in_memory("alerts-test").with_telemetry(registry.clone());
    let engine = AlertEngine::new(ci_rules(), registry.clone()).with_journal(journal.clone());
    let out = run_chaos_gwtw_alerted(
        &ChaosConfig::default(),
        3,
        QorCache::new(),
        &journal,
        Some(&engine),
    );
    (
        engine.transitions_text(),
        engine.snapshot_json(),
        out.best_cost.to_bits(),
        journal.drain_events(),
    )
}

#[test]
fn budget_alert_fires_on_all_three_surfaces() {
    let registry = TelemetryRegistry::new();
    let journal = Journal::in_memory("alerts-golden").with_telemetry(registry.clone());
    let engine = AlertEngine::new(ci_rules(), registry.clone()).with_journal(journal.clone());
    let _ = run_chaos_gwtw_alerted(
        &ChaosConfig::default(),
        3,
        QorCache::new(),
        &journal,
        Some(&engine),
    );

    // Surface 1: the `/alerts` JSON snapshot (the HTTP handler returns
    // exactly `snapshot_json`; the route itself is covered in
    // `ideaflow-metrics`).
    let snapshot = engine.snapshot_json();
    assert!(
        snapshot.contains("\"rule\": \"model-hour-budget\""),
        "{snapshot}"
    );
    assert!(snapshot.contains("\"active\": true"), "{snapshot}");
    assert!(snapshot.contains("\"since_tick\": 3"), "{snapshot}");
    assert!(snapshot.contains("\"tick\": 3"), "{snapshot}");
    assert_eq!(engine.active(), vec!["model-hour-budget".to_owned()]);

    // Surface 2: the Prometheus exposition carries one active-gauge
    // series per rule.
    let prom = registry.render_prometheus();
    assert!(
        prom.contains("ideaflow_alert_active{rule=\"model-hour-budget\"} 1"),
        "{prom}"
    );
    assert!(
        prom.contains("ideaflow_alert_active{rule=\"stalled\"} 0"),
        "{prom}"
    );

    // Surface 3: the journal records the transition, and the new
    // events conform to the schema registry.
    let reader = JournalReader {
        events: journal.drain_events(),
    };
    let fired = reader.events_for_step("alert.fired");
    assert_eq!(fired.len(), 1, "exactly one budget firing in 3 rounds");
    assert_eq!(
        fired[0].payload.get("rule").and_then(PayloadValue::as_str),
        Some("model-hour-budget")
    );
    let diags: Vec<String> = reader.events.iter().flat_map(schema::lint_event).collect();
    assert!(diags.is_empty(), "alert events must lint clean: {diags:?}");
}

#[test]
fn alert_transitions_are_bit_identical_across_thread_counts() {
    let (t1, s1, b1, e1) = on_pool(1, alerted_campaign);
    let (t4, s4, b4, e4) = on_pool(4, alerted_campaign);
    assert!(
        t1.contains("FIRED model-hour-budget"),
        "the tight budget must fire: {t1}"
    );
    assert_eq!(t1, t4, "transition log must be byte-stable across pools");
    assert_eq!(s1, s4, "snapshot JSON must be byte-stable across pools");
    assert_eq!(b1, b4, "campaign best must be bit-identical");
    // The alert events land at the same ticks in both journals. Seq
    // numbers may differ across pools (other events interleave), so
    // compare steps and payloads only.
    let alerts = |events: &[RunEvent]| -> Vec<(String, PayloadValue)> {
        events
            .iter()
            .filter(|e| e.step.starts_with("alert."))
            .map(|e| (e.step.clone(), e.payload.clone()))
            .collect()
    };
    let a1 = alerts(&e1);
    assert!(!a1.is_empty(), "journaled transitions expected");
    assert_eq!(a1, alerts(&e4));
}

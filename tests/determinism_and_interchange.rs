//! Workspace-policy tests: everything is deterministic under a fixed seed,
//! and the run journal (its binary file and that file's JSONL rendering,
//! as METRICS transport) round-trips real flow records end to end.

use ideaflow::flow::options::SpnrOptions;
use ideaflow::flow::spnr::SpnrFlow;
use ideaflow::metrics::corpus;
use ideaflow::netlist::generate::{DesignClass, DesignSpec};

#[test]
fn full_physical_run_is_bit_identical_across_invocations() {
    let run = || {
        let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Dsp, 300).unwrap(), 0xD37);
        let opts = SpnrOptions::with_target_ghz(flow.fmax_ref_ghz() * 0.8).unwrap();
        let p = flow.run_physical(&opts, 3);
        (
            p.hpwl_um,
            p.route_overflow,
            p.clock_skew_ps,
            p.drv.counts.clone(),
            p.qor.wns_ps,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn metrics_survive_jsonl_and_binary_journals() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("metrics_interchange_{}.ifj", std::process::id()));
    let rendered = dir.join(format!("metrics_interchange_{}.jsonl", std::process::id()));
    let journal = ideaflow::trace::Journal::to_file("metrics", &path).unwrap();
    let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 200).unwrap(), 9)
        .with_journal(journal.clone());
    let opts = SpnrOptions::with_target_ghz(flow.fmax_ref_ghz() * 0.7).unwrap();
    let logged: Vec<_> = (0..4).flat_map(|s| flow.run_logged(&opts, s).1).collect();
    drop(flow);
    journal.finish();
    drop(journal);
    // The binary journal, and its JSONL rendering parsed back.
    let decoded = ideaflow::trace::Journal::load(&path).unwrap().events;
    ideaflow::trace::codec::convert(&path, &rendered).unwrap();
    let text = std::fs::read_to_string(&rendered).unwrap();
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&rendered).unwrap();
    for events in [decoded, ideaflow::trace::parse_jsonl(&text).unwrap()] {
        let mined = corpus::from_events(&events);
        // Everything the flow emits conforms to the vocabulary, and the
        // journal hands every record back unchanged.
        assert!(ideaflow::metrics::vocabulary::validate(&mined).is_empty());
        assert_eq!(mined, logged);
        assert_eq!(mined.len(), 4 * 6);
    }
}

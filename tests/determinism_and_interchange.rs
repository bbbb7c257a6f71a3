//! Workspace-policy tests: everything is deterministic under a fixed seed,
//! and the interchange formats (structural Verilog, GSRC Bookshelf, and
//! the run journal's JSONL and binary files as METRICS transport)
//! round-trip real artifacts end to end.

use ideaflow::flow::options::SpnrOptions;
use ideaflow::flow::spnr::SpnrFlow;
use ideaflow::metrics::corpus;
use ideaflow::netlist::generate::{DesignClass, DesignSpec};
use ideaflow::netlist::verilog::{from_verilog, to_verilog};
use ideaflow::place::bookshelf;
use ideaflow::place::floorplan::Floorplan;
use ideaflow::place::placer::{anneal_placement, partition_seeded_placement, PlacerConfig};

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
fn verilog_roundtrip_preserves_flow_behaviour() {
    // A design exported to Verilog and re-imported must time identically.
    let nl = DesignSpec::new(DesignClass::Cpu, 300).unwrap().generate(5);
    let back = from_verilog(&to_verilog(&nl)).unwrap();
    use ideaflow::timing::graph::{gba, TimingGraph};
    use ideaflow::timing::model::{Constraints, Corner, WireModel};
    let cons = Constraints::at_frequency_ghz(0.5).unwrap();
    let g1 = TimingGraph::build(&nl, WireModel::default());
    let g2 = TimingGraph::build(&back, WireModel::default());
    let r1 = gba(&g1, &cons, Corner::TYPICAL).unwrap();
    let r2 = gba(&g2, &cons, Corner::TYPICAL).unwrap();
    assert!((r1.wns_ps - r2.wns_ps).abs() < 1e-9);
    assert!((r1.tns_ps - r2.tns_ps).abs() < 1e-9);
}

#[test]
fn bookshelf_roundtrip_preserves_wirelength() {
    let nl = DesignSpec::new(DesignClass::Noc, 250).unwrap().generate(7);
    let fp = Floorplan::for_netlist(&nl, 0.7, 1.0).unwrap();
    let start = partition_seeded_placement(&nl, &fp, 1).unwrap();
    let placed = anneal_placement(
        &nl,
        &fp,
        start,
        PlacerConfig {
            moves: 10_000,
            t_initial: 50.0,
            t_final: 0.5,
        },
        2,
    );
    let bundle = bookshelf::export(&nl, &fp, &placed.placement);
    let back = bookshelf::import_pl(&bundle.pl, &nl, &fp).unwrap();
    use ideaflow::place::placement::total_hpwl;
    assert!(
        (total_hpwl(&nl, &fp, &back) - placed.hpwl_um).abs() < 1e-6,
        "HPWL must survive the Bookshelf roundtrip"
    );
}

#[test]
fn metrics_survive_jsonl_and_binary_journals() {
    let dir = std::env::temp_dir();
    for (format, ext) in [
        (ideaflow::trace::JournalFormat::Jsonl, "jsonl"),
        (ideaflow::trace::JournalFormat::Binary, "ifj"),
    ] {
        let path = dir.join(format!("metrics_interchange_{}.{ext}", std::process::id()));
        let journal =
            ideaflow::trace::Journal::to_file_with_format("metrics", &path, format).unwrap();
        let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 200).unwrap(), 9)
            .with_journal(journal.clone());
        let opts = SpnrOptions::with_target_ghz(flow.fmax_ref_ghz() * 0.7).unwrap();
        let logged: Vec<_> = (0..4).flat_map(|s| flow.run_logged(&opts, s).1).collect();
        drop(flow);
        journal.finish();
        drop(journal);
        let reader = ideaflow::trace::Journal::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mined = corpus::from_events(&reader.events);
        // Everything the flow emits conforms to the vocabulary, and the
        // journal file hands every record back unchanged.
        assert!(ideaflow::metrics::vocabulary::validate(&mined).is_empty());
        assert_eq!(mined, logged);
        assert_eq!(mined.len(), 4 * 6);
    }
}

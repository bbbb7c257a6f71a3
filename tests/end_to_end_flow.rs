//! Integration tests spanning crates: the full physical pipeline
//! (netlist → floorplan → placement → global route → SI-aware signoff →
//! detailed-route DRV simulation) and the cross-crate invariants that the
//! pipeline must maintain.

use ideaflow::flow::options::{Effort, SpnrOptions};
use ideaflow::flow::spnr::SpnrFlow;
use ideaflow::netlist::generate::{DesignClass, DesignSpec};
use ideaflow::netlist::stats::structural_features;
use ideaflow::place::floorplan::Floorplan;
use ideaflow::place::placement::total_hpwl;
use ideaflow::place::placer::{anneal_placement, partition_seeded_placement, PlacerConfig};
use ideaflow::route::global::{GlobalRoute, RouteConfig};
use ideaflow::timing::graph::TimingGraph;
use ideaflow::timing::model::{Constraints, Corner, WireModel};
use ideaflow::timing::pba::pba;

#[test]
fn physical_pipeline_end_to_end() {
    let nl = DesignSpec::new(DesignClass::Cpu, 600).unwrap().generate(42);
    let fp = Floorplan::for_netlist(&nl, 0.7, 1.0).unwrap();

    // Placement: partition-seeded start, annealing refinement.
    let start = partition_seeded_placement(&nl, &fp, 1).unwrap();
    let start_hpwl = total_hpwl(&nl, &fp, &start);
    let out = anneal_placement(
        &nl,
        &fp,
        start,
        PlacerConfig {
            moves: 25_000,
            t_initial: 50.0,
            t_final: 0.2,
        },
        2,
    );
    out.placement.validate(&nl, &fp).unwrap();
    assert!(out.hpwl_um <= start_hpwl);

    // Global routing over the placed design.
    let route = GlobalRoute::run(
        &nl,
        &fp,
        &out.placement,
        RouteConfig {
            cols: 12,
            rows: 12,
            capacity: 30.0,
        },
    );
    assert!(route.max_utilization() > 0.0);

    // Timing with placement-derived wire lengths: multi-corner signoff is
    // at least as pessimistic as typical-corner signoff.
    let lengths: Vec<f64> = (0..nl.net_count())
        .map(|n| ideaflow::place::placement::net_hpwl(&nl, &fp, &out.placement, n).max(0.5))
        .collect();
    let graph = TimingGraph::build_with_lengths(&nl, WireModel::default(), lengths);
    let cons = Constraints::at_frequency_ghz(0.5).unwrap();
    let tt = pba(&graph, &cons, &[Corner::TYPICAL]).unwrap();
    let all = pba(&graph, &cons, &Corner::STANDARD).unwrap();
    assert!(all.wns_ps <= tt.wns_ps + 1e-9);
    assert_eq!(tt.path_slacks.len(), all.path_slacks.len());
}

#[test]
fn flow_surface_tracks_physical_reality() {
    // The fast surface's calibrated fmax must bracket what physical
    // signoff says at a passing and a failing target.
    let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 400).unwrap(), 7);
    let fmax = flow.fmax_ref_ghz();
    let easy = flow.run_physical(&SpnrOptions::with_target_ghz(fmax * 0.5).unwrap(), 0);
    let hard = flow.run_physical(&SpnrOptions::with_target_ghz(fmax * 2.0).unwrap(), 0);
    // Far below the limit, physical signoff has more slack than far above.
    assert!(easy.qor.wns_ps > hard.qor.wns_ps);
    assert!(!hard.qor.meets_timing());
}

#[test]
fn effort_knobs_propagate_through_physical_runs() {
    let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Noc, 300).unwrap(), 3);
    let fmax = flow.fmax_ref_ghz();
    let mut lo = SpnrOptions::with_target_ghz(fmax * 0.6).unwrap();
    lo.place_effort = Effort::Low;
    let mut hi = lo.clone();
    hi.place_effort = Effort::High;
    let p_lo = flow.run_physical(&lo, 1);
    let p_hi = flow.run_physical(&hi, 1);
    // High placement effort produces shorter wire (more annealing moves).
    assert!(
        p_hi.hpwl_um < p_lo.hpwl_um,
        "high effort {} vs low effort {}",
        p_hi.hpwl_um,
        p_lo.hpwl_um
    );
}

#[test]
fn structural_features_flow_into_predictors() {
    // The cross-crate feature contract: netlist features + option fields
    // form the predictor row; width must line up.
    let nl = DesignSpec::new(DesignClass::Dsp, 400).unwrap().generate(9);
    let f = structural_features(&nl, 1).unwrap();
    assert_eq!(
        f.to_row().len() + 6,
        ideaflow::core::predictor::FEATURE_WIDTH
    );
}

#[test]
fn all_design_classes_survive_the_pipeline() {
    for class in DesignClass::ALL {
        let flow = SpnrFlow::new(DesignSpec::new(class, 200).unwrap(), 11);
        let opts = SpnrOptions::with_target_ghz(flow.fmax_ref_ghz() * 0.7).unwrap();
        let p = flow.run_physical(&opts, 0);
        assert!(p.hpwl_um > 0.0, "{class}: no wirelength");
        assert_eq!(p.drv.counts.len(), 20, "{class}: wrong DRV length");
    }
}

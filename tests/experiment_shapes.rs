//! Shape-target regression tests for every paper artifact (DESIGN.md §4),
//! at reduced scale so `cargo test` stays fast. The full-scale harnesses
//! live in `crates/bench/src/bin/`.

use ideaflow::core::coevolution::{evaluate, CoevolutionParams};
use ideaflow::costmodel::capability::CapabilityModel;
use ideaflow::costmodel::cost::CostModel;
use ideaflow_bench::experiments::{
    fig03_noise, fig06_orchestration, fig07_mab, fig08_accuracy, fig09_drv, fig10_card,
    fig11_metrics, tab01_doomed,
};

#[test]
fn e_f1_capability_gap_compounds() {
    let m = CapabilityModel::default();
    let s = m.series(1995..=2015).unwrap();
    assert!((s[0].gap() - 1.0).abs() < 1e-9);
    assert!(s.last().unwrap().gap() > 2.0);
}

#[test]
fn e_f2_cost_scenarios() {
    let m = CostModel::new();
    assert!((m.design_cost_musd(2013, 2013).unwrap() - 45.4).abs() < 1e-9);
    let b_2013 = m.design_cost_musd(2013, 2000).unwrap();
    let b_2028 = m.design_cost_musd(2028, 2000).unwrap();
    let f_2028 = m.design_cost_musd(2028, 2013).unwrap();
    assert!(b_2013 > 500.0 && b_2013 < 2_000.0); // ~$1B
    assert!(b_2028 > 30_000.0); // ~$70B
    assert!(f_2028 > 2_000.0 && f_2028 < 6_000.0); // ~$3.4B
}

#[test]
fn e_f3_noise_shape() {
    let d = fig03_noise::run(250, 30, 150, 1);
    assert!(d.sweep.last().unwrap().rel_sigma > d.sweep[0].rel_sigma);
    assert!(d.jarque_bera < 8.0);
}

#[test]
fn e_f4_future_flips_the_arrows() {
    let today = evaluate(CoevolutionParams::today()).unwrap();
    let future = evaluate(CoevolutionParams::future()).unwrap();
    assert!(future.achieved_quality > today.achieved_quality);
    assert!(future.expected_iterations < today.expected_iterations);
}

#[test]
fn e_f6_orchestration_shapes() {
    let g = fig06_orchestration::run_gwtw(6, 3);
    assert!(g.gwtw_best <= g.independent_best + 1.0);
    let a = fig06_orchestration::run_ams(6, 12, 3);
    assert!(a.adaptive_best <= a.random_best + 1.0);
}

#[test]
fn e_f7_mab_concentrates() {
    let d = fig07_mab::run(250, 2);
    assert!(*d.best_line.last().unwrap() > 0.75 * d.fmax_ghz);
}

#[test]
fn e_f8_accuracy_for_free() {
    let d = fig08_accuracy::run(400, 2);
    let gba = d.points.iter().find(|p| p.name == "gba_tt").unwrap();
    let ml = d.points.iter().find(|p| p.name.contains("ml")).unwrap();
    assert!(ml.rmse_ps < gba.rmse_ps);
    assert!(d.missing_corner_r2 > 0.8);
}

#[test]
fn e_f9_class_shapes() {
    let d = fig09_drv::run(3);
    assert_eq!(d.trajectories.len(), 4);
}

#[test]
fn e_f10_card_regions() {
    let d = fig10_card::run(4);
    // Very large violation counts: STOP (rule-filled right edge).
    assert_eq!(d.card.action(17, 3), ideaflow::mdp::doomed::Action::Stop);
}

#[test]
fn e_t1_error_table_shape() {
    let d = tab01_doomed::run(5);
    let t = &d.testing;
    assert!(t[0].error_rate() > t[1].error_rate());
    assert!(t[1].error_rate() > t[2].error_rate());
    assert!(t[2].error_rate() < 0.05);
}

#[test]
fn e_f11_metrics_pipeline() {
    let d = fig11_metrics::run(250, 6);
    assert_eq!(d.records_collected, 8 * 3 * 6);
    assert_eq!(d.wns_sensitivities[0].0, "signoff.target_ghz");
    // Bit-pinned: the mined numbers must not move when the collection
    // transport changes.
    let sensitivities: Vec<(&str, u64)> = d
        .wns_sensitivities
        .iter()
        .map(|(name, effect)| (name.as_str(), effect.to_bits()))
        .collect();
    assert_eq!(
        sensitivities,
        [
            ("signoff.target_ghz", 0xc07c_7ce6_0bd0_03e2),
            ("floorplan.utilization", 0xc024_3216_9a3c_bb00),
            ("floorplan.aspect_ratio", 0),
        ]
    );
    assert_eq!(d.prescribed_ghz.to_bits(), 0x3fe7_7a34_b560_1bac);
    assert_eq!(d.true_fmax_ghz.to_bits(), 0x3fe7_7b5c_594c_651e);
    assert_eq!(d.adapted_target_ghz.to_bits(), 0x3fe4_fbc9_8882_10cd);
}

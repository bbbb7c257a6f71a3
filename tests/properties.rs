//! Property-based tests on core data structures and invariants, spanning
//! crates (workspace policy: proptest on everything with an invariant).

use ideaflow::flow::options::SpnrOptions;
use ideaflow::mdp::doomed::{bin_delta, bin_violations, D_BINS, V_BINS};
use ideaflow::mlkit::linreg::RidgeRegression;
use ideaflow::mlkit::stats::{mean, quantile, std_dev};
use ideaflow::netlist::eyechart::{Eyechart, DRIVES};
use ideaflow::netlist::generate::{DesignClass, DesignSpec};
use ideaflow::place::floorplan::Floorplan;
use ideaflow::place::guardband::{normal_cdf, normal_quantile};
use ideaflow::place::placer::random_placement;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated netlists are always well-formed: topological order covers
    /// every instance and every net has consistent sink lists.
    #[test]
    fn generated_netlists_are_well_formed(
        n in 32usize..400,
        seed in 0u64..1_000,
        class_idx in 0usize..6,
    ) {
        let class = DesignClass::ALL[class_idx];
        let nl = DesignSpec::new(class, n).unwrap().generate(seed);
        prop_assert_eq!(nl.topo_order().len(), nl.instance_count());
        for (i, inst) in nl.instances().iter().enumerate() {
            prop_assert_eq!(inst.inputs.len(), inst.cell.kind.input_count());
            // Every input net lists this instance as a sink.
            for &input in &inst.inputs {
                prop_assert!(nl.net(input).sinks.iter().any(|s| s.0 as usize == i));
            }
        }
    }

    /// Random placements are always legal permutations.
    #[test]
    fn random_placements_are_legal(n in 32usize..300, seed in 0u64..500) {
        let nl = DesignSpec::new(DesignClass::Cpu, n).unwrap().generate(3);
        let fp = Floorplan::for_netlist(&nl, 0.7, 1.0).unwrap();
        let p = random_placement(&nl, &fp, seed).unwrap();
        prop_assert!(p.validate(&nl, &fp).is_ok());
    }

    /// Doomed-run binning is total and in-range for any inputs.
    #[test]
    fn binning_is_total(prev in 0u64..10_000_000, cur in 0u64..10_000_000) {
        prop_assert!(bin_violations(cur) < V_BINS);
        prop_assert!(bin_delta(prev, cur) < D_BINS);
    }

    /// OLS on exactly-linear data recovers the generating weights.
    #[test]
    fn ols_recovers_linear_models(
        w0 in -10.0f64..10.0,
        w1 in -10.0f64..10.0,
        b in -10.0f64..10.0,
    ) {
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![f64::from(i), f64::from((i * 7) % 5)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| w0 * r[0] + w1 * r[1] + b).collect();
        let m = RidgeRegression::fit(&xs, &ys, 0.0).unwrap();
        prop_assert!((m.weights()[0] - w0).abs() < 1e-6);
        prop_assert!((m.weights()[1] - w1).abs() < 1e-6);
        prop_assert!((m.intercept() - b).abs() < 1e-6);
    }

    /// The normal quantile inverts the normal CDF over the open interval.
    #[test]
    fn quantile_inverts_cdf(p in 0.001f64..0.999) {
        let z = normal_quantile(p);
        prop_assert!((normal_cdf(z) - p).abs() < 1e-6);
    }

    /// Quantiles are monotone and bracketed by the data range.
    #[test]
    fn quantiles_are_monotone(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..60),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let a = quantile(&xs, lo);
        let b = quantile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        xs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert!(a >= xs[0] - 1e-9 && b <= xs[xs.len() - 1] + 1e-9);
    }

    /// Mean/std are translation-consistent.
    #[test]
    fn stats_translation(xs in proptest::collection::vec(-1e3f64..1e3, 2..40), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((mean(&shifted) - mean(&xs) - shift).abs() < 1e-6);
        prop_assert!((std_dev(&shifted) - std_dev(&xs)).abs() < 1e-6);
    }

    /// The eyechart DP solution is never beaten by any random assignment.
    #[test]
    fn eyechart_dp_is_optimal(
        stages in 1usize..5,
        load in 1.0f64..200.0,
        picks in proptest::collection::vec(0usize..4, 5),
    ) {
        let chart = Eyechart::new(stages, load).unwrap();
        let opt = chart.optimal();
        let drives: Vec<u8> = picks[..stages].iter().map(|&i| DRIVES[i]).collect();
        prop_assert!(chart.evaluate(&drives).delay_ps >= opt.delay_ps - 1e-9);
    }

    /// Flow QoR is a pure function of (options, sample).
    #[test]
    fn flow_runs_are_reproducible(frac in 0.4f64..1.3, sample in 0u32..1_000) {
        // One static flow for all cases would be ideal; construction is
        // cheap at this size.
        let flow = ideaflow::flow::spnr::SpnrFlow::new(
            DesignSpec::new(DesignClass::Cpu, 64).unwrap(),
            99,
        );
        let opts = SpnrOptions::with_target_ghz(flow.fmax_ref_ghz() * frac).unwrap();
        prop_assert_eq!(flow.run(&opts, sample), flow.run(&opts, sample));
    }
}

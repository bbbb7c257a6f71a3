//! The noise → guardband → iterations model behind paper Fig 4.
//!
//! \[21\]\[22\] (cited in Challenge 2) observe that unpredictability in design
//! implementation forces guardbanding of design targets: "if designers want
//! predictable results, they must aim low". This module quantifies that:
//! given Gaussian tool noise of width `sigma`, the margin needed to pass
//! with confidence `q` is `z(q)·sigma`; conversely an under-margined target
//! passes with probability `p` and needs `1/p` expected flow iterations.

/// Standard normal cumulative distribution function.
#[must_use]
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Complementary error function (Abramowitz–Stegun 7.1.26-based rational
/// approximation; max absolute error ~1.5e-7, ample for guardband math).
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.5 * ax);
    let tau = t
        * (-ax * ax - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        tau
    } else {
        2.0 - tau
    }
}

/// Inverse standard normal CDF (Acklam's algorithm; relative error < 1e-9).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The guardband/iteration model for one flow step with Gaussian QoR noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardbandModel {
    /// Standard deviation of the tool's QoR noise, in QoR units.
    pub sigma: f64,
}

impl GuardbandModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    #[must_use]
    pub fn new(sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { sigma }
    }

    /// Margin needed so one run meets target with probability `confidence`.
    ///
    /// # Panics
    ///
    /// Panics unless `confidence` is in `(0, 1)`.
    #[must_use]
    pub fn guardband_for(&self, confidence: f64) -> f64 {
        normal_quantile(confidence) * self.sigma
    }

    /// Probability a single run meets the target when `margin` QoR units of
    /// guardband are adopted (noise is zero-mean Gaussian).
    #[must_use]
    pub fn pass_probability(&self, margin: f64) -> f64 {
        if self.sigma == 0.0 {
            return if margin >= 0.0 { 1.0 } else { 0.0 };
        }
        normal_cdf(margin / self.sigma)
    }

    /// Expected flow iterations until the first pass (geometric law),
    /// clamped to at most `cap` for display.
    #[must_use]
    pub fn expected_iterations(&self, margin: f64, cap: f64) -> f64 {
        let p = self.pass_probability(margin);
        if p <= 0.0 {
            cap
        } else {
            (1.0 / p).min(cap)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_and_quantile_are_inverses() {
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn known_quantiles() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((normal_quantile(0.841_344_7) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.0, 0.3, 1.0, 2.5] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-7);
        }
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn more_confidence_needs_more_margin() {
        let m = GuardbandModel::new(2.0);
        assert!(m.guardband_for(0.99) > m.guardband_for(0.9));
        assert!(m.guardband_for(0.9) > m.guardband_for(0.5));
        // One-sigma margin buys ~84% confidence.
        assert!((m.pass_probability(2.0) - 0.841_344_7).abs() < 1e-4);
    }

    #[test]
    fn zero_margin_means_coin_flip_and_two_iterations() {
        let m = GuardbandModel::new(1.0);
        assert!((m.pass_probability(0.0) - 0.5).abs() < 1e-7);
        assert!((m.expected_iterations(0.0, 1e6) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn noiseless_tool_needs_no_guardband() {
        let m = GuardbandModel::new(0.0);
        assert_eq!(m.pass_probability(0.0), 1.0);
        assert_eq!(m.expected_iterations(0.0, 1e6), 1.0);
        assert_eq!(m.pass_probability(-0.1), 0.0);
    }

    #[test]
    #[should_panic(expected = "p in (0,1)")]
    fn quantile_rejects_bounds() {
        let _ = normal_quantile(1.0);
    }
}

//! The SP&R tool's command-option space.
//!
//! The paper notes "a P&R tool today has well over ten thousand
//! command-option combinations". We model the axes that matter to QoR:
//! target frequency, utilization, aspect ratio, per-step efforts.

use crate::FlowError;

/// Tool effort level for a flow step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Effort {
    /// Fastest, lowest quality.
    Low,
    /// Balanced.
    #[default]
    Medium,
    /// Slowest, highest quality.
    High,
}

impl Effort {
    /// All efforts, ascending.
    pub const ALL: [Effort; 3] = [Effort::Low, Effort::Medium, Effort::High];

    /// Multiplier on achievable frequency (higher effort closes more
    /// timing).
    #[must_use]
    pub fn fmax_factor(self) -> f64 {
        match self {
            Effort::Low => 0.94,
            Effort::Medium => 1.0,
            Effort::High => 1.05,
        }
    }

    /// Multiplier on area (higher effort recovers area).
    #[must_use]
    pub fn area_factor(self) -> f64 {
        match self {
            Effort::Low => 1.06,
            Effort::Medium => 1.0,
            Effort::High => 0.97,
        }
    }

    /// Multiplier on runtime.
    #[must_use]
    pub fn runtime_factor(self) -> f64 {
        match self {
            Effort::Low => 0.6,
            Effort::Medium => 1.0,
            Effort::High => 2.2,
        }
    }

    /// Multiplier on tool noise (higher effort is *more* chaotic near the
    /// limit — more heuristics firing; cf. Challenge 2).
    #[must_use]
    pub fn noise_factor(self) -> f64 {
        match self {
            Effort::Low => 0.9,
            Effort::Medium => 1.0,
            Effort::High => 1.15,
        }
    }
}

/// One full option vector for an SP&R run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpnrOptions {
    /// Target clock frequency, GHz.
    pub target_ghz: f64,
    /// Placement utilization (0.5–0.9 sensible).
    pub utilization: f64,
    /// Core aspect ratio (height / width).
    pub aspect_ratio: f64,
    /// Aggressive clock-tree style: fewer clock buffers and less clock
    /// power, at the cost of skew (which eats setup margin).
    pub cts_aggressive: bool,
    /// Synthesis effort.
    pub synth_effort: Effort,
    /// Placement effort.
    pub place_effort: Effort,
    /// Routing effort.
    pub route_effort: Effort,
}

impl SpnrOptions {
    /// Default options at the given target frequency.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidParameter`] unless `0 < ghz <= 20`.
    pub fn with_target_ghz(ghz: f64) -> Result<Self, FlowError> {
        if !(ghz > 0.0 && ghz <= 20.0) {
            return Err(FlowError::InvalidParameter {
                name: "target_ghz",
                detail: format!("must be in (0, 20], got {ghz}"),
            });
        }
        Ok(Self {
            target_ghz: ghz,
            utilization: 0.70,
            aspect_ratio: 1.0,
            cts_aggressive: false,
            synth_effort: Effort::Medium,
            place_effort: Effort::Medium,
            route_effort: Effort::Medium,
        })
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidParameter`] on any out-of-range field.
    pub fn validate(&self) -> Result<(), FlowError> {
        if !(self.target_ghz > 0.0 && self.target_ghz <= 20.0) {
            return Err(FlowError::InvalidParameter {
                name: "target_ghz",
                detail: format!("must be in (0, 20], got {}", self.target_ghz),
            });
        }
        if !(self.utilization >= 0.3 && self.utilization <= 0.95) {
            return Err(FlowError::InvalidParameter {
                name: "utilization",
                detail: format!("must be in [0.3, 0.95], got {}", self.utilization),
            });
        }
        if !(self.aspect_ratio >= 0.25 && self.aspect_ratio <= 4.0) {
            return Err(FlowError::InvalidParameter {
                name: "aspect_ratio",
                detail: format!("must be in [0.25, 4], got {}", self.aspect_ratio),
            });
        }
        Ok(())
    }

    /// Combined effort factors over the three efforts.
    #[must_use]
    pub fn combined_fmax_factor(&self) -> f64 {
        self.synth_effort.fmax_factor()
            * self.place_effort.fmax_factor()
            * self.route_effort.fmax_factor()
    }

    /// Combined area factor.
    #[must_use]
    pub fn combined_area_factor(&self) -> f64 {
        self.synth_effort.area_factor()
            * self.place_effort.area_factor()
            * self.route_effort.area_factor()
    }

    /// Combined runtime factor.
    #[must_use]
    pub fn combined_runtime_factor(&self) -> f64 {
        self.synth_effort.runtime_factor()
            * self.place_effort.runtime_factor()
            * self.route_effort.runtime_factor()
    }

    /// Combined noise factor.
    #[must_use]
    pub fn combined_noise_factor(&self) -> f64 {
        self.synth_effort.noise_factor()
            * self.place_effort.noise_factor()
            * self.route_effort.noise_factor()
    }

    /// A stable 64-bit fingerprint of the option vector (defines the
    /// "arm": same options ⇒ same noise distribution).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix((self.target_ghz * 1e6) as u64);
        mix((self.utilization * 1e6) as u64);
        mix((self.aspect_ratio * 1e6) as u64);
        mix(u64::from(self.cts_aggressive));
        mix(self.synth_effort as u64);
        mix(self.place_effort as u64 + 10);
        mix(self.route_effort as u64 + 20);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_validate() {
        let o = SpnrOptions::with_target_ghz(0.5).unwrap();
        o.validate().unwrap();
    }

    #[test]
    fn bad_ranges_are_rejected() {
        assert!(SpnrOptions::with_target_ghz(0.0).is_err());
        let mut o = SpnrOptions::with_target_ghz(0.5).unwrap();
        o.utilization = 0.1;
        assert!(o.validate().is_err());
        o.utilization = 0.7;
        o.aspect_ratio = 10.0;
        assert!(o.validate().is_err());
    }

    #[test]
    fn effort_orderings() {
        assert!(Effort::High.fmax_factor() > Effort::Low.fmax_factor());
        assert!(Effort::High.runtime_factor() > Effort::Low.runtime_factor());
        assert!(Effort::High.area_factor() < Effort::Low.area_factor());
    }

    #[test]
    fn fingerprint_distinguishes_options() {
        let a = SpnrOptions::with_target_ghz(0.5).unwrap();
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.target_ghz = 0.52;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.place_effort = Effort::High;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.cts_aggressive = true;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn combined_factors_multiply() {
        let mut o = SpnrOptions::with_target_ghz(0.5).unwrap();
        o.synth_effort = Effort::High;
        o.place_effort = Effort::High;
        o.route_effort = Effort::High;
        let f = Effort::High.fmax_factor();
        assert!((o.combined_fmax_factor() - f * f * f).abs() < 1e-12);
    }
}

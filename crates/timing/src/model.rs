//! Wire and corner models shared by both STA engines.

use crate::TimingError;

/// A lumped wire model: net length is estimated from fanout (or supplied
/// from a placement), then converted to capacitance and delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Wire capacitance per micron, in unit loads.
    pub cap_per_um: f64,
    /// Elmore wire delay per micron of net length, in ps (lumped).
    pub ps_per_um: f64,
    /// Net-length estimate per fanout: `len = pitch_um * fanout^0.75`.
    pub pitch_um: f64,
}

impl Default for WireModel {
    fn default() -> Self {
        Self {
            cap_per_um: 0.18,
            ps_per_um: 0.38,
            pitch_um: 1.6,
        }
    }
}

impl WireModel {
    /// Fanout-based net-length estimate in microns.
    #[must_use]
    pub fn estimated_length_um(&self, fanout: usize) -> f64 {
        self.pitch_um * (fanout.max(1) as f64).powf(0.75)
    }

    /// Wire capacitance for a net of the given length.
    #[must_use]
    pub fn wire_cap(&self, length_um: f64) -> f64 {
        self.cap_per_um * length_um
    }

    /// Wire delay for a net of the given length.
    #[must_use]
    pub fn wire_delay_ps(&self, length_um: f64) -> f64 {
        self.ps_per_um * length_um
    }
}

/// A process/voltage/temperature corner with a delay derate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Name, e.g. "ss_0p72v_125c".
    pub name: &'static str,
    /// Multiplier on all cell delays (1.0 = typical).
    pub cell_derate: f64,
    /// Multiplier on all wire delays.
    pub wire_derate: f64,
}

impl Corner {
    /// Typical corner.
    pub const TYPICAL: Corner = Corner {
        name: "tt_0p80v_25c",
        cell_derate: 1.0,
        wire_derate: 1.0,
    };
    /// Slow corner (setup-critical).
    pub const SLOW: Corner = Corner {
        name: "ss_0p72v_125c",
        cell_derate: 1.28,
        wire_derate: 1.12,
    };
    /// Fast corner.
    pub const FAST: Corner = Corner {
        name: "ff_0p88v_m40c",
        cell_derate: 0.82,
        wire_derate: 0.94,
    };
    /// Wire-dominated slow corner (high-resistance interconnect): mild
    /// cell derate but severe wire derate, so wire-heavy paths are worst
    /// here while cell-dominated paths are worst at [`Corner::SLOW`] —
    /// which is what makes multi-corner signoff non-redundant.
    pub const SLOW_WIRE: Corner = Corner {
        name: "ss_rcworst_125c",
        cell_derate: 1.14,
        wire_derate: 1.65,
    };
    /// Low-voltage corner — the "missing corner" of the prediction
    /// experiment: analyzed by signoff only when explicitly requested.
    pub const LOW_VOLTAGE: Corner = Corner {
        name: "ss_0p65v_125c",
        cell_derate: 1.55,
        wire_derate: 1.18,
    };

    /// The standard analyzed corner set.
    pub const STANDARD: [Corner; 4] = [
        Corner::TYPICAL,
        Corner::SLOW,
        Corner::SLOW_WIRE,
        Corner::FAST,
    ];
}

/// Clocking constraints for setup analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Clock period in ps.
    pub clock_period_ps: f64,
    /// Flop clock-to-Q delay in ps.
    pub clk_to_q_ps: f64,
    /// Flop setup time in ps.
    pub setup_ps: f64,
    /// Arrival time budget consumed at primary inputs, in ps.
    pub input_delay_ps: f64,
}

impl Constraints {
    /// Constraints for a target frequency in GHz.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::InvalidParameter`] unless `0 < ghz <= 20`.
    pub fn at_frequency_ghz(ghz: f64) -> Result<Self, TimingError> {
        if !(ghz > 0.0 && ghz <= 20.0) {
            return Err(TimingError::InvalidParameter {
                name: "ghz",
                detail: format!("must be in (0, 20], got {ghz}"),
            });
        }
        Ok(Self {
            clock_period_ps: 1_000.0 / ghz,
            clk_to_q_ps: 35.0,
            setup_ps: 22.0,
            input_delay_ps: 40.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_length_grows_with_fanout() {
        let m = WireModel::default();
        assert!(m.estimated_length_um(8) > m.estimated_length_um(1));
        assert!(m.estimated_length_um(0) == m.estimated_length_um(1));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the contract
    fn corner_derates_are_ordered() {
        assert!(Corner::SLOW.cell_derate > Corner::TYPICAL.cell_derate);
        assert!(Corner::FAST.cell_derate < Corner::TYPICAL.cell_derate);
        assert!(Corner::LOW_VOLTAGE.cell_derate > Corner::SLOW.cell_derate);
    }

    #[test]
    fn constraints_period_follows_frequency() {
        let c = Constraints::at_frequency_ghz(0.5).unwrap();
        assert!((c.clock_period_ps - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn constraints_reject_bad_frequency() {
        assert!(Constraints::at_frequency_ghz(0.0).is_err());
        assert!(Constraints::at_frequency_ghz(-1.0).is_err());
        assert!(Constraints::at_frequency_ghz(100.0).is_err());
    }

    #[test]
    fn wire_model_scales_linearly() {
        let m = WireModel::default();
        assert!((m.wire_cap(10.0) - 10.0 * m.cap_per_um).abs() < 1e-12);
        assert!((m.wire_delay_ps(10.0) - 10.0 * m.ps_per_um).abs() < 1e-12);
    }
}

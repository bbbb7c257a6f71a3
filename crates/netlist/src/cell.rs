//! A synthetic 14nm-like standard-cell library.
//!
//! Delay uses the logical-effort model `d = tau * (p + g * h)` where `h` is
//! the electrical fan-out (load / input capacitance). Parameters are chosen
//! to give realistic relative magnitudes (FO4 ≈ 5 `tau`); absolute numbers
//! are arbitrary but consistent across the workspace.

use std::fmt;

/// Logic function of a cell, independent of drive strength or VT flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter (1 input).
    Inv,
    /// Buffer (1 input).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2:1 multiplexer (3 inputs: a, b, sel).
    Mux2,
    /// AND-OR-invert 21 (3 inputs).
    Aoi21,
    /// D flip-flop (1 data input; clock is implicit).
    Dff,
}

impl CellKind {
    /// All kinds, in a stable order.
    pub const ALL: [CellKind; 10] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Mux2,
        CellKind::Aoi21,
        CellKind::Dff,
    ];

    /// Number of data inputs.
    #[must_use]
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::Nand2 | CellKind::Nor2 | CellKind::And2 | CellKind::Or2 | CellKind::Xor2 => 2,
            CellKind::Mux2 | CellKind::Aoi21 => 3,
        }
    }

    /// Whether this cell is a sequential element.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        self == CellKind::Dff
    }

    /// Logical effort `g` (per-input, averaged), after Sutherland et al.
    #[must_use]
    pub fn logical_effort(self) -> f64 {
        match self {
            CellKind::Inv => 1.0,
            CellKind::Buf => 1.0,
            CellKind::Nand2 => 4.0 / 3.0,
            CellKind::Nor2 => 5.0 / 3.0,
            CellKind::And2 => 4.0 / 3.0,
            CellKind::Or2 => 5.0 / 3.0,
            CellKind::Xor2 => 4.0,
            CellKind::Mux2 => 2.0,
            CellKind::Aoi21 => 2.0,
            CellKind::Dff => 1.5,
        }
    }

    /// Parasitic delay `p` in units of `tau`.
    #[must_use]
    pub fn parasitic_delay(self) -> f64 {
        match self {
            CellKind::Inv => 1.0,
            CellKind::Buf => 2.0,
            CellKind::Nand2 => 2.0,
            CellKind::Nor2 => 2.0,
            CellKind::And2 => 3.0,
            CellKind::Or2 => 3.0,
            CellKind::Xor2 => 4.0,
            CellKind::Mux2 => 4.0,
            CellKind::Aoi21 => 3.0,
            CellKind::Dff => 6.0,
        }
    }

    /// Area in square microns at unit drive, 14nm-like scale.
    #[must_use]
    pub fn base_area_um2(self) -> f64 {
        match self {
            CellKind::Inv => 0.16,
            CellKind::Buf => 0.22,
            CellKind::Nand2 => 0.25,
            CellKind::Nor2 => 0.25,
            CellKind::And2 => 0.30,
            CellKind::Or2 => 0.30,
            CellKind::Xor2 => 0.50,
            CellKind::Mux2 => 0.55,
            CellKind::Aoi21 => 0.40,
            CellKind::Dff => 1.10,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Dff => "DFF",
        };
        f.write_str(s)
    }
}

/// Threshold-voltage flavour of a cell; the classic leakage/speed trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum VtFlavor {
    /// Low VT: fastest, leakiest.
    LowVt,
    /// Standard VT.
    #[default]
    StdVt,
    /// High VT: slowest, least leaky.
    HighVt,
}

impl VtFlavor {
    /// Multiplier on cell delay.
    #[must_use]
    pub fn delay_factor(self) -> f64 {
        match self {
            VtFlavor::LowVt => 0.85,
            VtFlavor::StdVt => 1.0,
            VtFlavor::HighVt => 1.25,
        }
    }

    /// Multiplier on leakage power.
    #[must_use]
    pub fn leakage_factor(self) -> f64 {
        match self {
            VtFlavor::LowVt => 4.0,
            VtFlavor::StdVt => 1.0,
            VtFlavor::HighVt => 0.25,
        }
    }
}

/// A concrete library cell: a kind at a drive strength and VT flavour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LibCell {
    /// Logic function.
    pub kind: CellKind,
    /// Drive strength (1, 2, 4, 8 = X1..X8).
    pub drive: u8,
    /// Threshold flavour.
    pub vt: VtFlavor,
}

impl LibCell {
    /// Creates a cell; drive must be a power of two in 1..=8.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::InvalidParameter`] for other drives.
    pub fn new(kind: CellKind, drive: u8, vt: VtFlavor) -> Result<Self, crate::NetlistError> {
        if !matches!(drive, 1 | 2 | 4 | 8) {
            return Err(crate::NetlistError::InvalidParameter {
                name: "drive",
                detail: format!("must be 1, 2, 4 or 8; got {drive}"),
            });
        }
        Ok(Self { kind, drive, vt })
    }

    /// Unit-drive standard-VT cell of the given kind.
    #[must_use]
    pub fn unit(kind: CellKind) -> Self {
        Self {
            kind,
            drive: 1,
            vt: VtFlavor::StdVt,
        }
    }

    /// Input capacitance in unit loads (scales with drive).
    #[must_use]
    pub fn input_cap(&self) -> f64 {
        f64::from(self.drive) * self.kind.logical_effort()
    }

    /// Cell area in square microns (grows sublinearly with drive).
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.kind.base_area_um2() * f64::from(self.drive).powf(0.8)
    }

    /// Leakage power in nanowatts.
    #[must_use]
    pub fn leakage_nw(&self) -> f64 {
        2.0 * f64::from(self.drive) * self.vt.leakage_factor()
    }

    /// Stage delay in picoseconds given an external load (in unit loads),
    /// using logical effort: `d = tau (p + g * C_load / C_drive)`.
    #[must_use]
    pub fn delay_ps(&self, load: f64) -> f64 {
        const TAU_PS: f64 = 4.0; // 14nm-like time unit
        let h = load / f64::from(self.drive);
        TAU_PS
            * (self.kind.parasitic_delay() + self.kind.logical_effort() * h)
            * self.vt.delay_factor()
    }
}

impl fmt::Display for LibCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vt = match self.vt {
            VtFlavor::LowVt => "LVT",
            VtFlavor::StdVt => "SVT",
            VtFlavor::HighVt => "HVT",
        };
        write!(f, "{}_X{}_{vt}", self.kind, self.drive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_counts() {
        assert_eq!(CellKind::Inv.input_count(), 1);
        assert_eq!(CellKind::Nand2.input_count(), 2);
        assert_eq!(CellKind::Mux2.input_count(), 3);
        assert_eq!(CellKind::Dff.input_count(), 1);
    }

    #[test]
    fn only_dff_is_sequential() {
        for k in CellKind::ALL {
            assert_eq!(k.is_sequential(), k == CellKind::Dff);
        }
    }

    #[test]
    fn fo4_delay_is_about_five_tau() {
        // An inverter driving 4 copies of itself: d = p + g*4 = 5 tau = 20 ps.
        let inv = LibCell::unit(CellKind::Inv);
        let load = 4.0 * inv.input_cap();
        assert!((inv.delay_ps(load) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn higher_drive_is_faster_into_fixed_load() {
        let x1 = LibCell::new(CellKind::Nand2, 1, VtFlavor::StdVt).unwrap();
        let x4 = LibCell::new(CellKind::Nand2, 4, VtFlavor::StdVt).unwrap();
        assert!(x4.delay_ps(16.0) < x1.delay_ps(16.0));
    }

    #[test]
    fn higher_drive_has_more_area_and_cap() {
        let x1 = LibCell::new(CellKind::Inv, 1, VtFlavor::StdVt).unwrap();
        let x8 = LibCell::new(CellKind::Inv, 8, VtFlavor::StdVt).unwrap();
        assert!(x8.area_um2() > x1.area_um2());
        assert!(x8.input_cap() > x1.input_cap());
    }

    #[test]
    fn vt_tradeoff() {
        let lvt = LibCell::new(CellKind::Inv, 1, VtFlavor::LowVt).unwrap();
        let hvt = LibCell::new(CellKind::Inv, 1, VtFlavor::HighVt).unwrap();
        assert!(lvt.delay_ps(4.0) < hvt.delay_ps(4.0));
        assert!(lvt.leakage_nw() > hvt.leakage_nw());
    }

    #[test]
    fn rejects_bad_drive() {
        assert!(LibCell::new(CellKind::Inv, 3, VtFlavor::StdVt).is_err());
        assert!(LibCell::new(CellKind::Inv, 0, VtFlavor::StdVt).is_err());
        assert!(LibCell::new(CellKind::Inv, 16, VtFlavor::StdVt).is_err());
    }

    #[test]
    fn display_names() {
        let c = LibCell::new(CellKind::Nand2, 4, VtFlavor::LowVt).unwrap();
        assert_eq!(c.to_string(), "NAND2_X4_LVT");
    }
}

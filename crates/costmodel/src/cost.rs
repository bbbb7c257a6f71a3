//! The ITRS-style SOC design cost model.

use crate::CostError;

/// A design-technology innovation: delivered in `year`, it multiplies
/// designer productivity by `factor` from that year on.
#[derive(Debug, Clone, PartialEq)]
pub struct DtInnovation {
    /// Innovation name (after the ITRS Design Cost Model chart).
    pub name: &'static str,
    /// Delivery year.
    pub year: u32,
    /// Productivity multiplier.
    pub factor: f64,
}

/// The ITRS innovation schedule, historical (1993–2013) and forecast
/// (post-2013). Factors are calibrated so that freezing the schedule at
/// 2000 vs 2013 reproduces the footnote-1 cost ratios.
#[must_use]
pub fn itrs_innovations() -> Vec<DtInnovation> {
    vec![
        DtInnovation {
            name: "In-house place & route",
            year: 1993,
            factor: 3.8,
        },
        DtInnovation {
            name: "Tall-thin engineer",
            year: 1995,
            factor: 1.4,
        },
        DtInnovation {
            name: "Small-block reuse",
            year: 1997,
            factor: 2.5,
        },
        DtInnovation {
            name: "Large-block reuse",
            year: 1999,
            factor: 2.0,
        },
        DtInnovation {
            name: "IC implementation suite",
            year: 2001,
            factor: 2.0,
        },
        DtInnovation {
            name: "RTL functional verification tool suite",
            year: 2003,
            factor: 1.7,
        },
        DtInnovation {
            name: "Electronic system-level methodology",
            year: 2005,
            factor: 1.6,
        },
        DtInnovation {
            name: "Very large block reuse",
            year: 2007,
            factor: 1.5,
        },
        DtInnovation {
            name: "Intelligent testbench",
            year: 2009,
            factor: 1.45,
        },
        DtInnovation {
            name: "Concurrent software compiler",
            year: 2011,
            factor: 1.35,
        },
        DtInnovation {
            name: "Heterogeneous parallel processing",
            year: 2013,
            factor: 1.25,
        },
        // Forecast beyond 2013 (the optimism the paper says failed to
        // materialize; exclude these to reproduce the $3.4B scenario).
        DtInnovation {
            name: "System-level design automation",
            year: 2016,
            factor: 1.8,
        },
        DtInnovation {
            name: "Executable-specification flows",
            year: 2019,
            factor: 1.7,
        },
        DtInnovation {
            name: "Chip-package-system co-design",
            year: 2022,
            factor: 1.6,
        },
        DtInnovation {
            name: "No-human-in-the-loop implementation",
            year: 2025,
            factor: 1.9,
        },
    ]
}

/// The calibrated SOC-CP cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    innovations: Vec<DtInnovation>,
    /// Transistors in the SOC-CP driver at the anchor year.
    anchor_transistors: f64,
    /// Anchor year (2013).
    anchor_year: u32,
    /// Anchor design cost in $M with all innovations through the anchor
    /// year (footnote 1: $45.4M).
    anchor_cost_musd: f64,
    /// Annual growth of the SOC-CP transistor count (footnote-derived:
    /// ~75x over 2013→2028 ⇒ ~1.31/yr after salary inflation).
    transistor_growth: f64,
    /// Annual inflation of engineering cost (salary + tools + servers).
    cost_inflation: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            innovations: itrs_innovations(),
            anchor_transistors: 2.0e9,
            anchor_year: 2013,
            anchor_cost_musd: 45.4,
            transistor_growth: 1.305,
            cost_inflation: 1.02,
        }
    }
}

impl CostModel {
    /// Creates the default (ITRS-calibrated) model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The innovation schedule.
    #[must_use]
    pub fn innovations(&self) -> &[DtInnovation] {
        &self.innovations
    }

    /// SOC-CP transistor count in `year`.
    #[must_use]
    pub fn transistors(&self, year: u32) -> f64 {
        let dy = f64::from(year) - f64::from(self.anchor_year);
        self.anchor_transistors * self.transistor_growth.powf(dy)
    }

    /// Combined productivity factor of innovations delivered by `year`,
    /// counting only those delivered in or before `dt_freeze_year`.
    fn productivity_factor(&self, year: u32, dt_freeze_year: u32) -> f64 {
        self.innovations
            .iter()
            .filter(|i| i.year <= year && i.year <= dt_freeze_year)
            .map(|i| i.factor)
            .product()
    }

    /// Total SOC-CP design cost in $M for `year`, with DT innovation
    /// frozen after `dt_freeze_year`.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidParameter`] for years before 1985.
    pub fn design_cost_musd(&self, year: u32, dt_freeze_year: u32) -> Result<f64, CostError> {
        if year < 1985 {
            return Err(CostError::InvalidParameter {
                name: "year",
                detail: format!("model calibrated for 1985+, got {year}"),
            });
        }
        // Cost = transistors / (base productivity × innovation factors) ×
        // engineer-month cost. Base productivity is implied by the anchor:
        // anchor_cost = T_anchor / (P0 × F(anchor)) × C(anchor).
        let dy = f64::from(year) - f64::from(self.anchor_year);
        let engineer_cost_rel = self.cost_inflation.powf(dy);
        let f_anchor = self.productivity_factor(self.anchor_year, self.anchor_year);
        let f_now = self.productivity_factor(year, dt_freeze_year);
        Ok(self.anchor_cost_musd
            * (self.transistors(year) / self.anchor_transistors)
            * engineer_cost_rel
            * (f_anchor / f_now))
    }

    /// Verification's share of total cost (grows over time; Fig 2 shows
    /// verification cost tracking, then dominating, design cost).
    #[must_use]
    pub fn verification_share(&self, year: u32) -> f64 {
        let dy = (f64::from(year) - 1990.0).max(0.0);
        (0.2 + 0.02 * dy).min(0.65)
    }

    /// The Fig 2 series for a year range: `(year, transistors, design
    /// cost $M, verification cost $M)` with the full (delivered +
    /// forecast) DT schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`CostModel::design_cost_musd`] errors.
    pub fn fig2_series(
        &self,
        years: std::ops::RangeInclusive<u32>,
    ) -> Result<Vec<Fig2Row>, CostError> {
        years
            .map(|year| {
                let design = self.design_cost_musd(year, u32::MAX)?;
                let share = self.verification_share(year);
                Ok(Fig2Row {
                    year,
                    transistors: self.transistors(year),
                    design_cost_musd: design,
                    verification_cost_musd: design * share / (1.0 - share),
                })
            })
            .collect()
    }
}

/// One row of the Fig 2 trend series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Row {
    /// Calendar year.
    pub year: u32,
    /// Transistors per chip.
    pub transistors: f64,
    /// Design (implementation) cost, $M.
    pub design_cost_musd: f64,
    /// Verification cost, $M.
    pub verification_cost_musd: f64,
}

/// The footnote-1 scenario table: `(label, year, cost $M)`.
///
/// # Errors
///
/// Propagates model errors (none for the fixed years used).
pub fn footnote1_scenarios(model: &CostModel) -> Result<Vec<(String, u32, f64)>, CostError> {
    Ok(vec![
        (
            "all DT through 2013".into(),
            2013,
            model.design_cost_musd(2013, 2013)?,
        ),
        (
            "DT frozen at 2000, in 2013".into(),
            2013,
            model.design_cost_musd(2013, 2000)?,
        ),
        (
            "DT frozen at 2000, in 2028".into(),
            2028,
            model.design_cost_musd(2028, 2000)?,
        ),
        (
            "DT frozen at 2013, in 2028".into(),
            2028,
            model.design_cost_musd(2028, 2013)?,
        ),
        (
            "full forecast DT, in 2028".into(),
            2028,
            model.design_cost_musd(2028, u32::MAX)?,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_cost_is_exact() {
        let m = CostModel::new();
        let c = m.design_cost_musd(2013, 2013).unwrap();
        assert!((c - 45.4).abs() < 1e-9, "anchor cost {c}");
    }

    #[test]
    fn footnote_scenarios_have_paper_magnitudes() {
        let m = CostModel::new();
        // Frozen at 2000, 2013: ~$1B (paper: "at $1B in 2013").
        let c2013 = m.design_cost_musd(2013, 2000).unwrap();
        assert!(
            (600.0..1_800.0).contains(&c2013),
            "frozen-2000 cost in 2013 = {c2013} $M"
        );
        // Frozen at 2000, 2028: ~$70B.
        let c2028 = m.design_cost_musd(2028, 2000).unwrap();
        assert!(
            (40_000.0..120_000.0).contains(&c2028),
            "frozen-2000 cost in 2028 = {c2028} $M"
        );
        // Frozen at 2013, 2028: ~$3.4B.
        let c2028b = m.design_cost_musd(2028, 2013).unwrap();
        assert!(
            (2_000.0..5_500.0).contains(&c2028b),
            "frozen-2013 cost in 2028 = {c2028b} $M"
        );
    }

    #[test]
    fn forecast_dt_keeps_cost_in_tens_of_millions() {
        let m = CostModel::new();
        let c = m.design_cost_musd(2028, u32::MAX).unwrap();
        // The model's in-built optimism: "some trajectory of DT innovation
        // that would keep SOC-CP design cost under a ceiling of several
        // tens of $M".
        assert!(c < 500.0, "forecast cost {c} $M");
        assert!(c > 10.0);
    }

    #[test]
    fn costs_decrease_with_more_innovation() {
        let m = CostModel::new();
        let frozen_2000 = m.design_cost_musd(2020, 2000).unwrap();
        let frozen_2013 = m.design_cost_musd(2020, 2013).unwrap();
        let full = m.design_cost_musd(2020, u32::MAX).unwrap();
        assert!(frozen_2000 > frozen_2013);
        assert!(frozen_2013 > full);
    }

    #[test]
    fn transistor_growth_is_monotone() {
        let m = CostModel::new();
        assert!(m.transistors(2020) > m.transistors(2010));
        assert!((m.transistors(2013) - 2.0e9).abs() < 1.0);
    }

    #[test]
    fn fig2_series_shapes() {
        let m = CostModel::new();
        let rows = m.fig2_series(1995..=2015).unwrap();
        assert_eq!(rows.len(), 21);
        // Transistors grow monotonically; verification share grows.
        for w in rows.windows(2) {
            assert!(w[1].transistors > w[0].transistors);
        }
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        assert!(
            last.verification_cost_musd / last.design_cost_musd
                > first.verification_cost_musd / first.design_cost_musd
        );
    }

    #[test]
    fn scenario_table_is_complete() {
        let m = CostModel::new();
        let t = footnote1_scenarios(&m).unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn rejects_prehistoric_years() {
        let m = CostModel::new();
        assert!(m.design_cost_musd(1950, 2000).is_err());
    }
}

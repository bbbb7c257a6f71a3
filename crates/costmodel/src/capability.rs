//! The Design Capability Gap (paper Fig 1, refs \[41\]\[17\]).
//!
//! Fig 1 contrasts *available* transistor-density scaling (what the
//! process node offers) with *realized* density (what designed products
//! achieve). The gap compounds after ~2000 due to a non-ideal scaling
//! A-factor (larger cells and wires for reliability/variability) and
//! growth of uncore logic (small distributed functions that do not pack).

use crate::CostError;

/// One point of the Fig 1 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityPoint {
    /// Calendar year.
    pub year: u32,
    /// Available density, transistors/mm².
    pub available_per_mm2: f64,
    /// Realized density, transistors/mm².
    pub realized_per_mm2: f64,
}

impl DensityPoint {
    /// The capability gap (available / realized, ≥ 1).
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.available_per_mm2 / self.realized_per_mm2
    }
}

/// Parameters of the capability-gap model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapabilityModel {
    /// Density at `base_year`, transistors/mm².
    pub base_density: f64,
    /// Year at which available and realized coincide.
    pub base_year: u32,
    /// Moore doubling period (years) for available density.
    pub doubling_years: f64,
    /// Year the gap starts compounding (non-ideal A-factor onset).
    pub gap_onset_year: u32,
    /// Annual compounding rate of the gap after onset (e.g. 0.08 ⇒ the
    /// realized line loses 8%/yr against the available line).
    pub gap_rate: f64,
}

impl Default for CapabilityModel {
    fn default() -> Self {
        Self {
            base_density: 2.0e5,
            base_year: 1995,
            doubling_years: 2.0,
            gap_onset_year: 2001,
            gap_rate: 0.085,
        }
    }
}

impl CapabilityModel {
    /// Available density in `year`.
    #[must_use]
    pub fn available(&self, year: u32) -> f64 {
        let dy = f64::from(year) - f64::from(self.base_year);
        self.base_density * 2f64.powf(dy / self.doubling_years)
    }

    /// Realized density in `year`.
    #[must_use]
    pub fn realized(&self, year: u32) -> f64 {
        let lag = (f64::from(year) - f64::from(self.gap_onset_year)).max(0.0);
        self.available(year) / (1.0 + self.gap_rate).powf(lag)
    }

    /// The Fig 1 series over a year range.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidParameter`] for an empty range.
    pub fn series(
        &self,
        years: std::ops::RangeInclusive<u32>,
    ) -> Result<Vec<DensityPoint>, CostError> {
        if years.is_empty() {
            return Err(CostError::InvalidParameter {
                name: "years",
                detail: "empty range".into(),
            });
        }
        Ok(years
            .map(|year| DensityPoint {
                year,
                available_per_mm2: self.available(year),
                realized_per_mm2: self.realized(year),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moore_doubling() {
        let m = CapabilityModel::default();
        assert!((m.available(1997) / m.available(1995) - 2.0).abs() < 1e-9);
        assert!((m.available(2015) / m.available(1995) - 2f64.powi(10)).abs() < 1e-6);
    }

    #[test]
    fn no_gap_before_onset() {
        let m = CapabilityModel::default();
        for y in 1995..=2001 {
            let p = DensityPoint {
                year: y,
                available_per_mm2: m.available(y),
                realized_per_mm2: m.realized(y),
            };
            assert!((p.gap() - 1.0).abs() < 1e-9, "year {y} gap {}", p.gap());
        }
    }

    #[test]
    fn gap_compounds_after_onset() {
        let m = CapabilityModel::default();
        let s = m.series(1995..=2015).unwrap();
        let gaps: Vec<f64> = s.iter().map(DensityPoint::gap).collect();
        // Strictly non-decreasing, and >2x by 2015 (the ITRS 2013 chart
        // shows a substantial compounding gap by the mid-2010s).
        for w in gaps.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!(
            *gaps.last().unwrap() > 2.0,
            "2015 gap {}",
            gaps.last().unwrap()
        );
        assert!(*gaps.last().unwrap() < 10.0);
    }

    #[test]
    fn realized_still_grows() {
        // The realized line still scales — just more slowly.
        let m = CapabilityModel::default();
        assert!(m.realized(2015) > m.realized(2005));
        assert!(m.realized(2015) < m.available(2015));
    }

    #[test]
    fn series_rejects_empty_range() {
        let m = CapabilityModel::default();
        #[allow(clippy::reversed_empty_ranges)]
        let r = m.series(2000..=1999);
        assert!(r.is_err());
    }
}

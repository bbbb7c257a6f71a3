//! Feature standardization (z-score scaling).
//!
//! Several models here (logistic regression, k-NN) are sensitive to feature
//! scale; the METRICS miner standardizes all collected metrics before
//! fitting.

use crate::MlError;

/// A fitted per-feature standardizer `x' = (x - mean) / std`.
///
/// Features with zero variance are passed through centred but unscaled.
///
/// # Example
///
/// ```
/// use ideaflow_mlkit::scale::StandardScaler;
///
/// # fn main() -> Result<(), ideaflow_mlkit::MlError> {
/// let xs = vec![vec![0.0, 100.0], vec![2.0, 300.0], vec![4.0, 500.0]];
/// let s = StandardScaler::fit(&xs)?;
/// let t = s.transform(&xs);
/// // Both columns now have mean 0.
/// let m0: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
/// assert!(m0.abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-column mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on empty or ragged input.
    pub fn fit(xs: &[Vec<f64>]) -> Result<Self, MlError> {
        if xs.is_empty() {
            return Err(MlError::DimensionMismatch {
                detail: "cannot fit scaler on empty data".into(),
            });
        }
        let d = xs[0].len();
        if xs.iter().any(|r| r.len() != d) {
            return Err(MlError::DimensionMismatch {
                detail: "ragged feature rows".into(),
            });
        }
        let n = xs.len() as f64;
        let mut means = vec![0.0; d];
        for r in xs {
            for (m, v) in means.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; d];
        for r in xs {
            for ((s, v), m) in stds.iter_mut().zip(r).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // zero-variance column: centre only
            }
        }
        Ok(Self { means, stds })
    }

    /// Applies the fitted transform to a batch.
    #[must_use]
    pub fn transform(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|r| self.transform_row(r)).collect()
    }

    /// Applies the fitted transform to one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the fitted width.
    #[must_use]
    pub fn transform_row(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.means.len(), "scaler width mismatch");
        x.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((v, m), s)| (v - m) / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_produces_unit_moments() {
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![f64::from(i), 10.0 * f64::from(i)])
            .collect();
        let s = StandardScaler::fit(&xs).unwrap();
        let t = s.transform(&xs);
        for col in 0..2 {
            let vals: Vec<f64> = t.iter().map(|r| r[col]).collect();
            let m = crate::stats::mean(&vals);
            let sd = crate::stats::std_dev(&vals);
            assert!(m.abs() < 1e-10);
            assert!((sd - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn constant_column_is_centred_not_scaled() {
        let xs = vec![vec![5.0], vec![5.0], vec![5.0]];
        let s = StandardScaler::fit(&xs).unwrap();
        assert_eq!(s.transform_row(&[5.0]), vec![0.0]);
        // A constant column's std is taken as 1: centred, not scaled.
        assert_eq!(s.transform_row(&[7.0]), vec![2.0]);
    }

    #[test]
    fn rejects_empty() {
        assert!(StandardScaler::fit(&[]).is_err());
    }
}

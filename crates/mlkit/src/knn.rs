//! k-nearest-neighbour regression.
//!
//! Used as a non-parametric alternative in the analysis-correlation ablation
//! (which correction-model family best closes the miscorrelation gap).

use crate::MlError;

/// Squared Euclidean distance between two equal-length rows.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// A k-nearest-neighbour regressor over owned training data.
///
/// # Example
///
/// ```
/// use ideaflow_mlkit::knn::KnnRegressor;
///
/// # fn main() -> Result<(), ideaflow_mlkit::MlError> {
/// let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
/// let ys = vec![0.0, 1.0, 2.0, 3.0];
/// let knn = KnnRegressor::fit(xs, ys, 2)?;
/// let y = knn.predict(&[1.4]); // neighbours 1.0 and 2.0 -> mean 1.5
/// assert!((y - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnRegressor {
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    k: usize,
}

impl KnnRegressor {
    /// Stores the training data.
    ///
    /// # Errors
    ///
    /// - [`MlError::InvalidParameter`] if `k == 0` or `k > xs.len()`.
    /// - [`MlError::DimensionMismatch`] on shape problems.
    pub fn fit(xs: Vec<Vec<f64>>, ys: Vec<f64>, k: usize) -> Result<Self, MlError> {
        if xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                detail: format!("{} rows vs {} targets", xs.len(), ys.len()),
            });
        }
        if k == 0 || k > xs.len() {
            return Err(MlError::InvalidParameter {
                name: "k",
                detail: format!("must be in 1..={}, got {k}", xs.len()),
            });
        }
        Ok(Self { xs, ys, k })
    }

    /// Indices of the `k` nearest training rows to `x`, nearest first.
    fn neighbours(&self, x: &[f64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.xs.len()).collect();
        idx.sort_by(|&a, &b| {
            dist2(&self.xs[a], x)
                .partial_cmp(&dist2(&self.xs[b], x))
                .expect("NaN distance in knn")
        });
        idx.truncate(self.k);
        idx
    }

    /// Mean target over the `k` nearest neighbours.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        let nb = self.neighbours(x);
        nb.iter().map(|&i| self.ys[i]).sum::<f64>() / self.k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_returns_nearest_target() {
        let knn =
            KnnRegressor::fit(vec![vec![0.0, 0.0], vec![10.0, 10.0]], vec![1.0, 2.0], 1).unwrap();
        assert_eq!(knn.predict(&[1.0, 1.0]), 1.0);
        assert_eq!(knn.predict(&[9.0, 9.0]), 2.0);
    }

    #[test]
    fn k_equals_n_returns_global_mean() {
        let knn = KnnRegressor::fit(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![3.0, 6.0, 9.0],
            3,
        )
        .unwrap();
        assert!((knn.predict(&[100.0]) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_k() {
        assert!(KnnRegressor::fit(vec![vec![0.0]], vec![1.0], 0).is_err());
        assert!(KnnRegressor::fit(vec![vec![0.0]], vec![1.0], 2).is_err());
    }
}

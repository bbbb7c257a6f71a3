//! Ordinary least squares and ridge regression via the normal equations.
//!
//! These are the workhorse models for the paper's "analysis correlation"
//! application (Section 3.2): predicting a signoff timer's slack from a fast
//! timer's slack plus structural features, and for METRICS data mining.

use crate::matrix::Matrix;
use crate::MlError;

/// A fitted linear model `y = w . x + b`.
///
/// Construct with [`RidgeRegression::fit`] (use `lambda = 0.0` for plain
/// OLS; a tiny positive lambda is recommended for numerical robustness).
///
/// # Example
///
/// ```
/// use ideaflow_mlkit::linreg::RidgeRegression;
///
/// # fn main() -> Result<(), ideaflow_mlkit::MlError> {
/// let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0], vec![2.0, 1.0]];
/// let ys = vec![3.0, 5.0, 8.0, 11.0]; // y = 3 x0 + 5 x1
/// let m = RidgeRegression::fit(&xs, &ys, 1e-10)?;
/// assert!((m.predict(&[2.0, 2.0]) - 16.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeRegression {
    weights: Vec<f64>,
    intercept: f64,
}

impl RidgeRegression {
    /// Fits by solving `(X^T X + lambda I) w = X^T y` with an intercept
    /// column appended (the intercept is not regularized when `lambda` is
    /// small relative to the data scale, which is the intended regime).
    ///
    /// # Errors
    ///
    /// - [`MlError::DimensionMismatch`] on shape problems or empty data.
    /// - [`MlError::InvalidParameter`] if `lambda < 0` or not finite.
    /// - [`MlError::SingularSystem`] if the system cannot be solved (e.g.
    ///   perfectly collinear features with `lambda == 0`).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<Self, MlError> {
        if lambda.is_nan() || lambda < 0.0 || !lambda.is_finite() {
            return Err(MlError::InvalidParameter {
                name: "lambda",
                detail: format!("must be finite and >= 0, got {lambda}"),
            });
        }
        if xs.is_empty() || ys.is_empty() {
            return Err(MlError::DimensionMismatch {
                detail: "empty training data".into(),
            });
        }
        if xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                detail: format!("{} rows vs {} targets", xs.len(), ys.len()),
            });
        }
        let d = xs[0].len();
        // Augmented design matrix with intercept column.
        let aug: Vec<Vec<f64>> = xs
            .iter()
            .map(|r| {
                let mut v = r.clone();
                v.push(1.0);
                v
            })
            .collect();
        let x = Matrix::from_rows(&aug)?;
        let xt = x.transpose();
        let mut gram = xt.matmul(&x)?;
        gram.add_diagonal(lambda);
        let rhs = xt.matvec(ys)?;
        let sol = gram.solve_spd(&rhs).or_else(|_| gram.solve(&rhs))?;
        let (weights, intercept) = sol.split_at(d);
        Ok(Self {
            weights: weights.to_vec(),
            intercept: intercept[0],
        })
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training feature width.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.weights.len(),
            "feature width mismatch in RidgeRegression::predict"
        );
        self.intercept + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
    }

    /// The fitted weight vector (one entry per feature).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The fitted intercept.
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }
}

/// Fits a univariate line `y = a x + b` returning `(a, b)`.
///
/// Convenience for the many one-feature correlation fits in `timing` and
/// `metrics`.
///
/// # Errors
///
/// Returns [`MlError::DegenerateData`] if fewer than two points or all `x`
/// equal.
pub fn fit_line(xs: &[f64], ys: &[f64]) -> Result<(f64, f64), MlError> {
    if xs.len() != ys.len() {
        return Err(MlError::DimensionMismatch {
            detail: format!("{} xs vs {} ys", xs.len(), ys.len()),
        });
    }
    let n = xs.len();
    if n < 2 {
        return Err(MlError::DegenerateData {
            detail: "need at least two points for a line fit".into(),
        });
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
    }
    if sxx < 1e-14 {
        return Err(MlError::DegenerateData {
            detail: "all x values identical".into(),
        });
    }
    let a = sxy / sxx;
    Ok((a, my - a * mx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_recovers_exact_plane() {
        // y = 1.5 x0 - 2 x1 + 4
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![f64::from(i), f64::from(i * i % 7)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| 1.5 * r[0] - 2.0 * r[1] + 4.0).collect();
        let m = RidgeRegression::fit(&xs, &ys, 0.0).unwrap();
        assert!((m.weights()[0] - 1.5).abs() < 1e-8);
        assert!((m.weights()[1] + 2.0).abs() < 1e-8);
        assert!((m.intercept() - 4.0).abs() < 1e-8);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 3.0 * r[0]).collect();
        let ols = RidgeRegression::fit(&xs, &ys, 0.0).unwrap();
        let ridge = RidgeRegression::fit(&xs, &ys, 100.0).unwrap();
        assert!(ridge.weights()[0].abs() < ols.weights()[0].abs());
    }

    #[test]
    fn collinear_features_handled_by_ridge() {
        // x1 = 2 x0 exactly: the OLS normal equations are singular in exact
        // arithmetic; a small ridge makes the fit well-posed and accurate.
        let xs: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![f64::from(i), 2.0 * f64::from(i)])
            .collect();
        let ys: Vec<f64> = (0..10).map(f64::from).collect();
        let m = RidgeRegression::fit(&xs, &ys, 1e-6).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert!((m.predict(x) - y).abs() < 1e-3);
        }
    }

    #[test]
    fn rejects_negative_lambda() {
        let err = RidgeRegression::fit(&[vec![1.0]], &[1.0], -1.0).unwrap_err();
        assert!(matches!(
            err,
            MlError::InvalidParameter { name: "lambda", .. }
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(RidgeRegression::fit(&[], &[], 0.0).is_err());
    }

    #[test]
    fn fit_line_exact() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let (a, b) = fit_line(&xs, &ys).unwrap();
        assert!((a - 2.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_line_rejects_constant_x() {
        assert!(fit_line(&[1.0, 1.0], &[2.0, 3.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn predict_panics_on_wrong_width() {
        let m = RidgeRegression::fit(&[vec![1.0], vec![2.0]], &[1.0, 2.0], 0.0).unwrap();
        let _ = m.predict(&[1.0, 2.0]);
    }
}

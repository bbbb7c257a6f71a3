//! `ideaflow-mlkit` — a small, dependency-light machine-learning toolkit.
//!
//! The DAC 2018 roadmap paper argues that "machine learning techniques must
//! pervade EDA tools, design methodologies and overall design infrastructure".
//! This crate is the ML substrate the rest of the workspace builds on. It
//! deliberately implements classical, well-understood models — the paper's
//! applications (analysis correlation, doomed-run prediction, METRICS data
//! mining) are all "small data" problems where linear models, trees and
//! nearest-neighbour methods are appropriate and auditable.
//!
//! # Modules
//!
//! - [`matrix`]: dense matrices and linear solvers (Cholesky, Gauss).
//! - [`linreg`]: ordinary least squares and ridge regression.
//! - [`logreg`]: binary logistic regression (gradient descent).
//! - [`knn`]: k-nearest-neighbour regression and classification.
//! - [`tree`]: CART regression trees and decision stumps.
//! - [`scale`]: feature standardization.
//! - [`split`]: train/test splitting and k-fold cross validation.
//! - [`eval`]: regression and classification quality metrics.
//! - [`stats`]: descriptive statistics and Gaussianity tests.
//!
//! # Example
//!
//! ```
//! use ideaflow_mlkit::linreg::RidgeRegression;
//!
//! # fn main() -> Result<(), ideaflow_mlkit::MlError> {
//! // y = 2 x0 + 1
//! let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
//! let ys = vec![1.0, 3.0, 5.0, 7.0];
//! let model = RidgeRegression::fit(&xs, &ys, 1e-9)?;
//! let y = model.predict(&[4.0]);
//! assert!((y - 9.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod eval;
pub mod forest;
pub mod knn;
pub mod linreg;
pub mod logreg;
pub mod matrix;
pub mod scale;
pub mod split;
pub mod stats;
pub mod tree;

use std::error::Error;
use std::fmt;

/// Error type for all fallible operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Input matrices/vectors had inconsistent or empty dimensions.
    DimensionMismatch {
        /// Human-readable description of the offending dimensions.
        detail: String,
    },
    /// A linear system was singular or numerically indefinite.
    SingularSystem,
    /// A model parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that failed.
        detail: String,
    },
    /// Training data was empty or degenerate (e.g. a single class).
    DegenerateData {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::DimensionMismatch { detail } => {
                write!(f, "dimension mismatch: {detail}")
            }
            MlError::SingularSystem => write!(f, "linear system is singular"),
            MlError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
            MlError::DegenerateData { detail } => write!(f, "degenerate data: {detail}"),
        }
    }
}

impl Error for MlError {}

/// A labelled dataset of feature rows and scalar targets.
///
/// Thin convenience wrapper used by [`split`] and the model `fit` functions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Feature rows; all rows must share one length.
    pub xs: Vec<Vec<f64>>,
    /// Targets, one per row of `xs`.
    pub ys: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset, validating that `xs` and `ys` agree in length and
    /// that all feature rows share one width.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on ragged rows or length
    /// disagreement.
    pub fn new(xs: Vec<Vec<f64>>, ys: Vec<f64>) -> Result<Self, MlError> {
        if xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                detail: format!("{} feature rows vs {} targets", xs.len(), ys.len()),
            });
        }
        if let Some(first) = xs.first() {
            let w = first.len();
            if let Some(bad) = xs.iter().find(|r| r.len() != w) {
                return Err(MlError::DimensionMismatch {
                    detail: format!("ragged row: expected width {w}, found {}", bad.len()),
                });
            }
        }
        Ok(Self { xs, ys })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// Whether the dataset has no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Number of features per row (0 if empty).
    #[must_use]
    pub fn width(&self) -> usize {
        self.xs.first().map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_rejects_mismatched_lengths() {
        let err = Dataset::new(vec![vec![1.0]], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, MlError::DimensionMismatch { .. }));
    }

    #[test]
    fn dataset_rejects_ragged_rows() {
        let err = Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, MlError::DimensionMismatch { .. }));
    }

    #[test]
    fn dataset_reports_shape() {
        let d = Dataset::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![0.0, 1.0]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.width(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn errors_display() {
        let e = MlError::InvalidParameter {
            name: "k",
            detail: "must be positive".into(),
        };
        assert!(e.to_string().contains('k'));
        assert!(MlError::SingularSystem.to_string().contains("singular"));
    }
}

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
//! - [`knn`]: k-nearest-neighbour regression.
//! - [`tree`]: CART regression trees and decision stumps.
//! - [`forest`]: bagged random forests of regression trees.
//! - [`scale`]: feature standardization.
//! - [`eval`]: regression quality metrics.
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

#[cfg(test)]
mod tests {
    use super::*;

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

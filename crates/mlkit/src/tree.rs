//! CART-style regression trees and decision stumps.
//!
//! Trees serve two roles in the workspace: as one of the correction-model
//! families in the analysis-correlation ablation, and as interpretable
//! predictors in the METRICS miner (the paper stresses that tool models must
//! be auditable by designers).

use crate::MlError;

/// A node of a fitted [`RegressionTree`].
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// Hyper-parameters for [`RegressionTree::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum depth (a stump is depth 1).
    pub max_depth: usize,
    /// Minimum samples a node needs to be considered for splitting.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 4,
            min_samples_split: 4,
        }
    }
}

/// A fitted CART regression tree (variance-reduction splitting).
///
/// # Example
///
/// ```
/// use ideaflow_mlkit::tree::{RegressionTree, TreeConfig};
///
/// # fn main() -> Result<(), ideaflow_mlkit::MlError> {
/// // A step function: y = 0 for x < 5, y = 10 for x >= 5.
/// let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
/// let ys: Vec<f64> = (0..10).map(|i| if i < 5 { 0.0 } else { 10.0 }).collect();
/// let t = RegressionTree::fit(&xs, &ys, TreeConfig { max_depth: 1, min_samples_split: 2 })?;
/// assert_eq!(t.predict(&[2.0]), 0.0);
/// assert_eq!(t.predict(&[8.0]), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    root: Node,
    width: usize,
}

impl RegressionTree {
    /// Fits a tree by greedy variance-reduction splitting.
    ///
    /// # Errors
    ///
    /// - [`MlError::DimensionMismatch`] on empty or ragged data.
    /// - [`MlError::InvalidParameter`] if `max_depth == 0`.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], cfg: TreeConfig) -> Result<Self, MlError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                detail: format!("{} rows vs {} targets", xs.len(), ys.len()),
            });
        }
        if cfg.max_depth == 0 {
            return Err(MlError::InvalidParameter {
                name: "max_depth",
                detail: "must be at least 1".into(),
            });
        }
        let width = xs[0].len();
        if xs.iter().any(|r| r.len() != width) {
            return Err(MlError::DimensionMismatch {
                detail: "ragged feature rows".into(),
            });
        }
        let idx: Vec<usize> = (0..xs.len()).collect();
        let root = build(xs, ys, &idx, cfg.max_depth, cfg.min_samples_split);
        Ok(Self { root, width })
    }

    /// Predicts the target for one row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training width.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.width,
            "feature width mismatch in tree predict"
        );
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Number of leaves (model complexity measure).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }
}

fn mean_of(ys: &[f64], idx: &[usize]) -> f64 {
    idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64
}

fn sse_of(ys: &[f64], idx: &[usize]) -> f64 {
    let m = mean_of(ys, idx);
    idx.iter().map(|&i| (ys[i] - m) * (ys[i] - m)).sum()
}

#[allow(clippy::needless_range_loop)] // feature-indexed scan over column-major access
fn build(xs: &[Vec<f64>], ys: &[f64], idx: &[usize], depth: usize, min_split: usize) -> Node {
    let leaf = Node::Leaf {
        value: mean_of(ys, idx),
    };
    if depth == 0 || idx.len() < min_split {
        return leaf;
    }
    let parent_sse = sse_of(ys, idx);
    if parent_sse < 1e-12 {
        return leaf;
    }
    let width = xs[0].len();
    let mut best: Option<(f64, usize, f64)> = None; // (sse, feature, threshold)
    for f in 0..width {
        let mut sorted: Vec<usize> = idx.to_vec();
        sorted.sort_by(|&a, &b| {
            xs[a][f]
                .partial_cmp(&xs[b][f])
                .expect("NaN feature in tree fit")
        });
        // Candidate thresholds at midpoints between distinct consecutive values.
        for w in 1..sorted.len() {
            let lo = xs[sorted[w - 1]][f];
            let hi = xs[sorted[w]][f];
            if hi - lo < 1e-12 {
                continue;
            }
            let thr = f64::midpoint(lo, hi);
            let (l, r): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| xs[i][f] <= thr);
            if l.is_empty() || r.is_empty() {
                continue;
            }
            let s = sse_of(ys, &l) + sse_of(ys, &r);
            if best.is_none_or(|(bs, _, _)| s < bs) {
                best = Some((s, f, thr));
            }
        }
    }
    match best {
        Some((s, feature, threshold)) if s < parent_sse - 1e-12 => {
            let (l, r): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| xs[i][feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(xs, ys, &l, depth - 1, min_split)),
                right: Box::new(build(xs, ys, &r, depth - 1, min_split)),
            }
        }
        _ => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = (0..20).map(|i| if i < 10 { -1.0 } else { 1.0 }).collect();
        (xs, ys)
    }

    #[test]
    fn stump_finds_step() {
        let (xs, ys) = step_data();
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeConfig {
                max_depth: 1,
                min_samples_split: 2,
            },
        )
        .unwrap();
        assert_eq!(t.leaf_count(), 2);
        assert_eq!(t.predict(&[0.0]), -1.0);
        assert_eq!(t.predict(&[19.0]), 1.0);
    }

    #[test]
    fn deeper_tree_fits_staircase() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = (0..40).map(|i| f64::from(i / 10)).collect();
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeConfig {
                max_depth: 3,
                min_samples_split: 2,
            },
        )
        .unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert!((t.predict(x) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let ys = vec![7.0; 10];
        let t = RegressionTree::fit(&xs, &ys, TreeConfig::default()).unwrap();
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.predict(&[100.0]), 7.0);
    }

    #[test]
    fn splits_on_informative_feature() {
        // Feature 0 is noise (constant), feature 1 carries the signal.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![0.0, f64::from(i)]).collect();
        let ys: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 5.0 }).collect();
        let t = RegressionTree::fit(
            &xs,
            &ys,
            TreeConfig {
                max_depth: 1,
                min_samples_split: 2,
            },
        )
        .unwrap();
        assert_eq!(t.predict(&[0.0, 3.0]), 0.0);
        assert_eq!(t.predict(&[0.0, 15.0]), 5.0);
    }

    #[test]
    fn rejects_zero_depth() {
        let err = RegressionTree::fit(
            &[vec![0.0]],
            &[0.0],
            TreeConfig {
                max_depth: 0,
                min_samples_split: 2,
            },
        )
        .unwrap_err();
        assert!(matches!(err, MlError::InvalidParameter { .. }));
    }

    #[test]
    fn rejects_empty_data() {
        assert!(RegressionTree::fit(&[], &[], TreeConfig::default()).is_err());
    }
}

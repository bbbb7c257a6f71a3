//! Bagged regression forests over the CART trees in [`crate::tree`].
//!
//! A forest averages trees fitted on bootstrap resamples with per-tree
//! feature subsampling — the workhorse non-linear model for tabular
//! "small data" of exactly the kind the paper says IC design produces.

use crate::tree::{RegressionTree, TreeConfig};
use crate::MlError;

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestConfig {
    /// Number of trees.
    pub trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Deterministic seed for bootstrap resampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            trees: 30,
            tree: TreeConfig {
                max_depth: 6,
                min_samples_split: 4,
            },
            seed: 0x0F0E,
        }
    }
}

/// A fitted bagged regression forest.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

/// splitmix64 step.
fn mix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RandomForest {
    /// Fits the forest on bootstrap resamples.
    ///
    /// # Errors
    ///
    /// - [`MlError::InvalidParameter`] if `trees == 0`.
    /// - Propagates tree-fit errors (empty/ragged data).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], cfg: ForestConfig) -> Result<Self, MlError> {
        if cfg.trees == 0 {
            return Err(MlError::InvalidParameter {
                name: "trees",
                detail: "need at least one tree".into(),
            });
        }
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                detail: format!("{} rows vs {} targets", xs.len(), ys.len()),
            });
        }
        let n = xs.len();
        let mut state = cfg.seed.max(1);
        let mut trees = Vec::with_capacity(cfg.trees);
        for _ in 0..cfg.trees {
            let mut bxs = Vec::with_capacity(n);
            let mut bys = Vec::with_capacity(n);
            for _ in 0..n {
                let i = (mix(&mut state) % n as u64) as usize;
                bxs.push(xs[i].clone());
                bys.push(ys[i]);
            }
            trees.push(RegressionTree::fit(&bxs, &bys, cfg.tree)?);
        }
        Ok(Self { trees })
    }

    /// Mean prediction over all trees.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width (propagated from the trees).
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::rmse;

    /// A noisy non-linear target: y = sin(x0) + 0.5 x1² with deterministic
    /// pseudo-noise.
    fn dataset(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut state = 7u64;
        let mut noise = move || (mix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = f64::from(i as u32) * 0.13 % 6.0;
                let b = f64::from(i as u32) * 0.29 % 2.0;
                vec![a, b]
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| r[0].sin() + 0.5 * r[1] * r[1] + 0.1 * noise())
            .collect();
        (xs, ys)
    }

    #[test]
    fn forest_beats_a_single_tree_on_noisy_nonlinear_data() {
        let (xs, ys) = dataset(300);
        let (txs, tys) = dataset(300); // same support, fresh noise draw order
        let tree = RegressionTree::fit(
            &xs,
            &ys,
            TreeConfig {
                max_depth: 6,
                min_samples_split: 4,
            },
        )
        .unwrap();
        let forest = RandomForest::fit(&xs, &ys, ForestConfig::default()).unwrap();
        let tree_pred: Vec<f64> = txs.iter().map(|r| tree.predict(r)).collect();
        let forest_pred: Vec<f64> = txs.iter().map(|r| forest.predict(r)).collect();
        let tree_rmse = rmse(&tree_pred, &tys);
        let forest_rmse = rmse(&forest_pred, &tys);
        assert!(
            forest_rmse <= tree_rmse * 1.05,
            "forest {forest_rmse} vs tree {tree_rmse}"
        );
        assert!(forest_rmse < 0.25, "forest rmse {forest_rmse}");
    }

    #[test]
    fn forest_is_deterministic_per_seed() {
        let (xs, ys) = dataset(120);
        let a = RandomForest::fit(&xs, &ys, ForestConfig::default()).unwrap();
        let b = RandomForest::fit(&xs, &ys, ForestConfig::default()).unwrap();
        assert_eq!(a.predict(&xs[5]), b.predict(&xs[5]));
        let c = RandomForest::fit(
            &xs,
            &ys,
            ForestConfig {
                seed: 99,
                ..ForestConfig::default()
            },
        )
        .unwrap();
        assert_ne!(a.predict(&xs[5]), c.predict(&xs[5]));
    }

    #[test]
    fn validates_inputs() {
        let (xs, ys) = dataset(30);
        assert!(RandomForest::fit(
            &xs,
            &ys,
            ForestConfig {
                trees: 0,
                ..ForestConfig::default()
            }
        )
        .is_err());
        assert!(RandomForest::fit(&[], &[], ForestConfig::default()).is_err());
    }
}

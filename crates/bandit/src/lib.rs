//! `ideaflow-bandit` — multi-armed-bandit tool-run scheduling (paper §3.1,
//! Fig 7, ref \[25\]).
//!
//! "In the MAB problem, we are given a slot machine with N arms, each arm
//! having an unknown distribution of rewards... The goal is to maximize the
//! expected total reward" over a budget of T pulls. In the paper's
//! application, an *arm* is a target design frequency (or any option
//! vector) of a noisy SP&R flow; a *pull* is one tool run; the reward
//! reflects the achieved QoR. The paper finds Thompson Sampling "more
//! robust in our design tool/flow sampling context" than softmax or
//! ε-greedy — the claim the Fig 7 harness and the robustness ablation
//! reproduce.
//!
//! - [`policy`]: Thompson (Gaussian), ε-greedy, softmax (Boltzmann).
//! - [`sim`]: pull-loop and budgeted concurrent-batch harnesses with
//!   regret accounting (footnote 3's regret formulation).

pub mod policy;
pub mod sim;

use std::error::Error;
use std::fmt;

/// Error type for bandit configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum BanditError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        detail: String,
    },
}

impl fmt::Display for BanditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BanditError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
        }
    }
}

impl Error for BanditError {}

/// An environment a bandit policy samples: `pull(arm, t)` returns a reward.
///
/// `t` is the global pull index, letting deterministic environments (like
/// the SP&R fast surface) produce i.i.d.-per-arm streams reproducibly.
pub trait Environment {
    /// Number of arms.
    fn arm_count(&self) -> usize;

    /// Draws a reward from `arm` at pull index `t`.
    fn pull(&mut self, arm: usize, t: u32) -> f64;

    /// True mean of the optimal arm, if known (enables regret accounting).
    fn optimal_mean(&self) -> Option<f64> {
        None
    }
}

/// An [`Environment`] whose reward computation is a *pure* function of
/// `(arm, t)` — any bookkeeping is split into [`BatchEnvironment::record`].
/// This is what lets the budgeted concurrent harness genuinely launch a
/// batch of tool runs in parallel: rewards are computed concurrently via
/// [`BatchEnvironment::peek`] (each pull keeps its sequential pull index,
/// so values are bit-identical to the sequential loop), then
/// [`BatchEnvironment::record`] is applied afterwards, in pull order, on
/// one thread.
///
/// Implementors must keep `pull(arm, t)` equivalent to
/// `peek(arm, t)` followed by `record(arm, t, reward)`.
pub trait BatchEnvironment: Environment + Sync {
    /// Computes the reward for `arm` at pull index `t` without mutating
    /// the environment.
    fn peek(&self, arm: usize, t: u32) -> f64;

    /// Fallible [`BatchEnvironment::peek`]: `None` means the tool run
    /// backing the pull failed outright (crashed and exhausted its
    /// supervisor's retries). The concurrent harness records such pulls
    /// as *censored* — no posterior update, no environment bookkeeping —
    /// so one dead license does not corrupt the policy's beliefs. The
    /// default wraps the infallible [`BatchEnvironment::peek`].
    fn try_peek(&self, arm: usize, t: u32) -> Option<f64> {
        Some(self.peek(arm, t))
    }

    /// Applies the bookkeeping for an observed pull (history, budgets).
    /// Default: none.
    fn record(&mut self, arm: usize, t: u32, reward: f64) {
        let _ = (arm, t, reward);
    }
}

/// A fixed Gaussian test environment with known means (for unit tests and
/// regret studies).
#[derive(Debug, Clone)]
pub struct GaussianEnv {
    /// Per-arm true means.
    pub means: Vec<f64>,
    /// Per-arm true standard deviations.
    pub sigmas: Vec<f64>,
    seed: u64,
}

impl GaussianEnv {
    /// Creates the environment.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidParameter`] on empty or mismatched
    /// arms, or negative sigmas.
    pub fn new(means: Vec<f64>, sigmas: Vec<f64>, seed: u64) -> Result<Self, BanditError> {
        if means.is_empty() || means.len() != sigmas.len() {
            return Err(BanditError::InvalidParameter {
                name: "means",
                detail: format!("{} means vs {} sigmas", means.len(), sigmas.len()),
            });
        }
        if sigmas.iter().any(|&s| s < 0.0) {
            return Err(BanditError::InvalidParameter {
                name: "sigmas",
                detail: "must be non-negative".into(),
            });
        }
        Ok(Self {
            means,
            sigmas,
            seed,
        })
    }
}

impl Environment for GaussianEnv {
    fn arm_count(&self) -> usize {
        self.means.len()
    }

    fn pull(&mut self, arm: usize, t: u32) -> f64 {
        self.peek(arm, t)
    }

    fn optimal_mean(&self) -> Option<f64> {
        self.means
            .iter()
            .copied()
            .fold(None, |acc, m| Some(acc.map_or(m, |a: f64| a.max(m))))
    }
}

impl BatchEnvironment for GaussianEnv {
    fn peek(&self, arm: usize, t: u32) -> f64 {
        // Deterministic per (seed, arm, t) Gaussian.
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let base = self
            .seed
            .wrapping_add((arm as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(t).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let u1 = ((mix(base) >> 11) as f64 / (1u64 << 53) as f64).max(1e-300);
        let u2 = (mix(base.wrapping_add(1)) >> 11) as f64 / (1u64 << 53) as f64;
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.means[arm] + self.sigmas[arm] * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_env_validates() {
        assert!(GaussianEnv::new(vec![], vec![], 0).is_err());
        assert!(GaussianEnv::new(vec![1.0], vec![1.0, 2.0], 0).is_err());
        assert!(GaussianEnv::new(vec![1.0], vec![-1.0], 0).is_err());
    }

    #[test]
    fn gaussian_env_is_deterministic_and_unbiased() {
        let mut env = GaussianEnv::new(vec![5.0, -2.0], vec![1.0, 0.5], 7).unwrap();
        let a = env.pull(0, 3);
        assert_eq!(a, env.pull(0, 3));
        let mean0: f64 = (0..4000).map(|t| env.pull(0, t)).sum::<f64>() / 4000.0;
        assert!((mean0 - 5.0).abs() < 0.1, "mean {mean0}");
        assert_eq!(env.optimal_mean(), Some(5.0));
    }
}

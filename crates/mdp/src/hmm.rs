//! Discrete hidden Markov models (Rabiner \[36\]): forward/backward and
//! Baum–Welch re-estimation.
//!
//! Used as the alternative doomed-run detector the paper mentions: train
//! one HMM on successful runs' observation sequences and one on failed
//! runs', then classify a prefix by log-likelihood ratio.

#![allow(clippy::needless_range_loop)] // dense numeric kernels read better indexed

use crate::MdpError;

/// A discrete HMM with `n` hidden states and `m` observation symbols.
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm {
    /// Initial state distribution, length `n`.
    pub initial: Vec<f64>,
    /// Transition matrix, `n x n` row-stochastic.
    pub transition: Vec<Vec<f64>>,
    /// Emission matrix, `n x m` row-stochastic.
    pub emission: Vec<Vec<f64>>,
}

fn check_stochastic(rows: &[Vec<f64>], what: &'static str) -> Result<(), MdpError> {
    for (i, r) in rows.iter().enumerate() {
        let sum: f64 = r.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(MdpError::NotStochastic { row: i, sum });
        }
        if r.iter().any(|&p| p < 0.0) {
            return Err(MdpError::InvalidParameter {
                name: what,
                detail: format!("row {i} has a negative probability"),
            });
        }
    }
    Ok(())
}

impl Hmm {
    /// Creates and validates an HMM.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError`] on shape or stochasticity violations.
    pub fn new(
        initial: Vec<f64>,
        transition: Vec<Vec<f64>>,
        emission: Vec<Vec<f64>>,
    ) -> Result<Self, MdpError> {
        let n = initial.len();
        if n == 0 || transition.len() != n || emission.len() != n {
            return Err(MdpError::InvalidParameter {
                name: "initial",
                detail: "initial/transition/emission dimensions disagree".into(),
            });
        }
        if transition.iter().any(|r| r.len() != n) {
            return Err(MdpError::InvalidParameter {
                name: "transition",
                detail: "transition must be n x n".into(),
            });
        }
        let m = emission[0].len();
        if m == 0 || emission.iter().any(|r| r.len() != m) {
            return Err(MdpError::InvalidParameter {
                name: "emission",
                detail: "emission must be n x m with m > 0".into(),
            });
        }
        check_stochastic(std::slice::from_ref(&initial), "initial")?;
        check_stochastic(&transition, "transition")?;
        check_stochastic(&emission, "emission")?;
        Ok(Self {
            initial,
            transition,
            emission,
        })
    }

    /// Number of hidden states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.initial.len()
    }

    /// Number of observation symbols.
    #[must_use]
    pub fn symbol_count(&self) -> usize {
        self.emission[0].len()
    }

    /// Scaled forward pass; returns the log-likelihood of `obs`.
    ///
    /// # Panics
    ///
    /// Panics if an observation symbol is out of range.
    #[must_use]
    pub fn log_likelihood(&self, obs: &[usize]) -> f64 {
        if obs.is_empty() {
            return 0.0;
        }
        let n = self.state_count();
        let mut alpha: Vec<f64> = (0..n)
            .map(|s| self.initial[s] * self.emission[s][obs[0]])
            .collect();
        let mut ll = 0.0f64;
        let mut scale = alpha.iter().sum::<f64>();
        if scale <= 0.0 {
            return f64::NEG_INFINITY;
        }
        for a in &mut alpha {
            *a /= scale;
        }
        ll += scale.ln();
        for &o in &obs[1..] {
            let prev = alpha.clone();
            for (j, a) in alpha.iter_mut().enumerate() {
                let inflow: f64 = (0..n).map(|i| prev[i] * self.transition[i][j]).sum();
                *a = inflow * self.emission[j][o];
            }
            scale = alpha.iter().sum();
            if scale <= 0.0 {
                return f64::NEG_INFINITY;
            }
            for a in &mut alpha {
                *a /= scale;
            }
            ll += scale.ln();
        }
        ll
    }

    /// One Baum–Welch re-estimation sweep over a set of sequences.
    /// Returns the updated model; iterate to train.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidParameter`] if `sequences` is empty or
    /// contains an empty/out-of-range sequence.
    pub fn baum_welch_step(&self, sequences: &[Vec<usize>]) -> Result<Hmm, MdpError> {
        if sequences.is_empty() || sequences.iter().any(Vec::is_empty) {
            return Err(MdpError::InvalidParameter {
                name: "sequences",
                detail: "need non-empty sequences".into(),
            });
        }
        let n = self.state_count();
        let m = self.symbol_count();
        if sequences.iter().flatten().any(|&o| o >= m) {
            return Err(MdpError::InvalidParameter {
                name: "sequences",
                detail: "observation symbol out of range".into(),
            });
        }
        let mut init_acc = vec![1e-6f64; n];
        let mut trans_acc = vec![vec![1e-6f64; n]; n];
        let mut emit_acc = vec![vec![1e-6f64; m]; n];
        for obs in sequences {
            let t_len = obs.len();
            // Scaled forward.
            let mut alphas = vec![vec![0.0f64; n]; t_len];
            let mut scales = vec![0.0f64; t_len];
            for s in 0..n {
                alphas[0][s] = self.initial[s] * self.emission[s][obs[0]];
            }
            scales[0] = alphas[0].iter().sum::<f64>().max(1e-300);
            for s in 0..n {
                alphas[0][s] /= scales[0];
            }
            for t in 1..t_len {
                for j in 0..n {
                    let inflow: f64 = (0..n)
                        .map(|i| alphas[t - 1][i] * self.transition[i][j])
                        .sum();
                    alphas[t][j] = inflow * self.emission[j][obs[t]];
                }
                scales[t] = alphas[t].iter().sum::<f64>().max(1e-300);
                for j in 0..n {
                    alphas[t][j] /= scales[t];
                }
            }
            // Scaled backward.
            let mut betas = vec![vec![0.0f64; n]; t_len];
            for s in 0..n {
                betas[t_len - 1][s] = 1.0;
            }
            for t in (0..t_len - 1).rev() {
                for i in 0..n {
                    betas[t][i] = (0..n)
                        .map(|j| {
                            self.transition[i][j] * self.emission[j][obs[t + 1]] * betas[t + 1][j]
                        })
                        .sum::<f64>()
                        / scales[t + 1];
                }
            }
            // Accumulate.
            for s in 0..n {
                let g = alphas[0][s] * betas[0][s];
                init_acc[s] += g;
            }
            for t in 0..t_len {
                let norm: f64 = (0..n).map(|s| alphas[t][s] * betas[t][s]).sum();
                if norm <= 0.0 {
                    continue;
                }
                for s in 0..n {
                    emit_acc[s][obs[t]] += alphas[t][s] * betas[t][s] / norm;
                }
            }
            for t in 0..t_len - 1 {
                let mut denom = 0.0;
                for i in 0..n {
                    for j in 0..n {
                        denom += alphas[t][i]
                            * self.transition[i][j]
                            * self.emission[j][obs[t + 1]]
                            * betas[t + 1][j];
                    }
                }
                if denom <= 0.0 {
                    continue;
                }
                for i in 0..n {
                    for j in 0..n {
                        trans_acc[i][j] += alphas[t][i]
                            * self.transition[i][j]
                            * self.emission[j][obs[t + 1]]
                            * betas[t + 1][j]
                            / denom;
                    }
                }
            }
        }
        // Normalize.
        let norm_rows = |rows: &mut Vec<Vec<f64>>| {
            for r in rows.iter_mut() {
                let s: f64 = r.iter().sum();
                for v in r.iter_mut() {
                    *v /= s;
                }
            }
        };
        let isum: f64 = init_acc.iter().sum();
        let initial: Vec<f64> = init_acc.iter().map(|v| v / isum).collect();
        let mut transition = trans_acc;
        let mut emission = emit_acc;
        norm_rows(&mut transition);
        norm_rows(&mut emission);
        Hmm::new(initial, transition, emission)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two states: 0 emits mostly symbol 0, 1 emits mostly symbol 1, with
    /// sticky transitions.
    fn sticky() -> Hmm {
        Hmm::new(
            vec![0.5, 0.5],
            vec![vec![0.9, 0.1], vec![0.1, 0.9]],
            vec![vec![0.85, 0.15], vec![0.15, 0.85]],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Hmm::new(vec![0.5, 0.6], vec![vec![1.0, 0.0]; 2], vec![vec![1.0]; 2]).is_err());
        assert!(Hmm::new(vec![], vec![], vec![]).is_err());
        assert!(sticky().state_count() == 2);
    }

    #[test]
    fn likelihood_prefers_matching_sequences() {
        let h = sticky();
        let consistent = vec![0usize; 20];
        let alternating: Vec<usize> = (0..20).map(|i| i % 2).collect();
        assert!(h.log_likelihood(&consistent) > h.log_likelihood(&alternating));
    }

    #[test]
    fn empty_sequence_edge_cases() {
        let h = sticky();
        assert_eq!(h.log_likelihood(&[]), 0.0);
    }

    #[test]
    fn baum_welch_increases_likelihood() {
        // Start from a vague model and train on sticky data.
        let data: Vec<Vec<usize>> = (0..10)
            .map(|k| (0..30).map(|t| usize::from((t + k) % 15 >= 7)).collect())
            .collect();
        let mut h = Hmm::new(
            vec![0.6, 0.4],
            vec![vec![0.55, 0.45], vec![0.4, 0.6]],
            vec![vec![0.6, 0.4], vec![0.45, 0.55]],
        )
        .unwrap();
        let ll0: f64 = data.iter().map(|s| h.log_likelihood(s)).sum();
        for _ in 0..15 {
            h = h.baum_welch_step(&data).unwrap();
        }
        let ll1: f64 = data.iter().map(|s| h.log_likelihood(s)).sum();
        assert!(ll1 > ll0, "{ll0} -> {ll1}");
    }

    #[test]
    fn baum_welch_rejects_bad_input() {
        let h = sticky();
        assert!(h.baum_welch_step(&[]).is_err());
        assert!(h.baum_welch_step(&[vec![]]).is_err());
        assert!(h.baum_welch_step(&[vec![7]]).is_err());
    }
}

//! Generic finite MDPs with value iteration and policy iteration
//! (Bertsekas \[4\]).

#![allow(clippy::needless_range_loop)] // dense state sweeps read better indexed

use crate::MdpError;

/// A finite MDP with dense state/action tables and sparse transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct FiniteMdp {
    n_states: usize,
    n_actions: usize,
    /// `transitions[s][a]` = list of `(next_state, probability)`.
    transitions: Vec<Vec<Vec<(usize, f64)>>>,
    /// `rewards[s][a]` = expected immediate reward.
    rewards: Vec<Vec<f64>>,
    /// Terminal states (no outgoing value).
    terminal: Vec<bool>,
}

/// A solved MDP: state values and a greedy policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal state values.
    pub values: Vec<f64>,
    /// Optimal action per state (arbitrary for terminal states).
    pub policy: Vec<usize>,
    /// Iterations until convergence.
    pub iterations: usize,
}

impl FiniteMdp {
    /// Creates an MDP.
    ///
    /// # Errors
    ///
    /// - [`MdpError::InvalidParameter`] on shape mismatches.
    /// - [`MdpError::NotStochastic`] if a non-terminal state's action has
    ///   transition probabilities not summing to ~1.
    pub fn new(
        transitions: Vec<Vec<Vec<(usize, f64)>>>,
        rewards: Vec<Vec<f64>>,
        terminal: Vec<bool>,
    ) -> Result<Self, MdpError> {
        let n_states = transitions.len();
        if n_states == 0 {
            return Err(MdpError::InvalidParameter {
                name: "transitions",
                detail: "need at least one state".into(),
            });
        }
        let n_actions = transitions[0].len();
        if n_actions == 0 {
            return Err(MdpError::InvalidParameter {
                name: "transitions",
                detail: "need at least one action".into(),
            });
        }
        if rewards.len() != n_states || terminal.len() != n_states {
            return Err(MdpError::InvalidParameter {
                name: "rewards",
                detail: "rewards/terminal must match state count".into(),
            });
        }
        for (s, (ta, ra)) in transitions.iter().zip(&rewards).enumerate() {
            if ta.len() != n_actions || ra.len() != n_actions {
                return Err(MdpError::InvalidParameter {
                    name: "transitions",
                    detail: format!("state {s} has inconsistent action count"),
                });
            }
            if terminal[s] {
                continue;
            }
            for acts in ta {
                let sum: f64 = acts.iter().map(|(_, p)| p).sum();
                if (sum - 1.0).abs() > 1e-6 {
                    return Err(MdpError::NotStochastic { row: s, sum });
                }
                if acts.iter().any(|&(ns, p)| ns >= n_states || p < 0.0) {
                    return Err(MdpError::InvalidParameter {
                        name: "transitions",
                        detail: format!("state {s} has invalid next state or probability"),
                    });
                }
            }
        }
        Ok(Self {
            n_states,
            n_actions,
            transitions,
            rewards,
            terminal,
        })
    }

    /// State count.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// Q-value of `(s, a)` under values `v` with discount `gamma`.
    fn q(&self, s: usize, a: usize, v: &[f64], gamma: f64) -> f64 {
        self.rewards[s][a]
            + gamma
                * self.transitions[s][a]
                    .iter()
                    .map(|&(ns, p)| p * v[ns])
                    .sum::<f64>()
    }

    /// Value iteration to tolerance `tol` (sup-norm), discount `gamma`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidParameter`] unless `0 <= gamma < 1` or
    /// `gamma == 1` with all rewards bounded and terminal states reachable
    /// (caller's responsibility; we accept `gamma <= 1`).
    pub fn value_iteration(&self, gamma: f64, tol: f64) -> Result<Solution, MdpError> {
        if !(0.0..=1.0).contains(&gamma) {
            return Err(MdpError::InvalidParameter {
                name: "gamma",
                detail: format!("must be in [0,1], got {gamma}"),
            });
        }
        if tol <= 0.0 {
            return Err(MdpError::InvalidParameter {
                name: "tol",
                detail: "must be positive".into(),
            });
        }
        let mut v = vec![0.0f64; self.n_states];
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let mut delta = 0.0f64;
            for s in 0..self.n_states {
                if self.terminal[s] {
                    continue;
                }
                let best = (0..self.n_actions)
                    .map(|a| self.q(s, a, &v, gamma))
                    .fold(f64::NEG_INFINITY, f64::max);
                delta = delta.max((best - v[s]).abs());
                v[s] = best;
            }
            if delta < tol || iterations > 100_000 {
                break;
            }
        }
        let policy = (0..self.n_states)
            .map(|s| {
                (0..self.n_actions)
                    .max_by(|&a, &b| {
                        self.q(s, a, &v, gamma)
                            .partial_cmp(&self.q(s, b, &v, gamma))
                            .expect("finite q values")
                    })
                    .expect("non-empty actions")
            })
            .collect();
        Ok(Solution {
            values: v,
            policy,
            iterations,
        })
    }

    /// Howard policy iteration (exact policy evaluation by iterative
    /// sweeps), discount `gamma`.
    ///
    /// # Errors
    ///
    /// Same as [`FiniteMdp::value_iteration`].
    pub fn policy_iteration(&self, gamma: f64) -> Result<Solution, MdpError> {
        if !(0.0..=1.0).contains(&gamma) {
            return Err(MdpError::InvalidParameter {
                name: "gamma",
                detail: format!("must be in [0,1], got {gamma}"),
            });
        }
        let mut policy = vec![0usize; self.n_states];
        let mut v = vec![0.0f64; self.n_states];
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            // Policy evaluation (iterative, to tight tolerance).
            for _ in 0..10_000 {
                let mut delta = 0.0f64;
                for s in 0..self.n_states {
                    if self.terminal[s] {
                        continue;
                    }
                    let nv = self.q(s, policy[s], &v, gamma);
                    delta = delta.max((nv - v[s]).abs());
                    v[s] = nv;
                }
                if delta < 1e-10 {
                    break;
                }
            }
            // Policy improvement.
            let mut stable = true;
            for s in 0..self.n_states {
                if self.terminal[s] {
                    continue;
                }
                let best = (0..self.n_actions)
                    .max_by(|&a, &b| {
                        self.q(s, a, &v, gamma)
                            .partial_cmp(&self.q(s, b, &v, gamma))
                            .expect("finite q values")
                    })
                    .expect("non-empty actions");
                if self.q(s, best, &v, gamma) > self.q(s, policy[s], &v, gamma) + 1e-12 {
                    policy[s] = best;
                    stable = false;
                }
            }
            if stable || iterations > 1_000 {
                break;
            }
        }
        Ok(Solution {
            values: v,
            policy,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5-state chain: state 4 is terminal with reward on entry. Action 0
    /// moves right (+1), action 1 stays. Moving right is optimal.
    fn chain() -> FiniteMdp {
        let n = 5;
        let mut transitions = Vec::new();
        let mut rewards = Vec::new();
        let mut terminal = vec![false; n];
        terminal[4] = true;
        for s in 0..n {
            let right = vec![((s + 1).min(4), 1.0)];
            let stay = vec![(s, 1.0)];
            transitions.push(vec![right, stay]);
            // Reward 10 for entering terminal, else -1 per move, 0 to stay.
            rewards.push(vec![if s == 3 { 10.0 } else { -1.0 }, 0.0]);
        }
        FiniteMdp::new(transitions, rewards, terminal).unwrap()
    }

    #[test]
    fn value_iteration_prefers_reaching_goal() {
        let m = chain();
        let sol = m.value_iteration(0.95, 1e-9).unwrap();
        // From every non-terminal state, moving right is optimal.
        for s in 0..4 {
            assert_eq!(sol.policy[s], 0, "state {s}");
        }
        // Values increase toward the goal.
        assert!(sol.values[3] > sol.values[0]);
    }

    #[test]
    fn policy_iteration_agrees_with_value_iteration() {
        let m = chain();
        let vi = m.value_iteration(0.9, 1e-10).unwrap();
        let pi = m.policy_iteration(0.9).unwrap();
        assert_eq!(vi.policy[..4], pi.policy[..4]);
        for s in 0..5 {
            assert!(
                (vi.values[s] - pi.values[s]).abs() < 1e-6,
                "state {s}: {} vs {}",
                vi.values[s],
                pi.values[s]
            );
        }
    }

    #[test]
    fn discount_shrinks_distant_rewards() {
        let m = chain();
        let patient = m.value_iteration(0.99, 1e-10).unwrap();
        let myopic = m.value_iteration(0.5, 1e-10).unwrap();
        assert!(patient.values[0] > myopic.values[0]);
    }

    #[test]
    fn stochastic_transitions_are_validated() {
        let bad = FiniteMdp::new(
            vec![vec![vec![(0, 0.5)]]], // sums to 0.5
            vec![vec![0.0]],
            vec![false],
        );
        assert!(matches!(bad, Err(MdpError::NotStochastic { .. })));
    }

    #[test]
    fn terminal_states_are_exempt_from_stochastic_check() {
        let ok = FiniteMdp::new(
            vec![vec![vec![]]], // terminal: empty transitions fine
            vec![vec![0.0]],
            vec![true],
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn stochastic_two_outcome_mdp() {
        // One state, two actions: safe pays 1.0; risky pays 10 w.p. 0.05,
        // else 0 — expected 0.5. Safe is optimal.
        let m = FiniteMdp::new(
            vec![
                vec![vec![(1, 1.0)], vec![(1, 0.05), (1, 0.95)]],
                vec![vec![], vec![]],
            ],
            vec![vec![1.0, 0.5], vec![0.0, 0.0]],
            vec![false, true],
        )
        .unwrap();
        let sol = m.value_iteration(0.9, 1e-9).unwrap();
        assert_eq!(sol.policy[0], 0);
    }

    #[test]
    fn rejects_bad_gamma() {
        let m = chain();
        assert!(m.value_iteration(1.5, 1e-6).is_err());
        assert!(m.value_iteration(-0.1, 1e-6).is_err());
        assert!(m.policy_iteration(2.0).is_err());
    }
}

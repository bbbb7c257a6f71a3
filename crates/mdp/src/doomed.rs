//! The MDP-based doomed-run "strategy card" (paper §3.3, Fig 10, and the
//! Type-1/Type-2 error table).
//!
//! States are binned `(violations(t), Δviolations)` pairs; actions are GO
//! ("hit": run another router iteration) and STOP ("stay": terminate the
//! run). Transitions and rewards are estimated from completed-run
//! logfiles; value iteration yields the policy; unseen states are filled
//! by the paper's footnote-5 rules; and accuracy is improved by requiring
//! `k` consecutive STOP signals before actually terminating.
//!
//! The module is deliberately independent of the router simulator: it
//! consumes plain per-iteration DRV count sequences, exactly what a
//! logfile parser would produce.

#![allow(clippy::needless_range_loop)] // state-indexed MDP assembly reads better indexed

use crate::finite::FiniteMdp;
use crate::MdpError;

/// Number of violation bins (the Fig 10 x-axis).
pub const V_BINS: usize = 18;
/// Number of ΔDRV bins (the Fig 10 y-axis; 0 = rising fast, last =
/// collapsing).
pub const D_BINS: usize = 8;

/// Bins a raw violation count: `min(17, floor(sqrt(v) / 8))`.
#[must_use]
pub fn bin_violations(v: u64) -> usize {
    (((v as f64).sqrt() / 8.0) as usize).min(V_BINS - 1)
}

/// Bins the normalized change `(cur - prev) / max(prev, 1)` into bins of
/// width 0.15: bin 0 ⇒ strong rise (> +0.15), bin 2 ⇒ flat, increasing
/// bins ⇒ steeper falls. Bin widths are deliberately coarse relative to
/// the router's iteration-to-iteration noise so that a run's behaviour
/// class maps to a *stable* card column (persistent STOP streaks are what
/// make consecutive-STOP gating effective).
#[must_use]
pub fn bin_delta(prev: u64, cur: u64) -> usize {
    let nd = (cur as f64 - prev as f64) / (prev.max(1) as f64);
    let raw = ((0.30 - nd) / 0.15).floor();
    (raw.max(0.0) as usize).min(D_BINS - 1)
}

/// Flat state index for a `(vbin, dbin)` pair.
#[must_use]
pub fn state_index(vbin: usize, dbin: usize) -> usize {
    vbin * D_BINS + dbin
}

/// GO/STOP decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Continue the run for another iteration ("hit").
    Go,
    /// Terminate the run ("stay").
    Stop,
}

/// Reward shaping for the empirical MDP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoomedConfig {
    /// DRV count below which a completed run succeeded (paper: 200).
    pub success_threshold: u64,
    /// Penalty per router iteration (resource cost of GO).
    pub step_penalty: f64,
    /// Reward for a run completing with low DRVs.
    pub success_reward: f64,
    /// Penalty for a run completing doomed.
    pub failure_penalty: f64,
    /// Discount factor for value iteration.
    pub gamma: f64,
}

impl Default for DoomedConfig {
    fn default() -> Self {
        Self {
            success_threshold: 200,
            step_penalty: 1.0,
            success_reward: 100.0,
            failure_penalty: 100.0,
            gamma: 0.98,
        }
    }
}

/// The derived strategy card.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyCard {
    /// Action per `(vbin, dbin)` state (flat, `V_BINS * D_BINS`).
    actions: Vec<Action>,
    /// Whether the state was observed in training (vs filled by rule).
    observed: Vec<bool>,
}

impl StrategyCard {
    /// Assembles a card from per-state actions and observed flags — the
    /// export path for alternative learners (e.g. Q-learning) that share
    /// the card shape and evaluation protocol.
    ///
    /// # Panics
    ///
    /// Panics unless both vectors have exactly `V_BINS * D_BINS` entries.
    #[must_use]
    pub fn from_parts(actions: Vec<Action>, observed: Vec<bool>) -> Self {
        assert_eq!(actions.len(), V_BINS * D_BINS, "one action per state");
        assert_eq!(observed.len(), V_BINS * D_BINS, "one flag per state");
        Self { actions, observed }
    }

    /// The action at a binned state.
    #[must_use]
    pub fn action(&self, vbin: usize, dbin: usize) -> Action {
        self.actions[state_index(vbin.min(V_BINS - 1), dbin.min(D_BINS - 1))]
    }

    /// Whether training data covered the state (Fig 10 distinguishes
    /// learned cells from rule-filled cells).
    #[must_use]
    pub fn was_observed(&self, vbin: usize, dbin: usize) -> bool {
        self.observed[state_index(vbin.min(V_BINS - 1), dbin.min(D_BINS - 1))]
    }

    /// Decides GO/STOP for iteration `t` of a DRV sequence prefix. The
    /// first report has no defined change-in-DRVs, so iteration 0 is
    /// always GO (a run is never killed on its first report).
    ///
    /// # Panics
    ///
    /// Panics if `t >= counts.len()`.
    #[must_use]
    pub fn decide(&self, counts: &[u64], t: usize) -> Action {
        if t == 0 {
            return Action::Go;
        }
        self.action(
            bin_violations(counts[t]),
            bin_delta(counts[t - 1], counts[t]),
        )
    }

    /// Fraction of card cells that say STOP.
    #[must_use]
    pub fn stop_fraction(&self) -> f64 {
        self.actions.iter().filter(|&&a| a == Action::Stop).count() as f64
            / self.actions.len() as f64
    }
}

/// The footnote-5 fill rule for states never seen in training.
#[must_use]
#[allow(clippy::if_same_then_else)] // branches mirror the paper's four rules
pub fn fill_rule(vbin: usize, dbin: usize) -> Action {
    let rising_or_flat = dbin <= 2;
    let strong_rise = dbin == 0;
    if vbin >= 12 {
        Action::Stop // (iii) very large violations
    } else if vbin >= 6 && rising_or_flat {
        Action::Stop // (i) large violations, positive slope
    } else if vbin < 6 && strong_rise {
        Action::Stop // (ii) small violations, large positive slope
    } else {
        Action::Go // (iv) everything else
    }
}

/// Derives the strategy card from completed-run DRV sequences by building
/// the empirical GO-transition MDP and solving it with value iteration.
///
/// # Errors
///
/// Returns [`MdpError::InvalidParameter`] if `runs` is empty or any run is
/// shorter than 2 iterations; propagates solver errors.
pub fn derive_card(runs: &[Vec<u64>], cfg: DoomedConfig) -> Result<StrategyCard, MdpError> {
    if runs.is_empty() {
        return Err(MdpError::InvalidParameter {
            name: "runs",
            detail: "need at least one training run".into(),
        });
    }
    if runs.iter().any(|r| r.len() < 2) {
        return Err(MdpError::InvalidParameter {
            name: "runs",
            detail: "each run needs at least two iterations".into(),
        });
    }
    let n_card = V_BINS * D_BINS;
    // Extra states: SUCCESS, FAIL, STOPPED terminals.
    let s_success = n_card;
    let s_fail = n_card + 1;
    let s_stopped = n_card + 2;
    let n_states = n_card + 3;

    // Empirical GO transitions: counts[s][s'] plus terminal entries.
    // BTreeMap, not HashMap: the iteration below folds probabilities
    // into float sums (`reward_go`) and builds the GO transition list
    // in iteration order, so hash-order iteration would make policies
    // differ between otherwise identical runs.
    let mut counts = vec![std::collections::BTreeMap::<usize, u64>::new(); n_card];
    let mut seen = vec![false; n_card];
    for run in runs {
        let succeeded = *run.last().expect("non-empty run") < cfg.success_threshold;
        // Iteration 0 has no defined delta and is never a decision point,
        // so training transitions start at t = 1.
        let state_at =
            |t: usize| state_index(bin_violations(run[t]), bin_delta(run[t - 1], run[t]));
        for t in 1..run.len() {
            let s = state_at(t);
            seen[s] = true;
            let next = if t + 1 < run.len() {
                state_at(t + 1)
            } else if succeeded {
                s_success
            } else {
                s_fail
            };
            *counts[s].entry(next).or_insert(0) += 1;
        }
    }

    // Assemble the MDP. Action 0 = GO, action 1 = STOP.
    let mut transitions: Vec<Vec<Vec<(usize, f64)>>> = Vec::with_capacity(n_states);
    let mut rewards: Vec<Vec<f64>> = Vec::with_capacity(n_states);
    let mut terminal = vec![false; n_states];
    terminal[s_success] = true;
    terminal[s_fail] = true;
    terminal[s_stopped] = true;
    for s in 0..n_card {
        if counts[s].is_empty() {
            // Unseen: GO self-loops at step cost (never preferred over
            // STOP); the fill rule overrides the policy below anyway.
            transitions.push(vec![vec![(s, 1.0)], vec![(s_stopped, 1.0)]]);
            rewards.push(vec![-cfg.step_penalty, 0.0]);
            continue;
        }
        let total: u64 = counts[s].values().sum();
        let mut go: Vec<(usize, f64)> = Vec::with_capacity(counts[s].len());
        let mut reward_go = -cfg.step_penalty;
        for (&ns, &c) in &counts[s] {
            let p = c as f64 / total as f64;
            if ns == s_success {
                reward_go += p * cfg.success_reward;
            } else if ns == s_fail {
                reward_go -= p * cfg.failure_penalty;
            }
            go.push((ns, p));
        }
        transitions.push(vec![go, vec![(s_stopped, 1.0)]]);
        rewards.push(vec![reward_go, 0.0]);
    }
    for _ in n_card..n_states {
        transitions.push(vec![vec![], vec![]]);
        rewards.push(vec![0.0, 0.0]);
    }
    let mdp = FiniteMdp::new(transitions, rewards, terminal)?;
    let sol = mdp.value_iteration(cfg.gamma, 1e-9)?;

    let mut actions = Vec::with_capacity(n_card);
    let mut observed = Vec::with_capacity(n_card);
    for s in 0..n_card {
        let (vbin, dbin) = (s / D_BINS, s % D_BINS);
        if seen[s] {
            actions.push(if sol.policy[s] == 0 {
                Action::Go
            } else {
                Action::Stop
            });
            observed.push(true);
        } else {
            actions.push(fill_rule(vbin, dbin));
            observed.push(false);
        }
    }
    Ok(StrategyCard { actions, observed })
}

/// One row of the paper's error table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRow {
    /// Consecutive STOP signals required before terminating.
    pub k_consecutive: usize,
    /// Total runs evaluated.
    pub total_runs: usize,
    /// Type-1 errors: stopped a run that would have succeeded.
    pub type1: usize,
    /// Type-2 errors: let a doomed run go to completion.
    pub type2: usize,
    /// Mean router iterations saved on correctly-stopped doomed runs.
    pub mean_iterations_saved: f64,
}

impl ErrorRow {
    /// Total error rate `(type1 + type2) / total`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.total_runs == 0 {
            return 0.0;
        }
        (self.type1 + self.type2) as f64 / self.total_runs as f64
    }
}

/// Evaluates a card over completed-run sequences with `k`-consecutive-STOP
/// gating.
///
/// # Errors
///
/// Returns [`MdpError::InvalidParameter`] if `k == 0` or `runs` is empty.
pub fn evaluate(
    card: &StrategyCard,
    runs: &[Vec<u64>],
    success_threshold: u64,
    k_consecutive: usize,
) -> Result<ErrorRow, MdpError> {
    if k_consecutive == 0 {
        return Err(MdpError::InvalidParameter {
            name: "k_consecutive",
            detail: "must be at least 1".into(),
        });
    }
    if runs.is_empty() {
        return Err(MdpError::InvalidParameter {
            name: "runs",
            detail: "need at least one run".into(),
        });
    }
    let mut type1 = 0usize;
    let mut type2 = 0usize;
    let mut saved_total = 0usize;
    let mut saved_count = 0usize;
    for run in runs {
        let succeeded = *run.last().expect("non-empty run") < success_threshold;
        let mut consecutive = 0usize;
        let mut stopped_at: Option<usize> = None;
        for t in 0..run.len() {
            match card.decide(run, t) {
                Action::Stop => {
                    consecutive += 1;
                    if consecutive >= k_consecutive {
                        stopped_at = Some(t);
                        break;
                    }
                }
                Action::Go => consecutive = 0,
            }
        }
        match (stopped_at, succeeded) {
            (Some(_), true) => type1 += 1,
            (None, false) => type2 += 1,
            (Some(t), false) => {
                saved_total += run.len() - 1 - t;
                saved_count += 1;
            }
            (None, true) => {}
        }
    }
    Ok(ErrorRow {
        k_consecutive,
        total_runs: runs.len(),
        type1,
        type2,
        mean_iterations_saved: if saved_count == 0 {
            0.0
        } else {
            saved_total as f64 / saved_count as f64
        },
    })
}

/// Builds the full table (k = 1, 2, 3) for a card over a corpus.
///
/// # Errors
///
/// Propagates [`evaluate`] errors.
pub fn error_table(
    card: &StrategyCard,
    runs: &[Vec<u64>],
    success_threshold: u64,
) -> Result<Vec<ErrorRow>, MdpError> {
    (1..=3)
        .map(|k| evaluate(card, runs, success_threshold, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A falling run that succeeds: 8000 halving every iteration.
    fn success_run() -> Vec<u64> {
        let mut v = 8_000f64;
        (0..20)
            .map(|_| {
                v *= 0.55;
                v.round() as u64
            })
            .collect()
    }

    /// A plateau run that fails around 1500 DRVs.
    fn plateau_run() -> Vec<u64> {
        let mut v = 8_000f64;
        (0..20)
            .map(|_| {
                if v > 1_500.0 {
                    v *= 0.8;
                }
                v.round() as u64
            })
            .collect()
    }

    /// A diverging run.
    fn diverge_run() -> Vec<u64> {
        let mut v = 5_000f64;
        (0..20)
            .map(|i| {
                v *= if i < 4 { 0.9 } else { 1.15 };
                v.round() as u64
            })
            .collect()
    }

    fn corpus() -> Vec<Vec<u64>> {
        let mut c = Vec::new();
        for _ in 0..40 {
            c.push(success_run());
            c.push(plateau_run());
            c.push(diverge_run());
        }
        c
    }

    #[test]
    fn binning_is_monotone_and_bounded() {
        assert_eq!(bin_violations(0), 0);
        assert!(bin_violations(100) <= bin_violations(10_000));
        assert_eq!(bin_violations(u64::MAX / 4), V_BINS - 1);
        // Rising deltas land in low bins, falling in high bins.
        assert!(bin_delta(1_000, 1_500) < bin_delta(1_000, 1_000));
        assert!(bin_delta(1_000, 1_000) < bin_delta(1_000, 200));
        assert!(bin_delta(1_000, 0) < D_BINS);
    }

    #[test]
    fn card_derivation_produces_sensible_regions() {
        let card = derive_card(&corpus(), DoomedConfig::default()).unwrap();
        // Very-high-violation rising states: STOP (observed or filled).
        assert_eq!(card.action(17, 0), Action::Stop);
        // Low violations falling fast: GO.
        assert_eq!(card.action(1, 5), Action::Go);
        // Some cells observed, some filled.
        assert!(card.stop_fraction() > 0.05);
        assert!(card.stop_fraction() < 0.95);
    }

    #[test]
    fn consecutive_stops_reduce_type1_errors() {
        let card = derive_card(&corpus(), DoomedConfig::default()).unwrap();
        let table = error_table(&card, &corpus(), 200).unwrap();
        assert_eq!(table.len(), 3);
        // Error never increases with k on this corpus, and Type-2 stays 0
        // or tiny (doomed runs sit in STOP regions persistently).
        assert!(table[2].error_rate() <= table[0].error_rate() + 1e-12);
        assert!(table[2].type2 <= 2);
    }

    #[test]
    fn doomed_runs_are_stopped_early() {
        let card = derive_card(&corpus(), DoomedConfig::default()).unwrap();
        let doomed = vec![plateau_run(), diverge_run()];
        let row = evaluate(&card, &doomed, 200, 2).unwrap();
        assert_eq!(row.type2, 0, "doomed runs must be caught");
        assert!(row.mean_iterations_saved > 3.0);
    }

    #[test]
    fn fill_rules_match_footnote5() {
        assert_eq!(fill_rule(17, 5), Action::Stop); // very large violations
        assert_eq!(fill_rule(8, 1), Action::Stop); // large + positive slope
        assert_eq!(fill_rule(2, 0), Action::Stop); // small + large rise
        assert_eq!(fill_rule(3, 5), Action::Go); // moderate falling
    }

    #[test]
    fn evaluate_validates_input() {
        let card = derive_card(&corpus(), DoomedConfig::default()).unwrap();
        assert!(evaluate(&card, &corpus(), 200, 0).is_err());
        assert!(evaluate(&card, &[], 200, 1).is_err());
        assert!(derive_card(&[], DoomedConfig::default()).is_err());
        assert!(derive_card(&[vec![5]], DoomedConfig::default()).is_err());
    }

    #[test]
    fn decide_walks_a_trajectory() {
        let card = derive_card(&corpus(), DoomedConfig::default()).unwrap();
        let run = diverge_run();
        // By late iterations a diverging run must be in STOP states.
        let late_stops = (14..20)
            .filter(|&t| card.decide(&run, t) == Action::Stop)
            .count();
        assert!(late_stops >= 4, "late stops {late_stops}");
    }
}

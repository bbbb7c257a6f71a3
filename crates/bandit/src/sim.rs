//! Bandit simulation harnesses with regret accounting.
//!
//! Two loop shapes: the textbook sequential pull loop, and the paper's
//! *budgeted concurrent* loop — `concurrency` tool runs per iteration for
//! `iterations` iterations (Fig 7 uses 5 × 40), "inherently adaptive to
//! its given budget of design schedule and number of tool licenses".

use crate::policy::BanditPolicy;
use crate::{BanditError, BatchEnvironment, Environment};
use ideaflow_exec::current_par_map;
use ideaflow_trace::{Journal, PayloadValue};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Emits one `bandit.pull` journal event: the pull index, chosen arm,
/// observed reward, cumulative regret (NaN without an oracle) and the
/// policy's posterior-mean snapshot after the update.
fn journal_pull(
    journal: &Journal,
    policy: &impl BanditPolicy,
    t: usize,
    arm: usize,
    reward: f64,
    regret: Option<f64>,
) {
    if !journal.is_enabled() {
        return;
    }
    let posterior: Vec<PayloadValue> = policy
        .posterior_means()
        .into_iter()
        .map(PayloadValue::from)
        .collect();
    journal.emit(
        "bandit.pull",
        &[
            ("t", (t as i64).into()),
            ("policy", policy.name().into()),
            ("arm", (arm as i64).into()),
            ("reward", reward.into()),
            ("cumulative_regret", regret.unwrap_or(f64::NAN).into()),
            ("posterior_means", PayloadValue::Array(posterior)),
        ],
    );
    journal.count("bandit.pulls", 1);
    journal.observe("bandit.reward", reward);
}

/// The record of one bandit run.
#[derive(Debug, Clone, PartialEq)]
pub struct BanditRun {
    /// Arm chosen at each pull.
    pub chosen: Vec<usize>,
    /// Reward observed at each pull.
    pub rewards: Vec<f64>,
    /// Cumulative expected regret after each pull (empty if the
    /// environment does not expose its optimal mean).
    pub cumulative_regret: Vec<f64>,
}

impl BanditRun {
    /// Total reward collected.
    #[must_use]
    pub fn total_reward(&self) -> f64 {
        self.rewards.iter().sum()
    }

    /// Final cumulative regret (None without an oracle).
    #[must_use]
    pub fn final_regret(&self) -> Option<f64> {
        self.cumulative_regret.last().copied()
    }

    /// The best reward observed so far after each pull — the Fig 7 "best
    /// from N samples x M iterations" line.
    #[must_use]
    pub fn best_so_far(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.rewards
            .iter()
            .map(|&r| {
                best = best.max(r);
                best
            })
            .collect()
    }
}

/// Sequential pull loop for `pulls` steps.
///
/// # Errors
///
/// Returns [`BanditError::InvalidParameter`] if the policy and environment
/// disagree on arm count, or `pulls == 0`.
pub fn run_sequential<P: BanditPolicy, E: Environment>(
    policy: &mut P,
    env: &mut E,
    pulls: usize,
    seed: u64,
) -> Result<BanditRun, BanditError> {
    run_sequential_journaled(policy, env, pulls, seed, &Journal::disabled())
}

/// [`run_sequential`] with a run-journal hook: one `bandit.pull` event
/// per pull (arm, reward, regret, posterior snapshot). A disabled journal
/// makes this identical to the plain entry point.
///
/// # Errors
///
/// Same conditions as [`run_sequential`].
pub fn run_sequential_journaled<P: BanditPolicy, E: Environment>(
    policy: &mut P,
    env: &mut E,
    pulls: usize,
    seed: u64,
    journal: &Journal,
) -> Result<BanditRun, BanditError> {
    if policy.arm_count() != env.arm_count() {
        return Err(BanditError::InvalidParameter {
            name: "arms",
            detail: format!(
                "policy has {} arms, environment {}",
                policy.arm_count(),
                env.arm_count()
            ),
        });
    }
    if pulls == 0 {
        return Err(BanditError::InvalidParameter {
            name: "pulls",
            detail: "need at least one pull".into(),
        });
    }
    let _span = journal.span("bandit.run_sequential");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = Vec::with_capacity(pulls);
    let mut rewards = Vec::with_capacity(pulls);
    let mut cumulative_regret = Vec::new();
    let mut regret = 0.0;
    for t in 0..pulls {
        let arm = policy.select(&mut rng);
        let r = env.pull(arm, t as u32);
        policy.update(arm, r);
        chosen.push(arm);
        rewards.push(r);
        let mut regret_now = None;
        if let Some(opt) = env.optimal_mean() {
            regret += opt - r;
            cumulative_regret.push(regret);
            regret_now = Some(regret);
        }
        journal_pull(journal, policy, t, arm, r, regret_now);
    }
    Ok(BanditRun {
        chosen,
        rewards,
        cumulative_regret,
    })
}

/// One iteration of a concurrent run: the arms launched and their rewards.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrentIteration {
    /// Arms launched this iteration (length = concurrency).
    pub arms: Vec<usize>,
    /// Rewards observed (0.0 for censored pulls).
    pub rewards: Vec<f64>,
    /// Which pulls were censored: the tool run failed outright, so the
    /// reward is a placeholder and neither the policy posterior nor the
    /// environment bookkeeping saw the pull.
    pub censored: Vec<bool>,
}

/// Budgeted concurrent loop: each iteration selects `concurrency` arms
/// (with the policy's current posterior), launches them in parallel on
/// the executor pool, then feeds back all rewards at once — the Fig 7
/// 5×40 schedule. Each pull keeps the pull index the sequential loop
/// would assign it, so outcomes are bit-identical at any thread count.
///
/// # Errors
///
/// Same conditions as [`run_sequential`], plus `concurrency == 0`.
pub fn run_concurrent<P: BanditPolicy, E: BatchEnvironment>(
    policy: &mut P,
    env: &mut E,
    iterations: usize,
    concurrency: usize,
    seed: u64,
) -> Result<Vec<ConcurrentIteration>, BanditError> {
    run_concurrent_journaled(
        policy,
        env,
        iterations,
        concurrency,
        seed,
        &Journal::disabled(),
    )
}

/// [`run_concurrent`] with a run-journal hook: one `bandit.pull` event per
/// launched tool run (so a 5×40 schedule journals exactly 200 pulls) plus
/// one `bandit.iteration` event per feedback round.
///
/// # Errors
///
/// Same conditions as [`run_concurrent`].
pub fn run_concurrent_journaled<P: BanditPolicy, E: BatchEnvironment>(
    policy: &mut P,
    env: &mut E,
    iterations: usize,
    concurrency: usize,
    seed: u64,
    journal: &Journal,
) -> Result<Vec<ConcurrentIteration>, BanditError> {
    if policy.arm_count() != env.arm_count() {
        return Err(BanditError::InvalidParameter {
            name: "arms",
            detail: "policy/environment arm mismatch".into(),
        });
    }
    if iterations == 0 || concurrency == 0 {
        return Err(BanditError::InvalidParameter {
            name: "iterations",
            detail: "iterations and concurrency must be positive".into(),
        });
    }
    let _span = journal.span("bandit.run_concurrent");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(iterations);
    let mut t = 0u32;
    for iter in 0..iterations {
        // Select the batch first (no feedback within an iteration: the
        // licenses run concurrently).
        let arms: Vec<usize> = (0..concurrency).map(|_| policy.select(&mut rng)).collect();
        // Launch the batch on the pool: reward computation is pure in
        // (arm, pull index), so the k-th pull of this iteration gets the
        // exact pull index the sequential loop would hand it. Dispatch
        // by pull slot (borrowing `arms`) rather than cloning the batch
        // every iteration; the pool chunks the slots so the per-task
        // grain is a whole tool run, not a queue hop per index.
        let base_t = t;
        let observed: Vec<Option<f64>> = {
            let env: &E = env;
            let arms: &[usize] = &arms;
            current_par_map((0..concurrency).collect(), |_, k: usize| {
                env.try_peek(arms[k], base_t + k as u32)
            })
        };
        let censored: Vec<bool> = observed.iter().map(Option::is_none).collect();
        let rewards: Vec<f64> = observed.iter().map(|r| r.unwrap_or(0.0)).collect();
        // Feedback is sequential and in pull order, as before. Censored
        // pulls are skipped entirely: the posterior and the environment
        // history never see them, so a failed run wastes budget without
        // corrupting beliefs.
        for (k, &a) in arms.iter().enumerate() {
            if let Some(r) = observed[k] {
                env.record(a, base_t + k as u32, r);
                policy.update(a, r);
            }
        }
        t = base_t + concurrency as u32;
        if journal.is_enabled() {
            for (k, &a) in arms.iter().enumerate() {
                let pull_index = iter * concurrency + k;
                match observed[k] {
                    Some(r) => journal_pull(journal, policy, pull_index, a, r, None),
                    None => {
                        journal.emit(
                            "bandit.censored",
                            &[
                                ("t", (pull_index as i64).into()),
                                ("policy", policy.name().into()),
                                ("arm", (a as i64).into()),
                            ],
                        );
                        journal.count("faults.censored_pulls", 1);
                    }
                }
            }
            let best = rewards.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            journal.emit(
                "bandit.iteration",
                &[
                    ("iteration", (iter as i64).into()),
                    ("concurrency", (concurrency as i64).into()),
                    ("best_reward", best.into()),
                ],
            );
        }
        out.push(ConcurrentIteration {
            arms,
            rewards,
            censored,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EpsilonGreedy, Softmax, ThompsonGaussian};
    use crate::GaussianEnv;

    fn env(seed: u64) -> GaussianEnv {
        GaussianEnv::new(
            vec![0.1, 0.5, 0.9, 0.4, 0.2],
            vec![0.2, 0.2, 0.2, 0.2, 0.2],
            seed,
        )
        .unwrap()
    }

    #[test]
    fn sequential_run_bookkeeping() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e = env(1);
        let run = run_sequential(&mut p, &mut e, 200, 3).unwrap();
        assert_eq!(run.chosen.len(), 200);
        assert_eq!(run.rewards.len(), 200);
        assert_eq!(run.cumulative_regret.len(), 200);
        // Regret is non-decreasing in expectation but can locally dip if a
        // reward exceeds the optimal mean; check start/end ordering only.
        assert!(run.final_regret().unwrap() >= run.cumulative_regret[0] - 1.0);
        let b = run.best_so_far();
        assert!(b.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn thompson_has_sublinear_regret_vs_uniform() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e = env(5);
        let run = run_sequential(&mut p, &mut e, 500, 7).unwrap();
        let regret = run.final_regret().unwrap();
        // Uniform play loses (opt - mean_of_means) = 0.9 - 0.42 = 0.48/pull
        // => 240 total. Thompson should do far better.
        assert!(regret < 120.0, "regret {regret}");
    }

    #[test]
    fn concurrent_matches_budget() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e = env(2);
        let iters = run_concurrent(&mut p, &mut e, 40, 5, 11).unwrap();
        assert_eq!(iters.len(), 40);
        assert!(iters.iter().all(|i| i.arms.len() == 5));
        let total: usize = iters.iter().map(|i| i.arms.len()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn concurrent_concentrates_on_good_arms_over_time() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e = env(4);
        let iters = run_concurrent(&mut p, &mut e, 40, 5, 13).unwrap();
        let early: usize = iters[..10]
            .iter()
            .flat_map(|i| i.arms.iter())
            .filter(|&&a| a == 2)
            .count();
        let late: usize = iters[30..]
            .iter()
            .flat_map(|i| i.arms.iter())
            .filter(|&&a| a == 2)
            .count();
        assert!(late > early, "late {late} vs early {early}");
        assert!(late >= 35, "late best-arm share {late}/50");
    }

    #[test]
    fn journaled_sequential_emits_one_event_per_pull() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e = env(1);
        let journal = Journal::in_memory("seq-test");
        let run = run_sequential_journaled(&mut p, &mut e, 50, 3, &journal).unwrap();

        let mut p2 = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e2 = env(1);
        let plain = run_sequential(&mut p2, &mut e2, 50, 3).unwrap();
        assert_eq!(run, plain, "journaling must not perturb the run");

        let lines = journal.drain_lines().join("\n");
        let reader = ideaflow_trace::JournalReader::from_jsonl(&lines).unwrap();
        let pulls = reader.events_for_step("bandit.pull");
        assert_eq!(pulls.len(), 50);
        assert!(reader.seq_strictly_increasing_per_run());
        // Each pull snapshots the full posterior.
        let obj = pulls[49].payload.as_object().unwrap();
        let posterior = obj
            .iter()
            .find(|(k, _)| k == "posterior_means")
            .and_then(|(_, v)| v.as_array())
            .unwrap();
        assert_eq!(posterior.len(), 5);
        let reward = reader.field_stats("bandit.pull", "reward").unwrap();
        assert_eq!(reward.count, 50);
        assert!((reward.mean - run.total_reward() / 50.0).abs() < 1e-9);
    }

    #[test]
    fn journaled_concurrent_pull_count_equals_budget() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e = env(2);
        let journal = Journal::in_memory("conc-test");
        let iters = run_concurrent_journaled(&mut p, &mut e, 40, 5, 11, &journal).unwrap();
        assert_eq!(iters.len(), 40);

        let lines = journal.drain_lines().join("\n");
        let reader = ideaflow_trace::JournalReader::from_jsonl(&lines).unwrap();
        // The acceptance bar: per-pull event count equals the configured
        // budget (iterations x concurrency).
        assert_eq!(reader.events_for_step("bandit.pull").len(), 200);
        assert_eq!(reader.events_for_step("bandit.iteration").len(), 40);
    }

    /// A Gaussian environment whose pulls fail deterministically in
    /// `(arm, t)` at a fixed rate — a stand-in for tool runs whose
    /// supervisor gave up.
    #[derive(Debug, Clone)]
    struct FlakyEnv {
        inner: GaussianEnv,
        rate: f64,
    }

    impl FlakyEnv {
        fn fails(&self, arm: usize, t: u32) -> bool {
            let mut h = (arm as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ u64::from(t).wrapping_mul(0xD1B5_4A32_D192_ED03);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            ((h >> 11) as f64 / (1u64 << 53) as f64) < self.rate
        }
    }

    impl Environment for FlakyEnv {
        fn arm_count(&self) -> usize {
            self.inner.arm_count()
        }
        fn pull(&mut self, arm: usize, t: u32) -> f64 {
            self.inner.pull(arm, t)
        }
    }

    impl BatchEnvironment for FlakyEnv {
        fn peek(&self, arm: usize, t: u32) -> f64 {
            self.inner.peek(arm, t)
        }
        fn try_peek(&self, arm: usize, t: u32) -> Option<f64> {
            if self.fails(arm, t) {
                None
            } else {
                Some(self.inner.peek(arm, t))
            }
        }
    }

    #[test]
    fn censored_pulls_skip_feedback_but_keep_the_budget_shape() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e = FlakyEnv {
            inner: env(2),
            rate: 0.08,
        };
        let journal = Journal::in_memory("censor-test");
        let iters = run_concurrent_journaled(&mut p, &mut e, 40, 5, 11, &journal).unwrap();
        assert_eq!(iters.len(), 40);

        let censored: usize = iters
            .iter()
            .flat_map(|i| &i.censored)
            .filter(|&&c| c)
            .count();
        assert!(censored > 0, "rate 0.08 over 200 pulls must censor some");
        assert!(censored < 200, "not every pull may fail");
        // Censored pulls carry the placeholder reward.
        for it in &iters {
            for (k, &c) in it.censored.iter().enumerate() {
                if c {
                    assert_eq!(it.rewards[k], 0.0);
                }
            }
        }

        // Journal: pull events + censored events partition the budget, and
        // the posterior warm-start sees only the uncensored pulls.
        let lines = journal.drain_lines().join("\n");
        let reader = ideaflow_trace::JournalReader::from_jsonl(&lines).unwrap();
        let pulls = reader.events_for_step("bandit.pull").len();
        let cens = reader.events_for_step("bandit.censored").len();
        assert_eq!(pulls + cens, 200);
        assert_eq!(cens, censored);
        let mut warm = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        assert_eq!(warm.seed_from_journal(&reader), 200 - censored);

        // Bit-identical rerun: censoring is pure in (arm, t).
        let mut p2 = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e2 = FlakyEnv {
            inner: env(2),
            rate: 0.08,
        };
        let again = run_concurrent(&mut p2, &mut e2, 40, 5, 11).unwrap();
        assert_eq!(iters, again);
    }

    #[test]
    fn fault_free_censoring_path_matches_plain_peek() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e = FlakyEnv {
            inner: env(2),
            rate: 0.0,
        };
        let flaky = run_concurrent(&mut p, &mut e, 40, 5, 11).unwrap();
        let mut p2 = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e2 = env(2);
        let plain = run_concurrent(&mut p2, &mut e2, 40, 5, 11).unwrap();
        assert_eq!(flaky, plain);
        assert!(flaky.iter().all(|i| i.censored.iter().all(|&c| !c)));
    }

    #[test]
    fn mismatched_arms_rejected() {
        let mut p = EpsilonGreedy::new(3, 0.1).unwrap();
        let mut e = env(1);
        assert!(run_sequential(&mut p, &mut e, 10, 0).is_err());
        let mut s = Softmax::new(3, 0.1).unwrap();
        assert!(run_concurrent(&mut s, &mut e, 10, 2, 0).is_err());
    }

    #[test]
    fn zero_budget_rejected() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.2).unwrap();
        let mut e = env(1);
        assert!(run_sequential(&mut p, &mut e, 0, 0).is_err());
        assert!(run_concurrent(&mut p, &mut e, 0, 5, 0).is_err());
        assert!(run_concurrent(&mut p, &mut e, 5, 0, 0).is_err());
    }
}

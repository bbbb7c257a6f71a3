//! E-F7 — multi-armed-bandit tool-run scheduling (paper Fig 7).
//!
//! Thompson sampling over target-frequency arms of the noisy SP&R flow at
//! the paper's budget: 5 concurrent samples × 40 iterations. Also the
//! robustness ablation behind the paper's claim that "TS is found to be
//! more robust ... across a wide range of settings, compared to other
//! algorithms" (softmax, ε-greedy).

use ideaflow_bandit::policy::{BanditPolicy, EpsilonGreedy, Softmax, ThompsonGaussian};
use ideaflow_bandit::sim::{run_concurrent, run_concurrent_journaled};
use ideaflow_core::mab_env::{FrequencyArms, PullRecord, QorConstraints};
use ideaflow_flow::cache::QorCache;
use ideaflow_flow::spnr::SpnrFlow;
use ideaflow_netlist::generate::{DesignClass, DesignSpec};
use ideaflow_trace::Journal;

/// The Fig 7 scatter plus the best-so-far line.
#[derive(Debug, Clone)]
pub struct Fig07Data {
    /// Calibrated fmax of the testcase.
    pub fmax_ghz: f64,
    /// Every pull: iteration, arm frequency, success.
    pub pulls: Vec<PullRecord>,
    /// Best successful frequency after each iteration (the solid line).
    pub best_line: Vec<f64>,
    /// Iterations × concurrency.
    pub schedule: (usize, usize),
}

/// Runs the TS 5×40 schedule on a PULPino-like design.
#[must_use]
pub fn run(instances: usize, seed: u64) -> Fig07Data {
    run_journaled(instances, seed, &Journal::disabled())
}

/// [`run`] with a run-journal hook: every tool pull of the 5×40 schedule
/// lands in the journal as a `bandit.pull` event (200 in total), plus one
/// `bandit.iteration` event per feedback round.
#[must_use]
pub fn run_journaled(instances: usize, seed: u64, journal: &Journal) -> Fig07Data {
    let flow = SpnrFlow::new(
        DesignSpec::new(DesignClass::Cpu, instances).expect("valid spec"),
        seed,
    );
    let fmax = flow.fmax_ref_ghz();
    let mut env = FrequencyArms::linspace(
        &flow,
        fmax * 0.5,
        fmax * 1.15,
        17,
        QorConstraints::timing_only(),
    )
    .expect("valid arm range");
    let mut policy = ThompsonGaussian::new(17, fmax, fmax * 0.3).expect("valid policy");
    let iterations = 40;
    let concurrency = 5;
    run_concurrent_journaled(
        &mut policy,
        &mut env,
        iterations,
        concurrency,
        seed ^ 0x715,
        journal,
    )
    .expect("valid schedule");
    let pulls = env.history().to_vec();
    let mut best = 0.0f64;
    let best_line = (0..iterations)
        .map(|it| {
            for p in &pulls[it * concurrency..(it + 1) * concurrency] {
                if p.success {
                    best = best.max(p.target_ghz);
                }
            }
            best
        })
        .collect();
    Fig07Data {
        fmax_ghz: fmax,
        pulls,
        best_line,
        schedule: (iterations, concurrency),
    }
}

/// One row of the robustness ablation: a policy's total collected reward
/// (the MAB objective `E[sum r]`) across repetitions, normalized by pull
/// count and fmax.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Policy name.
    pub policy: &'static str,
    /// Mean (over repetitions) normalized total reward.
    pub mean_reward: f64,
    /// Worst repetition's normalized total reward (robustness = the worst
    /// case across settings).
    pub worst_reward: f64,
}

/// The TS vs softmax vs ε-greedy robustness comparison, repeated over
/// `reps` seeds.
#[must_use]
pub fn robustness(instances: usize, reps: u64, seed: u64) -> Vec<RobustnessRow> {
    // Every repetition replays pull indices 0..200 over the same 17 arms,
    // so across policies and reps most (arm, t) evaluations repeat — the
    // QoR memo cache answers those without re-running the fast surface
    // (and, being deterministic, without changing any reward).
    let flow = SpnrFlow::new(
        DesignSpec::new(DesignClass::Cpu, instances).expect("valid spec"),
        seed,
    )
    .with_cache(QorCache::new());
    let fmax = flow.fmax_ref_ghz();
    let make_env = || {
        FrequencyArms::linspace(
            &flow,
            fmax * 0.5,
            fmax * 1.15,
            17,
            QorConstraints::timing_only(),
        )
        .expect("valid arm range")
    };
    let mut rows = Vec::new();
    type PolicyFactory = Box<dyn Fn() -> Box<dyn BanditPolicy>>;
    let policies: Vec<(&'static str, PolicyFactory)> = vec![
        (
            "thompson",
            Box::new(move || Box::new(ThompsonGaussian::new(17, fmax, fmax * 0.3).expect("valid"))),
        ),
        (
            "softmax",
            Box::new(move || Box::new(Softmax::new(17, fmax * 0.15).expect("valid"))),
        ),
        (
            "egreedy",
            Box::new(|| Box::new(EpsilonGreedy::new(17, 0.1).expect("valid"))),
        ),
    ];
    for (name, make_policy) in policies {
        let mut rewards = Vec::new();
        for rep in 0..reps {
            let mut env = make_env();
            let mut policy = make_policy();
            run_concurrent(&mut policy, &mut env, 40, 5, seed ^ (rep << 8))
                .expect("valid schedule");
            let total: f64 = env
                .history()
                .iter()
                .map(|p| if p.success { p.target_ghz } else { 0.0 })
                .sum();
            rewards.push(total / (200.0 * fmax));
        }
        rows.push(RobustnessRow {
            policy: name,
            mean_reward: rewards.iter().sum::<f64>() / rewards.len() as f64,
            worst_reward: rewards.iter().copied().fold(f64::INFINITY, f64::min),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_concentrates_and_best_line_is_monotone() {
        let d = run(300, 5);
        assert_eq!(d.pulls.len(), 200);
        assert!(d.best_line.windows(2).all(|w| w[1] >= w[0]));
        let final_best = *d.best_line.last().unwrap();
        assert!(
            final_best > 0.8 * d.fmax_ghz,
            "best {} vs fmax {}",
            final_best,
            d.fmax_ghz
        );
        // Both successful and unsuccessful samples appear (the two marker
        // kinds of Fig 7).
        assert!(d.pulls.iter().any(|p| p.success));
        assert!(d.pulls.iter().any(|p| !p.success));
    }

    #[test]
    fn journaled_run_emits_one_event_per_configured_pull() {
        let journal = Journal::in_memory("fig07-test");
        let d = run_journaled(300, 5, &journal);
        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };
        // Acceptance bar: per-pull journal count equals the configured
        // budget (iterations x concurrency).
        assert_eq!(
            reader.events_for_step("bandit.pull").len(),
            d.schedule.0 * d.schedule.1
        );
        assert_eq!(
            reader.events_for_step("bandit.iteration").len(),
            d.schedule.0
        );
        assert!(reader.seq_strictly_increasing_per_run());
    }

    #[test]
    fn thompson_is_most_robust() {
        let rows = robustness(300, 6, 9);
        let ts = rows.iter().find(|r| r.policy == "thompson").unwrap();
        for r in &rows {
            assert!(
                ts.worst_reward >= r.worst_reward - 0.03,
                "thompson worst {} vs {} worst {}",
                ts.worst_reward,
                r.policy,
                r.worst_reward
            );
        }
        assert!(
            ts.mean_reward > 0.5,
            "thompson mean reward {}",
            ts.mean_reward
        );
    }
}

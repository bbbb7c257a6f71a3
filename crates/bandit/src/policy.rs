//! Bandit policies: Thompson (Gaussian), ε-greedy, softmax.

use crate::BanditError;
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// A sequential arm-selection policy.
pub trait BanditPolicy {
    /// Chooses the next arm to pull.
    fn select(&mut self, rng: &mut StdRng) -> usize;

    /// Feeds back the observed reward for an arm.
    fn update(&mut self, arm: usize, reward: f64);

    /// Number of arms.
    fn arm_count(&self) -> usize;

    /// Display name.
    fn name(&self) -> &'static str;

    /// The policy's current per-arm mean estimates (posterior means for
    /// Bayesian policies, empirical means otherwise). Arms never pulled
    /// report `0.0`. Used by the run journal to snapshot policy state at
    /// each pull.
    fn posterior_means(&self) -> Vec<f64> {
        vec![0.0; self.arm_count()]
    }
}

impl<P: BanditPolicy + ?Sized> BanditPolicy for Box<P> {
    fn select(&mut self, rng: &mut StdRng) -> usize {
        (**self).select(rng)
    }

    fn update(&mut self, arm: usize, reward: f64) {
        (**self).update(arm, reward);
    }

    fn arm_count(&self) -> usize {
        (**self).arm_count()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn posterior_means(&self) -> Vec<f64> {
        (**self).posterior_means()
    }
}

/// Shared `posterior_means` over [`ArmStats`] tables.
fn empirical_means(stats: &[ArmStats]) -> Vec<f64> {
    stats.iter().map(|s| s.mean).collect()
}

/// Per-arm sufficient statistics (count, mean, M2 for Welford variance).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ArmStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl ArmStats {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    fn sample_std(&self) -> f64 {
        if self.n < 2 {
            return f64::NAN;
        }
        (self.m2 / (self.n - 1) as f64).sqrt()
    }
}

/// Thompson Sampling with Gaussian rewards (refs \[38\]\[33\]\[40\]).
///
/// Each arm's mean carries a Normal posterior; at selection time one draws
/// a mean from each posterior and plays the argmax. Unknown variance is
/// handled empirically (sample std with a prior floor).
#[derive(Debug, Clone)]
pub struct ThompsonGaussian {
    stats: Vec<ArmStats>,
    /// Prior standard deviation of arm means (exploration width before
    /// data arrives).
    prior_std: f64,
    /// Prior guess of reward noise (used until an arm has 2 samples).
    noise_guess: f64,
}

impl ThompsonGaussian {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidParameter`] if `arms == 0` or widths
    /// are non-positive.
    pub fn new(arms: usize, prior_std: f64, noise_guess: f64) -> Result<Self, BanditError> {
        if arms == 0 {
            return Err(BanditError::InvalidParameter {
                name: "arms",
                detail: "need at least one arm".into(),
            });
        }
        if prior_std <= 0.0 || noise_guess <= 0.0 {
            return Err(BanditError::InvalidParameter {
                name: "prior_std",
                detail: "prior widths must be positive".into(),
            });
        }
        Ok(Self {
            stats: vec![ArmStats::default(); arms],
            prior_std,
            noise_guess,
        })
    }

    /// Warm-starts the posterior from a recorded session: the per-arm
    /// reward statistics of the journal's `bandit.pull` events become
    /// each arm's sufficient statistics (count, mean, and M2 rebuilt
    /// from the sample standard deviation), so a fresh policy resumes
    /// where the journaled one stopped instead of re-exploring — the
    /// ROADMAP's "bandit warm-start from journals". Arms outside this
    /// policy's range and arms absent from the journal are left on
    /// their priors. Returns the number of pulls absorbed.
    pub fn seed_from_journal(&mut self, reader: &ideaflow_trace::JournalReader) -> usize {
        self.seed_from_events(reader.events_for_step("bandit.pull"))
    }

    /// Streaming variant of [`ThompsonGaussian::seed_from_journal`]:
    /// folds `bandit.pull` events (others are ignored) into per-arm
    /// reward histograms and rebuilds the sufficient statistics from
    /// them. Memory is O(arms) regardless of journal length, so
    /// callers can feed an `EventStream` over a corpus that does not
    /// fit in RAM.
    pub fn seed_from_events<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a ideaflow_trace::RunEvent>,
    ) -> usize {
        use ideaflow_trace::PayloadValue as Value;
        let mut groups: Vec<(i64, ideaflow_trace::Histogram)> = Vec::new();
        for e in events {
            if e.step != "bandit.pull" {
                continue;
            }
            let Some(&Value::Int(arm)) = e.payload.get("arm") else {
                continue;
            };
            let reward = match e.payload.get("reward") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                _ => continue,
            };
            match groups.iter_mut().find(|(k, _)| *k == arm) {
                Some((_, h)) => h.record(reward),
                None => {
                    let mut h = ideaflow_trace::Histogram::new();
                    h.record(reward);
                    groups.push((arm, h));
                }
            }
        }
        groups.sort_by_key(|(k, _)| *k);
        let mut absorbed = 0usize;
        for (arm, h) in groups {
            let s = h.stats();
            let Ok(idx) = usize::try_from(arm) else {
                continue;
            };
            if idx >= self.stats.len() || s.count == 0 || !s.mean.is_finite() {
                continue;
            }
            // std is the sample deviation over n-1, so M2 = std^2 * (n-1).
            let m2 = if s.count >= 2 && s.std.is_finite() {
                s.std * s.std * (s.count - 1) as f64
            } else {
                0.0
            };
            self.stats[idx] = ArmStats {
                n: s.count,
                mean: s.mean,
                m2,
            };
            absorbed += s.count as usize;
        }
        absorbed
    }
}

impl BanditPolicy for ThompsonGaussian {
    fn select(&mut self, rng: &mut StdRng) -> usize {
        let mut best = 0usize;
        let mut best_draw = f64::NEG_INFINITY;
        for (i, s) in self.stats.iter().enumerate() {
            let (mu, sd) = if s.n == 0 {
                (0.0, self.prior_std)
            } else {
                let noise = if s.n >= 2 {
                    let e = s.sample_std();
                    if e.is_nan() || e < 1e-9 {
                        self.noise_guess
                    } else {
                        e
                    }
                } else {
                    self.noise_guess
                };
                (s.mean, noise / (s.n as f64).sqrt())
            };
            let normal: Normal<f64> = Normal::new(mu, sd.max(1e-12)).expect("valid posterior");
            let draw = normal.sample(rng);
            if draw > best_draw {
                best_draw = draw;
                best = i;
            }
        }
        best
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.stats[arm].push(reward);
    }

    fn arm_count(&self) -> usize {
        self.stats.len()
    }

    fn name(&self) -> &'static str {
        "thompson"
    }

    fn posterior_means(&self) -> Vec<f64> {
        empirical_means(&self.stats)
    }
}

/// ε-greedy: with probability ε explore uniformly, else exploit the best
/// empirical mean.
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    stats: Vec<ArmStats>,
    epsilon: f64,
}

impl EpsilonGreedy {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidParameter`] unless `0 <= epsilon <= 1`
    /// and `arms > 0`.
    pub fn new(arms: usize, epsilon: f64) -> Result<Self, BanditError> {
        if arms == 0 {
            return Err(BanditError::InvalidParameter {
                name: "arms",
                detail: "need at least one arm".into(),
            });
        }
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(BanditError::InvalidParameter {
                name: "epsilon",
                detail: format!("must be in [0,1], got {epsilon}"),
            });
        }
        Ok(Self {
            stats: vec![ArmStats::default(); arms],
            epsilon,
        })
    }
}

impl BanditPolicy for EpsilonGreedy {
    fn select(&mut self, rng: &mut StdRng) -> usize {
        // Play each arm once first.
        if let Some(i) = self.stats.iter().position(|s| s.n == 0) {
            return i;
        }
        if rng.gen::<f64>() < self.epsilon {
            rng.gen_range(0..self.stats.len())
        } else {
            // total_cmp: a NaN-poisoned mean (e.g. a pathological reward
            // stream) must not panic the scheduler mid-run; under the IEEE
            // total order it compares deterministically instead.
            self.stats
                .iter()
                .enumerate()
                .max_by(|a, b| f64::total_cmp(&a.1.mean, &b.1.mean))
                .map(|(i, _)| i)
                .expect("non-empty arms")
        }
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.stats[arm].push(reward);
    }

    fn arm_count(&self) -> usize {
        self.stats.len()
    }

    fn name(&self) -> &'static str {
        "egreedy"
    }

    fn posterior_means(&self) -> Vec<f64> {
        empirical_means(&self.stats)
    }
}

/// Softmax (Boltzmann) sampling at a fixed temperature.
#[derive(Debug, Clone)]
pub struct Softmax {
    stats: Vec<ArmStats>,
    temperature: f64,
}

impl Softmax {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidParameter`] unless `temperature > 0`
    /// and `arms > 0`.
    pub fn new(arms: usize, temperature: f64) -> Result<Self, BanditError> {
        if arms == 0 {
            return Err(BanditError::InvalidParameter {
                name: "arms",
                detail: "need at least one arm".into(),
            });
        }
        if temperature <= 0.0 {
            return Err(BanditError::InvalidParameter {
                name: "temperature",
                detail: format!("must be positive, got {temperature}"),
            });
        }
        Ok(Self {
            stats: vec![ArmStats::default(); arms],
            temperature,
        })
    }
}

impl BanditPolicy for Softmax {
    fn select(&mut self, rng: &mut StdRng) -> usize {
        if let Some(i) = self.stats.iter().position(|s| s.n == 0) {
            return i;
        }
        let max_mean = self
            .stats
            .iter()
            .map(|s| s.mean)
            .fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = self
            .stats
            .iter()
            .map(|s| ((s.mean - max_mean) / self.temperature).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut t = rng.gen::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            if t < *w {
                return i;
            }
            t -= w;
        }
        self.stats.len() - 1
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.stats[arm].push(reward);
    }

    fn arm_count(&self) -> usize {
        self.stats.len()
    }

    fn name(&self) -> &'static str {
        "softmax"
    }

    fn posterior_means(&self) -> Vec<f64> {
        empirical_means(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn exercise(policy: &mut dyn BanditPolicy, best_arm: usize, pulls: usize) -> usize {
        // Environment: arm `best_arm` pays 1.0 ± 0.3, others 0.0 ± 0.3.
        let mut rng = StdRng::seed_from_u64(99);
        let noise: Normal<f64> = Normal::new(0.0, 0.3).unwrap();
        let mut best_count = 0;
        for _ in 0..pulls {
            let arm = policy.select(&mut rng);
            let mean = if arm == best_arm { 1.0 } else { 0.0 };
            policy.update(arm, mean + noise.sample(&mut rng));
            if arm == best_arm {
                best_count += 1;
            }
        }
        best_count
    }

    #[test]
    fn thompson_converges_to_best_arm() {
        let mut p = ThompsonGaussian::new(5, 1.0, 0.3).unwrap();
        let hits = exercise(&mut p, 2, 400);
        assert!(hits > 250, "thompson picked best arm {hits}/400");
    }

    #[test]
    fn egreedy_converges_with_small_epsilon() {
        let mut p = EpsilonGreedy::new(5, 0.1).unwrap();
        let hits = exercise(&mut p, 1, 400);
        assert!(hits > 220, "egreedy picked best arm {hits}/400");
    }

    #[test]
    fn softmax_converges_with_moderate_temperature() {
        let mut p = Softmax::new(5, 0.2).unwrap();
        let hits = exercise(&mut p, 4, 400);
        assert!(hits > 220, "softmax picked best arm {hits}/400");
    }

    #[test]
    fn all_policies_try_every_arm_early() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = EpsilonGreedy::new(4, 0.0).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let a = p.select(&mut rng);
            seen.insert(a);
            p.update(a, 0.0);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn constructors_validate() {
        assert!(ThompsonGaussian::new(0, 1.0, 1.0).is_err());
        assert!(ThompsonGaussian::new(2, 0.0, 1.0).is_err());
        assert!(EpsilonGreedy::new(2, 1.5).is_err());
        assert!(Softmax::new(2, 0.0).is_err());
    }

    #[test]
    fn nan_rewards_cannot_panic_selection() {
        // Regression: the exploit argmax used partial_cmp().expect(),
        // which panicked the moment any arm mean went NaN. A NaN reward
        // stream must degrade selection, never abort the run.
        let mut rng = StdRng::seed_from_u64(7);
        let mut policy = EpsilonGreedy::new(3, 0.0).unwrap();
        // Seed every arm, poisoning one with NaN.
        for arm in 0..3 {
            let a = policy.select(&mut rng);
            assert!(a < 3);
            policy.update(a, if arm == 1 { f64::NAN } else { 0.5 });
        }
        // Selection after poisoning must still return a valid arm.
        for _ in 0..20 {
            let a = policy.select(&mut rng);
            assert!(a < 3);
            policy.update(a, f64::NAN);
        }
    }

    #[test]
    fn posterior_means_track_empirical_means() {
        let mut p = ThompsonGaussian::new(3, 1.0, 0.3).unwrap();
        assert_eq!(p.posterior_means(), vec![0.0, 0.0, 0.0]);
        p.update(1, 2.0);
        p.update(1, 4.0);
        p.update(2, -1.0);
        let means = p.posterior_means();
        assert_eq!(means.len(), 3);
        assert!((means[1] - 3.0).abs() < 1e-12);
        assert!((means[2] + 1.0).abs() < 1e-12);
        // Box delegation preserves the snapshot.
        let boxed: Box<dyn BanditPolicy> = Box::new(p);
        assert_eq!(boxed.posterior_means(), means);
    }

    #[test]
    fn journal_seeding_restores_sufficient_statistics() {
        // Record a session, seed a fresh policy from the journal, and
        // check the restored arm stats match the live ones exactly.
        let journal = ideaflow_trace::Journal::in_memory("warm");
        let mut live = ThompsonGaussian::new(3, 1.0, 0.3).unwrap();
        let mut env = crate::GaussianEnv::new(vec![0.0, 1.0, 0.2], vec![0.3, 0.3, 0.3], 5).unwrap();
        crate::sim::run_sequential_journaled(&mut live, &mut env, 120, 9, &journal).unwrap();
        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };

        let mut warm = ThompsonGaussian::new(3, 1.0, 0.3).unwrap();
        assert_eq!(warm.seed_from_journal(&reader), 120);
        for (w, l) in warm.stats.iter().zip(&live.stats) {
            assert_eq!(w.n, l.n);
            assert!((w.mean - l.mean).abs() < 1e-9, "{} vs {}", w.mean, l.mean);
            if l.n >= 2 {
                assert!(
                    (w.sample_std() - l.sample_std()).abs() < 1e-9,
                    "{} vs {}",
                    w.sample_std(),
                    l.sample_std()
                );
            }
        }
    }

    #[test]
    fn journal_seeding_reduces_exploration_on_replay() {
        // A recorded session where arm 1 clearly wins; the warm-started
        // policy should waste fewer pulls re-discovering that than a
        // cold policy facing the same environment.
        let journal = ideaflow_trace::Journal::in_memory("replay");
        let mut recorder = ThompsonGaussian::new(4, 1.0, 0.3).unwrap();
        let means = vec![0.0, 1.0, 0.1, -0.2];
        let mut env = crate::GaussianEnv::new(means.clone(), vec![0.3; 4], 21).unwrap();
        crate::sim::run_sequential_journaled(&mut recorder, &mut env, 200, 13, &journal).unwrap();
        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };

        let suboptimal_pulls = |policy: &mut ThompsonGaussian| -> usize {
            let mut env = crate::GaussianEnv::new(means.clone(), vec![0.3; 4], 77).unwrap();
            let run = crate::sim::run_sequential(policy, &mut env, 60, 5).unwrap();
            run.chosen.iter().filter(|&&a| a != 1).count()
        };
        let mut cold = ThompsonGaussian::new(4, 1.0, 0.3).unwrap();
        let cold_waste = suboptimal_pulls(&mut cold);
        let mut warm = ThompsonGaussian::new(4, 1.0, 0.3).unwrap();
        assert_eq!(warm.seed_from_journal(&reader), 200);
        let warm_waste = suboptimal_pulls(&mut warm);
        assert!(
            warm_waste < cold_waste,
            "warm policy explored {warm_waste} suboptimal pulls vs cold {cold_waste}"
        );
    }

    #[test]
    fn journal_seeding_ignores_out_of_range_arms() {
        let journal = ideaflow_trace::Journal::in_memory("oob");
        journal.emit(
            "bandit.pull",
            &[("arm", 9i64.into()), ("reward", 1.0.into())],
        );
        journal.emit(
            "bandit.pull",
            &[("arm", 0i64.into()), ("reward", 2.0.into())],
        );
        let reader = ideaflow_trace::JournalReader {
            events: journal.drain_events(),
        };
        let mut p = ThompsonGaussian::new(2, 1.0, 0.3).unwrap();
        assert_eq!(p.seed_from_journal(&reader), 1);
        assert_eq!(p.stats[0].n, 1);
        assert_eq!(p.stats[1].n, 0);
    }

    #[test]
    fn welford_stats_are_correct() {
        let mut s = ArmStats::default();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample variance of that data = 32/7.
        assert!((s.sample_std() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }
}

//! Supervised tool runs: retry/backoff, deadlines, and early kill.
//!
//! Kahng's Section 3.3 argues that much of the schedule cost of SP&R
//! comes from runs that crash, hang, or are visibly doomed long before
//! they finish — and that an orchestrator which retries, times out,
//! and kills such runs recovers most of that cost. [`Supervisor`] is
//! that layer for [`SpnrFlow`]:
//!
//! - **Retry with backoff** ([`RetryPolicy`]): a crashed run is retried
//!   a bounded number of times, each attempt on a *fresh sample index*
//!   (a crash is a property of the `(fingerprint, sample)` key, so
//!   re-running the same key would crash forever — exactly like
//!   rerunning a tool with a new random seed). Backoff delays grow
//!   exponentially with seeded jitter; the delay is computed
//!   deterministically and only a capped real sleep is performed, so
//!   results never depend on wall-clock timing.
//! - **Deadlines**: a run whose *model* runtime exceeds the
//!   supervisor's deadline is treated as hung, journaled as
//!   `run.timeout`, and retried on a fresh sample. Model hours, not
//!   host wall time, drive the decision — bit-identical at any thread
//!   count.
//! - **Early kill**: a finished attempt's per-step [`StepRecord`]s are
//!   replayed prefix by prefix through an [`EarlyKill`] predictor
//!   (e.g. the `mdp::doomed` strategy card); if any strict prefix says
//!   the run is doomed, the supervisor reports [`SupervisedError::Killed`]
//!   with the model hours the kill saved so the caller can refund its
//!   budget. Kills are terminal — a doomed trajectory is a property of
//!   the option vector, not of tool luck, so retrying is waste.
//!
//! Everything the supervisor does is journaled (`run.retry`,
//! `run.timeout`, `run.killed` events; `faults.retries`,
//! `faults.timeouts`, `faults.kills` counters mirrored into telemetry
//! as `ideaflow_faults_*_total`).
//!
//! The supervisor is also the campaign's **model-hour meter**: every
//! attempt that consumed model runtime charges the
//! `supervise.model_hours_mh` counter — full runtime for successes and
//! timeouts, runtime minus `hours_saved` for early kills — in integer
//! milli-hours, so the sum (and any budget alert derived from it) is
//! exact and order-independent at any thread count.

use std::sync::Arc;
use std::time::Duration;

use crate::options::SpnrOptions;
use crate::record::StepRecord;
use crate::spnr::{QorSample, SpnrFlow};
use crate::FlowError;

/// Bounded-retry schedule with exponential backoff and seeded jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Base backoff before the second attempt, in milliseconds.
    pub backoff_base_ms: u64,
    /// Multiplier applied per additional retry.
    pub backoff_factor: f64,
    /// Uniform jitter fraction in `[0, jitter_frac)` added to each
    /// delay, drawn deterministically from the supervisor seed.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 1,
            backoff_factor: 2.0,
            jitter_frac: 0.5,
        }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, fail fast.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The deterministic backoff delay (ms) before retry `retry`
    /// (1-based), jittered by the seed.
    #[must_use]
    pub fn backoff_ms(&self, retry: u32, seed: u64) -> u64 {
        if retry == 0 || self.backoff_base_ms == 0 {
            return 0;
        }
        let base = self.backoff_base_ms as f64 * self.backoff_factor.powi(retry as i32 - 1);
        let jitter = 1.0 + self.jitter_frac * unit(mix(seed, 0xB0FF, u64::from(retry)));
        (base * jitter) as u64
    }
}

/// Predicts from a strict prefix of a run's per-step records whether
/// the run is doomed and should be killed now.
pub trait EarlyKill: Send + Sync {
    /// `true` to abort the run after the last record in `prefix`.
    fn should_kill(&self, prefix: &[StepRecord]) -> bool;
}

/// A successfully supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedRun {
    /// The QoR of the surviving attempt.
    pub qor: QorSample,
    /// The per-step records of the surviving attempt.
    pub records: Vec<StepRecord>,
    /// The sample index the surviving attempt ran on.
    pub sample: u32,
    /// How many attempts were made (1 = first try succeeded).
    pub attempts: u32,
}

/// The failure mode of one attempt, kept for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Failure {
    /// The tool crashed.
    Crash,
    /// The run's model runtime exceeded the deadline.
    Timeout {
        /// The model runtime that blew the deadline, hours.
        runtime_hours: f64,
    },
}

/// Terminal outcomes of a supervised run.
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisedError {
    /// Options failed validation — retrying cannot help.
    Invalid(FlowError),
    /// Every attempt crashed or timed out.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The last attempt's failure mode.
        last: Failure,
    },
    /// The early-kill predictor declared the run doomed. Terminal: the
    /// doom is a property of the option vector, not of tool luck.
    Killed {
        /// Index of the last step that ran (0-based into the record
        /// sequence).
        at_step: usize,
        /// Model hours of downstream flow the kill skipped; callers
        /// refund this to their budget.
        hours_saved: f64,
    },
}

impl std::fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisedError::Invalid(e) => write!(f, "invalid run: {e}"),
            SupervisedError::Exhausted { attempts, last } => {
                let mode = match last {
                    Failure::Crash => "crash".to_string(),
                    Failure::Timeout { runtime_hours } => {
                        format!("timeout at {runtime_hours:.1} h")
                    }
                };
                write!(f, "all {attempts} attempts failed (last: {mode})")
            }
            SupervisedError::Killed {
                at_step,
                hours_saved,
            } => write!(
                f,
                "killed as doomed after step {at_step} (saved {hours_saved:.1} h)"
            ),
        }
    }
}

impl std::error::Error for SupervisedError {}

/// Supervision wrapper around [`SpnrFlow::try_run`]: retries crashes
/// with fresh samples, enforces a model-runtime deadline, and consults
/// an optional early-kill predictor.
#[derive(Clone)]
pub struct Supervisor {
    retry: RetryPolicy,
    deadline_hours: Option<f64>,
    seed: u64,
    early_kill: Option<Arc<dyn EarlyKill>>,
    /// Real sleeps are capped here so backoff never slows tests; the
    /// *logical* delay is journaled regardless.
    max_sleep_ms: u64,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("retry", &self.retry)
            .field("deadline_hours", &self.deadline_hours)
            .field("seed", &self.seed)
            .field("early_kill", &self.early_kill.is_some())
            .finish()
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Self::new(RetryPolicy::default())
    }
}

impl Supervisor {
    /// A supervisor with the given retry schedule, no deadline, no
    /// early-kill predictor.
    #[must_use]
    pub fn new(retry: RetryPolicy) -> Self {
        Supervisor {
            retry: RetryPolicy {
                max_attempts: retry.max_attempts.max(1),
                ..retry
            },
            deadline_hours: None,
            seed: 0,
            early_kill: None,
            max_sleep_ms: 20,
        }
    }

    /// Sets the model-runtime deadline: attempts reporting more hours
    /// than this are treated as hung and retried.
    #[must_use]
    pub fn with_deadline_hours(mut self, hours: f64) -> Self {
        self.deadline_hours = Some(hours);
        self
    }

    /// Seeds the backoff jitter stream.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an early-kill predictor consulted on every strict
    /// prefix of a finished attempt's step records.
    #[must_use]
    pub fn with_early_kill(mut self, predictor: Arc<dyn EarlyKill>) -> Self {
        self.early_kill = Some(predictor);
        self
    }

    /// The configured retry policy.
    #[must_use]
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The sample index attempt `attempt` (0-based) runs on: the first
    /// attempt keeps the caller's sample, retries derive fresh indices
    /// deterministically.
    #[must_use]
    pub fn attempt_sample(sample: u32, attempt: u32) -> u32 {
        if attempt == 0 {
            sample
        } else {
            sample ^ (attempt.wrapping_mul(0x9E37_79B9)).wrapping_add(0x5EED_0000)
        }
    }

    /// Runs `(options, sample)` on `flow` under supervision. See the
    /// module docs for the retry / timeout / kill semantics.
    ///
    /// # Errors
    ///
    /// [`SupervisedError`] as described per variant.
    pub fn run(
        &self,
        flow: &SpnrFlow,
        options: &SpnrOptions,
        sample: u32,
    ) -> Result<SupervisedRun, SupervisedError> {
        let journal = flow.journal();
        let mut last = Failure::Crash;
        for attempt in 0..self.retry.max_attempts {
            let s = Self::attempt_sample(sample, attempt);
            let failure = match flow.try_run(options, s) {
                Err(e @ FlowError::InvalidParameter { .. }) => {
                    return Err(SupervisedError::Invalid(e));
                }
                Err(FlowError::ToolCrash { .. }) => Failure::Crash,
                Ok(qor) => {
                    if let Some(deadline) = self.deadline_hours {
                        if qor.runtime_hours > deadline {
                            if journal.is_enabled() {
                                journal.emit(
                                    "run.timeout",
                                    &[
                                        ("sample", s.into()),
                                        ("attempt", attempt.into()),
                                        ("runtime_hours", qor.runtime_hours.into()),
                                        ("deadline_hours", deadline.into()),
                                    ],
                                );
                            }
                            journal.count("faults.timeouts", 1);
                            charge_model_hours(journal, qor.runtime_hours);
                            last = Failure::Timeout {
                                runtime_hours: qor.runtime_hours,
                            };
                            self.backoff(journal, s, attempt);
                            continue;
                        }
                    }
                    let records = flow.step_records(options, &qor, s);
                    if let Some(kill) = &self.early_kill {
                        for cut in 1..records.len() {
                            if kill.should_kill(&records[..cut]) {
                                let hours_saved: f64 = records[cut..]
                                    .iter()
                                    .filter_map(|r| r.metric("runtime_hours"))
                                    .sum();
                                if journal.is_enabled() {
                                    journal.emit(
                                        "run.killed",
                                        &[
                                            ("sample", s.into()),
                                            ("at_step", (cut - 1).into()),
                                            ("step", records[cut - 1].step.name().into()),
                                            ("hours_saved", hours_saved.into()),
                                        ],
                                    );
                                }
                                journal.count("faults.kills", 1);
                                charge_model_hours(journal, qor.runtime_hours - hours_saved);
                                return Err(SupervisedError::Killed {
                                    at_step: cut - 1,
                                    hours_saved,
                                });
                            }
                        }
                    }
                    charge_model_hours(journal, qor.runtime_hours);
                    return Ok(SupervisedRun {
                        qor,
                        records,
                        sample: s,
                        attempts: attempt + 1,
                    });
                }
            };
            last = failure;
            self.backoff(journal, s, attempt);
        }
        Err(SupervisedError::Exhausted {
            attempts: self.retry.max_attempts,
            last,
        })
    }

    /// Journals a retry and performs the (capped) backoff sleep, if
    /// another attempt is coming.
    fn backoff(&self, journal: &ideaflow_trace::Journal, sample: u32, attempt: u32) {
        let retry = attempt + 1;
        if retry >= self.retry.max_attempts {
            return;
        }
        let delay_ms = self
            .retry
            .backoff_ms(retry, self.seed ^ u64::from(sample) << 8);
        if journal.is_enabled() {
            journal.emit(
                "run.retry",
                &[
                    ("sample", sample.into()),
                    ("attempt", attempt.into()),
                    ("next_sample", Self::attempt_sample(sample, retry).into()),
                    ("backoff_ms", delay_ms.into()),
                ],
            );
        }
        journal.count("faults.retries", 1);
        let sleep = delay_ms.min(self.max_sleep_ms);
        if sleep > 0 {
            std::thread::sleep(Duration::from_millis(sleep));
        }
    }
}

/// Charges consumed model time to the `supervise.model_hours_mh`
/// counter, rounded once per attempt to integer milli-hours (the
/// representation budget alerts read: integer sums are exact, so the
/// meter — unlike a float accumulation — cannot depend on the order
/// parallel attempts finish in).
fn charge_model_hours(journal: &ideaflow_trace::Journal, hours: f64) {
    let mh = (hours * 1000.0).round().max(0.0) as u64;
    if mh > 0 {
        journal.count("supervise.model_hours_mh", mh);
    }
}

/// Splitmix64-style avalanche (same shape as the faults crate's mixer,
/// reproduced here to keep the backoff stream independent of it).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ideaflow_faults::{FaultInjector, FaultPlan};
    use ideaflow_netlist::generate::{DesignClass, DesignSpec};

    fn flow(seed: u64) -> SpnrFlow {
        SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 300).unwrap(), seed)
    }

    fn crashy(seed: u64, rate: f64) -> SpnrFlow {
        flow(seed).with_faults(FaultInjector::new(FaultPlan {
            seed: 0xC4A5,
            crash_rate: rate,
            hang_rate: 0.0,
            corrupt_rate: 0.0,
            hang_hours_max: 0.0,
            corrupt_scale: 1.0,
        }))
    }

    #[test]
    fn healthy_runs_pass_through_on_the_first_attempt() {
        let f = flow(1);
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        let sup = Supervisor::default();
        let r = sup.run(&f, &o, 7).unwrap();
        assert_eq!(r.attempts, 1);
        assert_eq!(r.sample, 7);
        assert_eq!(r.qor, f.run(&o, 7));
        assert_eq!(r.records.len(), 6);
    }

    #[test]
    fn crashes_are_retried_on_fresh_samples() {
        let f = crashy(2, 0.4).with_journal(ideaflow_trace::Journal::in_memory("retry"));
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        let sup = Supervisor::new(RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        });
        let mut retried = false;
        let mut succeeded = 0;
        for sample in 0..40 {
            match sup.run(&f, &o, sample) {
                Ok(r) => {
                    succeeded += 1;
                    if r.attempts > 1 {
                        retried = true;
                        assert_ne!(r.sample, sample, "retry must use a fresh sample");
                    }
                }
                Err(SupervisedError::Exhausted { .. }) => {}
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(retried, "a 40% crash rate must force at least one retry");
        assert!(succeeded >= 35, "only {succeeded}/40 runs survived");
        let reader = ideaflow_trace::JournalReader {
            events: f.journal().drain_events(),
        };
        assert!(!reader.events_for_step("run.retry").is_empty());
        assert!(!reader.events_for_step("fault.injected").is_empty());
    }

    #[test]
    fn exhausted_retries_surface_the_last_failure() {
        // crash_rate 1.0: every attempt crashes.
        let f = crashy(3, 1.0);
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        let sup = Supervisor::new(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        });
        assert_eq!(
            sup.run(&f, &o, 0),
            Err(SupervisedError::Exhausted {
                attempts: 3,
                last: Failure::Crash
            })
        );
    }

    #[test]
    fn invalid_options_fail_without_retry() {
        let f = flow(4);
        let mut o = SpnrOptions::with_target_ghz(0.4).unwrap();
        o.utilization = 0.05;
        match Supervisor::default().run(&f, &o, 0) {
            Err(SupervisedError::Invalid(FlowError::InvalidParameter { name, .. })) => {
                assert_eq!(name, "utilization");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn hangs_trip_the_deadline_and_retry() {
        let f = flow(5)
            .with_faults(FaultInjector::new(FaultPlan {
                seed: 0x1123,
                crash_rate: 0.0,
                hang_rate: 0.5,
                corrupt_rate: 0.0,
                hang_hours_max: 500.0,
                corrupt_scale: 1.0,
            }))
            .with_journal(ideaflow_trace::Journal::in_memory("hang"));
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        let sup = Supervisor::new(RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        })
        .with_deadline_hours(100.0);
        let mut timed_out = false;
        for sample in 0..20 {
            match sup.run(&f, &o, sample) {
                Ok(r) => {
                    assert!(
                        r.qor.runtime_hours <= 100.0,
                        "deadline must hold on success"
                    );
                    if r.attempts > 1 {
                        timed_out = true;
                    }
                }
                Err(SupervisedError::Exhausted {
                    last: Failure::Timeout { .. },
                    ..
                }) => timed_out = true,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(timed_out, "50% hang rate must trip the deadline");
        let reader = ideaflow_trace::JournalReader {
            events: f.journal().drain_events(),
        };
        assert!(!reader.events_for_step("run.timeout").is_empty());
    }

    struct KillAfterPlace;
    impl EarlyKill for KillAfterPlace {
        fn should_kill(&self, prefix: &[StepRecord]) -> bool {
            // Kill every run as soon as placement has reported.
            prefix
                .last()
                .is_some_and(|r| r.step == crate::record::FlowStep::Place)
        }
    }

    #[test]
    fn early_kill_reports_saved_hours_and_is_terminal() {
        let f = flow(6).with_journal(ideaflow_trace::Journal::in_memory("kill"));
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();
        let sup = Supervisor::default().with_early_kill(Arc::new(KillAfterPlace));
        let qor = f.run(&o, 3);
        match sup.run(&f, &o, 3) {
            Err(SupervisedError::Killed {
                at_step,
                hours_saved,
            }) => {
                // Steps 0..=2 ran (synthesis, floorplan, place); CTS,
                // route and signoff (50% of runtime) were skipped.
                assert_eq!(at_step, 2);
                assert!((hours_saved - qor.runtime_hours * 0.5).abs() < 1e-9);
            }
            other => panic!("expected Killed, got {other:?}"),
        }
        let reader = ideaflow_trace::JournalReader {
            events: f.journal().drain_events(),
        };
        assert_eq!(reader.events_for_step("run.killed").len(), 1);
    }

    #[test]
    fn model_hours_meter_charges_successes_timeouts_and_kills() {
        let registry = ideaflow_trace::TelemetryRegistry::new();
        let journal = ideaflow_trace::Journal::in_memory("meter").with_telemetry(registry.clone());
        let o = SpnrOptions::with_target_ghz(0.4).unwrap();

        // A clean success charges its full runtime, in milli-hours.
        let f = flow(11).with_journal(journal.clone());
        let r = Supervisor::default().run(&f, &o, 0).unwrap();
        let expect_success = (r.qor.runtime_hours * 1000.0).round() as u64;
        assert_eq!(
            registry.counter_value("supervise.model_hours_mh"),
            Some(expect_success),
            "success charges runtime"
        );

        // An early kill charges only the hours actually burned.
        let killed = Supervisor::default()
            .with_early_kill(Arc::new(KillAfterPlace))
            .run(&f, &o, 1);
        let Err(SupervisedError::Killed { hours_saved, .. }) = killed else {
            panic!("expected Killed, got {killed:?}");
        };
        let burned = f.run(&o, 1).runtime_hours - hours_saved;
        let after_kill = registry.counter_value("supervise.model_hours_mh").unwrap();
        assert_eq!(
            after_kill,
            expect_success + (burned * 1000.0).round() as u64,
            "kill charges runtime minus hours_saved"
        );

        // A crash burns no model time: the meter must not move.
        let crashing = crashy(12, 1.0).with_journal(journal.clone());
        let _ = Supervisor::new(RetryPolicy::none()).run(&crashing, &o, 0);
        assert_eq!(
            registry.counter_value("supervise.model_hours_mh"),
            Some(after_kill),
            "crashes charge nothing"
        );
        journal.finish();
        let diags: Vec<String> = journal
            .drain_events()
            .iter()
            .flat_map(ideaflow_trace::schema::lint_event)
            .collect();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_base_ms: 100,
            backoff_factor: 2.0,
            jitter_frac: 0.5,
        };
        let d1 = p.backoff_ms(1, 9);
        let d2 = p.backoff_ms(2, 9);
        let d3 = p.backoff_ms(3, 9);
        assert_eq!(d1, p.backoff_ms(1, 9), "same seed, same delay");
        assert!((100..150).contains(&d1));
        assert!((200..300).contains(&d2));
        assert!((400..600).contains(&d3));
        assert_ne!(
            p.backoff_ms(1, 9),
            p.backoff_ms(1, 10),
            "jitter must vary with the seed"
        );
    }
}

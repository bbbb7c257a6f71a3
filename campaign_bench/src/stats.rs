//! The benchmark's own statistics and accounting: nearest-rank
//! percentiles, the failure tally behind `failed_frac`, and the
//! per-campaign wait that the ledger cannot attribute to a layer.

use std::collections::BTreeMap;

/// The fewest samples a p95 is reported from: ten samples lie beyond it.
pub const P95_MIN_SAMPLES: usize = 200;

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it. Infinite samples (failed
/// units) sort last.
///
/// # Panics
///
/// Panics on an empty sample or a `pct` outside `(0, 100]`.
#[must_use]
pub fn nearest_rank(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "a percentile needs samples");
    assert!(pct > 0.0 && pct <= 100.0, "pct must be in (0, 100]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by nearest rank.
#[must_use]
pub fn p50(samples: &[f64]) -> f64 {
    nearest_rank(samples, 50.0)
}

/// The 95th percentile, refused below [`P95_MIN_SAMPLES`] samples.
///
/// # Errors
///
/// Says how many samples there were when there are too few.
pub fn p95(samples: &[f64]) -> Result<f64, String> {
    if samples.len() < P95_MIN_SAMPLES {
        return Err(format!(
            "a p95 needs at least {P95_MIN_SAMPLES} samples, got {}; run longer",
            samples.len()
        ));
    }
    Ok(nearest_rank(samples, 95.0))
}

/// Why one operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// A non-2xx HTTP answer (429 and 503 are the daemon's load sheds).
    Status(u16),
    /// The TCP connect was refused or timed out.
    Connect,
    /// The connection broke mid-request, or the answer was malformed.
    Io(String),
    /// The campaign ended, but not `ok`.
    NotOk(String),
    /// The result's bits differ from the committed expected bits.
    Mismatch {
        /// Committed bits or digest.
        expected: String,
        /// What the program produced.
        got: String,
    },
}

impl Failure {
    /// The tally class: `http_429`, `connect`, `mismatch`, ...
    #[must_use]
    pub fn class(&self) -> String {
        match self {
            Self::Status(code) => format!("http_{code}"),
            Self::Connect => "connect".to_owned(),
            Self::Io(_) => "io".to_owned(),
            Self::NotOk(_) => "not_ok".to_owned(),
            Self::Mismatch { .. } => "mismatch".to_owned(),
        }
    }
}

/// Checks an HTTP status: every 2xx passes.
///
/// # Errors
///
/// Returns [`Failure::Status`] for anything else.
pub fn check_status(status: u16) -> Result<(), Failure> {
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(Failure::Status(status))
    }
}

/// Checks a result against its committed expected value.
///
/// # Errors
///
/// Returns [`Failure::Mismatch`] when they differ.
pub fn check_bits(expected: &str, got: &str) -> Result<(), Failure> {
    if expected == got {
        Ok(())
    } else {
        Err(Failure::Mismatch {
            expected: expected.to_owned(),
            got: got.to_owned(),
        })
    }
}

/// Attempted and failed operations, failures counted per class.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    attempted: u64,
    failures: BTreeMap<String, u64>,
    first: Option<Failure>,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: &Result<(), Failure>) {
        self.attempted += 1;
        if let Err(f) = outcome {
            *self.failures.entry(f.class()).or_insert(0) += 1;
            self.first.get_or_insert_with(|| f.clone());
        }
    }

    /// Operations attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Failed over attempted (0 when nothing was attempted).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Failures per class.
    #[must_use]
    pub fn by_class(&self) -> &BTreeMap<String, u64> {
        &self.failures
    }

    /// The first failure seen, for the report.
    #[must_use]
    pub fn first(&self) -> Option<&Failure> {
        self.first.as_ref()
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (class, n) in &other.failures {
            *self.failures.entry(class.clone()).or_insert(0) += n;
        }
        if self.first.is_none() {
            self.first.clone_from(&other.first);
        }
    }
}

/// One time window of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Units completed in the window.
    pub units: usize,
    /// Window length, seconds.
    pub secs: f64,
    /// CPU the measured process spent in the window, ms.
    pub cpu_ms: f64,
}

/// Units per second: the median over windows.
///
/// # Panics
///
/// Panics without windows.
#[must_use]
pub fn throughput(windows: &[Window]) -> f64 {
    p50(&windows
        .iter()
        .map(|w| w.units as f64 / w.secs)
        .collect::<Vec<_>>())
}

/// Units per second over all windows together.
#[must_use]
pub fn total_rate(windows: &[Window]) -> f64 {
    let units: usize = windows.iter().map(|w| w.units).sum();
    let secs: f64 = windows.iter().map(|w| w.secs).sum();
    units as f64 / secs
}

/// CPU ms per unit: the median over windows (a window without a
/// completed unit counts its CPU against one unit).
///
/// # Panics
///
/// Panics without windows.
#[must_use]
pub fn cpu_per_unit(windows: &[Window]) -> f64 {
    p50(&windows
        .iter()
        .map(|w| w.cpu_ms / w.units.max(1) as f64)
        .collect::<Vec<_>>())
}

/// A campaign's time in no replayed layer: its latency minus the layer
/// times, floored at zero, because the server overlaps some layers (the
/// follow render runs while the body runs) and their sum can pass the
/// latency.
#[must_use]
pub fn wait_ms(latency_ms: f64, layer_ms: &[f64]) -> f64 {
    (latency_ms - layer_ms.iter().sum::<f64>()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_the_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 5.0);
        assert_eq!(nearest_rank(&xs, 51.0), 6.0);
        assert_eq!(nearest_rank(&xs, 95.0), 10.0);
        assert_eq!(nearest_rank(&xs, 100.0), 10.0);
        assert_eq!(nearest_rank(&xs, 0.1), 1.0);
        assert_eq!(nearest_rank(&[7.0], 50.0), 7.0);
        // Order of the input does not matter.
        let shuffled = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(p50(&shuffled), 3.0);
    }

    #[test]
    fn failed_units_sort_last_and_miss_every_limit() {
        let mut xs: Vec<f64> = (1..=199).map(f64::from).collect();
        xs.push(f64::INFINITY);
        assert_eq!(p95(&xs).unwrap(), 190.0);
        let mut worse = xs.clone();
        worse.extend(std::iter::repeat_n(f64::INFINITY, 20));
        assert!(p95(&worse).unwrap().is_infinite());
    }

    #[test]
    fn p95_is_refused_below_two_hundred_samples() {
        let xs: Vec<f64> = (0..199).map(f64::from).collect();
        let err = p95(&xs).unwrap_err();
        assert!(err.contains("199"), "{err}");
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p95(&enough).unwrap(), 190.0);
    }

    #[test]
    fn failed_frac_counts_sheds_connect_errors_and_mismatches() {
        let mut t = Tally::default();
        for _ in 0..6 {
            t.record(&Ok(()));
        }
        t.record(&check_status(201));
        t.record(&check_status(429));
        t.record(&check_status(503));
        t.record(&Err(Failure::Connect));
        t.record(&check_bits("3ff0000000000000", "3ff0000000000001"));
        t.record(&check_bits("3ff0000000000000", "3ff0000000000000"));
        assert_eq!(t.attempted(), 12);
        assert_eq!(t.failed(), 4);
        assert!((t.failed_frac() - 4.0 / 12.0).abs() < 1e-12);
        let classes: Vec<&str> = t.by_class().keys().map(String::as_str).collect();
        assert_eq!(classes, ["connect", "http_429", "http_503", "mismatch"]);
        assert_eq!(t.first(), Some(&Failure::Status(429)));

        let mut total = Tally::default();
        total.merge(&t);
        total.merge(&t);
        assert_eq!((total.attempted(), total.failed()), (24, 8));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn wait_never_goes_negative_on_a_synthetic_trace() {
        // Campaigns whose replayed layers overlap in the server: the
        // body and the follow render together exceed the latency.
        let trace: [(f64, [f64; 6]); 4] = [
            // latency, [submit, claim, finish, get, body, render]
            (36.0, [0.05, 0.02, 0.03, 0.01, 8.0, 0.5]),
            (95.0, [0.05, 0.02, 0.03, 0.01, 60.0, 48.0]),
            (0.0, [0.0; 6]),
            (10.0, [0.0, 0.0, 0.0, 0.0, 10.0, 0.0]),
        ];
        let waits: Vec<f64> = trace
            .iter()
            .map(|(l, layers)| wait_ms(*l, layers))
            .collect();
        assert!(waits.iter().all(|w| *w >= 0.0), "{waits:?}");
        assert!((waits[0] - 27.39).abs() < 1e-9);
        assert_eq!(waits[1], 0.0);
        assert_eq!(waits[2], 0.0);
        assert_eq!(waits[3], 0.0);
    }
}

//! The Fig 4 coevolution model: flexibility → predictability → margins →
//! iterations → achieved quality, "today" vs "future".
//!
//! Fig 4(a): today, designers demand flexibility; tools grow complex and
//! unpredictable; unpredictability forces guardbands and iterations;
//! achieved quality falls. Fig 4(b) flips the arrows: fewer freedoms, many
//! more partitions with quality-preserving algorithms, predictable tools,
//! small margins, single-pass convergence, better quality. This module
//! makes the story quantitative using the workspace's guardband model so
//! the Fig 4 harness can sweep it.

use crate::CoreError;
use ideaflow_place::guardband::GuardbandModel;

/// Inputs of the coevolution model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoevolutionParams {
    /// Design flexibility designers exploit, in \[0, 1\] (1 = today's "well
    /// over ten thousand command-option combinations").
    pub flexibility: f64,
    /// Number of design partitions solved concurrently (≥ 1).
    pub partitions: usize,
    /// How much global solution quality the partitioning algorithms
    /// recover, in \[0, 1\] (Solution 1's "new placement, global routing and
    /// optimization algorithms").
    pub global_recovery: f64,
    /// Tool QoR noise (σ, in percent of target QoR) at flexibility 1 with
    /// a single partition.
    pub base_sigma_pct: f64,
    /// Pass confidence designers engineer margins for.
    pub confidence: f64,
}

impl CoevolutionParams {
    /// The "SOC design: today" preset of Fig 4(a).
    #[must_use]
    pub fn today() -> Self {
        Self {
            flexibility: 0.9,
            partitions: 4,
            global_recovery: 0.2,
            base_sigma_pct: 4.0,
            confidence: 0.95,
        }
    }

    /// The "SOC design: future" preset of Fig 4(b): freedoms-from-choice
    /// plus extreme partitioning with quality-preserving algorithms.
    #[must_use]
    pub fn future() -> Self {
        Self {
            flexibility: 0.25,
            partitions: 64,
            global_recovery: 0.9,
            base_sigma_pct: 4.0,
            confidence: 0.95,
        }
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on any out-of-range field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(0.0..=1.0).contains(&self.flexibility) {
            return Err(CoreError::InvalidParameter {
                name: "flexibility",
                detail: format!("must be in [0,1], got {}", self.flexibility),
            });
        }
        if self.partitions == 0 {
            return Err(CoreError::InvalidParameter {
                name: "partitions",
                detail: "must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.global_recovery) {
            return Err(CoreError::InvalidParameter {
                name: "global_recovery",
                detail: format!("must be in [0,1], got {}", self.global_recovery),
            });
        }
        if self.base_sigma_pct.is_nan()
            || self.base_sigma_pct < 0.0
            || !(self.confidence > 0.0 && self.confidence < 1.0)
        {
            return Err(CoreError::InvalidParameter {
                name: "base_sigma_pct",
                detail: "sigma must be >= 0 and confidence in (0,1)".into(),
            });
        }
        Ok(())
    }
}

/// Outputs of the coevolution model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoevolutionOutcome {
    /// Effective tool noise σ (percent of target QoR).
    pub sigma_pct: f64,
    /// Predictability index in (0, 1] (1 = deterministic tools).
    pub predictability: f64,
    /// Margin designers must adopt (percent of target QoR).
    pub margin_pct: f64,
    /// Expected flow iterations to converge.
    pub expected_iterations: f64,
    /// Relative turnaround time (today preset ≈ 1).
    pub turnaround: f64,
    /// Achieved design quality (fraction of the ideal, in (0, 1]).
    pub achieved_quality: f64,
}

/// Evaluates the model.
///
/// # Errors
///
/// Propagates [`CoevolutionParams::validate`].
pub fn evaluate(params: CoevolutionParams) -> Result<CoevolutionOutcome, CoreError> {
    params.validate()?;
    // Effective noise: flexibility breeds heuristic interaction noise;
    // smaller subproblems are better-behaved (paper: "smaller subproblems
    // can be better-solved").
    let sigma_pct = params.base_sigma_pct * (0.25 + 0.75 * params.flexibility)
        / (params.partitions as f64).powf(0.30);
    let predictability = 1.0 / (1.0 + sigma_pct);
    let gb = GuardbandModel::new(sigma_pct);
    let margin_pct = gb.guardband_for(params.confidence);
    // Iterations: competitiveness fixes the margin a product can afford
    // (~1.5% QoR) regardless of tool noise; noisier tools then simply
    // iterate more ("aim low" or iterate — the Fig 4 dilemma).
    const COMPETITIVE_MARGIN_PCT: f64 = 1.5;
    let expected_iterations = gb.expected_iterations(COMPETITIVE_MARGIN_PCT, 50.0);
    // Turnaround: each iteration solves partitions concurrently; smaller
    // partitions solve super-linearly faster (n log n heuristics).
    let solve_time = (1.0 / params.partitions as f64).powf(0.85);
    let turnaround_raw = expected_iterations * solve_time;
    // Quality: margins cost QoR directly; partitioning loses global
    // optimality unless the algorithms recover it.
    let partition_loss = 0.02 * (params.partitions as f64).log2() * (1.0 - params.global_recovery);
    let achieved_quality = (1.0 - margin_pct / 100.0 * 2.5 - partition_loss).max(0.0);
    // Normalize turnaround so the "today" preset lands at 1.0.
    let today = CoevolutionParams::today();
    let today_sigma = today.base_sigma_pct * (0.25 + 0.75 * today.flexibility)
        / (today.partitions as f64).powf(0.30);
    let today_gb = GuardbandModel::new(today_sigma);
    let today_iters = today_gb.expected_iterations(COMPETITIVE_MARGIN_PCT, 50.0);
    let today_turnaround = today_iters * (1.0 / today.partitions as f64).powf(0.85);
    Ok(CoevolutionOutcome {
        sigma_pct,
        predictability,
        margin_pct,
        expected_iterations,
        turnaround: turnaround_raw / today_turnaround,
        achieved_quality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn future_beats_today_on_every_axis() {
        let today = evaluate(CoevolutionParams::today()).unwrap();
        let future = evaluate(CoevolutionParams::future()).unwrap();
        assert!(future.predictability > today.predictability);
        assert!(future.margin_pct < today.margin_pct);
        assert!(future.expected_iterations < today.expected_iterations);
        assert!(future.turnaround < today.turnaround);
        assert!(
            future.achieved_quality > today.achieved_quality,
            "future {} vs today {}",
            future.achieved_quality,
            today.achieved_quality
        );
    }

    #[test]
    fn flexibility_hurts_predictability() {
        let mut p = CoevolutionParams::today();
        p.flexibility = 0.2;
        let low_flex = evaluate(p).unwrap();
        p.flexibility = 1.0;
        let high_flex = evaluate(p).unwrap();
        assert!(low_flex.predictability > high_flex.predictability);
        assert!(low_flex.margin_pct < high_flex.margin_pct);
    }

    #[test]
    fn partitions_alone_need_recovery_to_help_quality() {
        let mut p = CoevolutionParams::today();
        p.partitions = 256;
        p.global_recovery = 0.0;
        let naive = evaluate(p).unwrap();
        p.global_recovery = 1.0;
        let smart = evaluate(p).unwrap();
        assert!(smart.achieved_quality > naive.achieved_quality);
        // Naive extreme partitioning can be worse than today's quality.
        let today = evaluate(CoevolutionParams::today()).unwrap();
        assert!(naive.achieved_quality < today.achieved_quality + 0.05);
    }

    #[test]
    fn today_turnaround_is_normalized() {
        let today = evaluate(CoevolutionParams::today()).unwrap();
        assert!((today.turnaround - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut p = CoevolutionParams::today();
        p.flexibility = 2.0;
        assert!(evaluate(p).is_err());
        let mut p = CoevolutionParams::today();
        p.partitions = 0;
        assert!(evaluate(p).is_err());
        let mut p = CoevolutionParams::today();
        p.confidence = 1.0;
        assert!(evaluate(p).is_err());
    }
}

//! Regression quality metrics.

/// Mean squared error. Returns 0.0 for empty input.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn mse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "mse length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64
}

/// Root mean squared error.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    mse(pred, truth).sqrt()
}

/// Coefficient of determination R². 1.0 is a perfect fit; 0.0 matches the
/// mean predictor; negative is worse than the mean predictor. Returns 0.0
/// if the truth is constant.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn r2(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "r2 length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let mean = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
    if ss_tot < 1e-14 {
        return 0.0;
    }
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum();
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let t = [1.0, 2.0, 3.0];
        assert_eq!(mse(&t, &t), 0.0);
        assert_eq!(r2(&t, &t), 1.0);
    }

    #[test]
    fn mean_predictor_has_zero_r2() {
        let truth = [1.0, 2.0, 3.0, 4.0];
        let pred = [2.5; 4];
        assert!(r2(&pred, &truth).abs() < 1e-12);
    }

    #[test]
    fn known_mse() {
        assert!((mse(&[0.0, 0.0], &[3.0, 4.0]) - 12.5).abs() < 1e-12);
        assert!((rmse(&[0.0], &[2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mse_panics_on_mismatch() {
        let _ = mse(&[1.0], &[1.0, 2.0]);
    }
}

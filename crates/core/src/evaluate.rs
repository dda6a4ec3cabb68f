//! Test-set evaluation per the paper's Eq. (1).

use crate::train::predict_all;
use ema_data::WindowedData;
use ema_models::Forecaster;
use ema_tensor::Tensor;

/// Scores every model over its own window set from one eval forward
/// per model ([`predict_all`]): per model, the MSE (Eq. (1) for one
/// individual) and the per-variable MSEs.
#[must_use]
pub fn evaluate<M: Forecaster>(models: &[M], windows: &[WindowedData]) -> Vec<(f64, Vec<f64>)> {
    predict_all(models, windows)
        .iter()
        .zip(windows)
        .map(|(preds, windows)| score(preds, windows))
        .collect()
}

/// The MSE of one individual's `[n, V]` predictions against its
/// windows' targets (Eq. (1) for one individual — the squared error
/// averaged over all test time points and variables) and the
/// per-variable MSEs, length `V` (the paper's future-work note on
/// per-variable error analysis).
#[must_use]
pub(crate) fn score(preds: &Tensor, windows: &WindowedData) -> (f64, Vec<f64>) {
    let targets = windows.targets_matrix();
    let (n, v) = (preds.dims()[0], preds.dims()[1]);
    let per_variable = (0..v)
        .map(|j| {
            let mut acc = 0.0;
            for i in 0..n {
                let d = preds.at2(i, j) - targets.at2(i, j);
                acc += d * d;
            }
            acc / n as f64
        })
        .collect();
    (preds.mse(&targets), per_variable)
}

/// MSE of the naive persistence baseline (predict `x_t = x_{t-1}`) over
/// a window set — a useful calibration point for the tables.
#[must_use]
pub fn persistence_mse(windows: &WindowedData) -> f64 {
    assert!(!windows.is_empty(), "no windows");
    let mut acc = 0.0;
    let mut count = 0usize;
    for (input, target) in windows.inputs.iter().zip(windows.targets.iter()) {
        let last = input.row(input.dims()[0] - 1);
        for (p, t) in last.data().iter().zip(target.data().iter()) {
            let d = p - t;
            acc += d * d;
            count += 1;
        }
    }
    acc / count as f64
}

/// MSE of predicting all zeros — for z-normalised data this approximates
/// the variance of the test targets (≈ the "predict the mean" baseline).
#[must_use]
pub fn zero_prediction_mse(windows: &WindowedData) -> f64 {
    let targets = windows.targets_matrix();
    targets.mse(&Tensor::zeros(targets.dims()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_data::make_windows;
    use ema_models::{LstmForecaster, ModelConfig};

    fn windows() -> WindowedData {
        let mut rng = ema_tensor::Rng64::seed_from(3);
        let data = Tensor::rand_normal(&[30, 4], 0.0, 1.0, &mut rng);
        make_windows(&data, 2)
    }

    fn evaluate_one(w: &WindowedData) -> (f64, Vec<f64>) {
        let model = LstmForecaster::new(4, &ModelConfig::tiny(0));
        evaluate(&[model], std::slice::from_ref(w))
            .pop()
            .expect("one score per model")
    }

    #[test]
    fn mse_is_nonnegative_and_finite() {
        let (mse, _) = evaluate_one(&windows());
        assert!(mse.is_finite() && mse >= 0.0);
    }

    #[test]
    fn per_variable_mse_averages_to_total() {
        let (total, per_var) = evaluate_one(&windows());
        let mean: f64 = per_var.iter().sum::<f64>() / per_var.len() as f64;
        assert!((mean - total).abs() < 1e-9);
    }

    #[test]
    fn persistence_beats_noise_on_smooth_series() {
        // Slowly-varying series: persistence should do very well.
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|t| vec![(t as f64 * 0.05).sin(), (t as f64 * 0.05).cos()])
            .collect();
        let w = make_windows(&Tensor::from_vec2(rows).unwrap(), 2);
        assert!(persistence_mse(&w) < 0.01);
    }

    #[test]
    fn zero_prediction_matches_target_power() {
        let w = windows();
        let targets = w.targets_matrix();
        let expected = targets.square().mean();
        assert!((zero_prediction_mse(&w) - expected).abs() < 1e-12);
    }
}

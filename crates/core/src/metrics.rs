//! Forecast-quality metrics beyond the paper's MSE: MAE, RMSE and R²,
//! plus a combined per-individual report.

use crate::json::{Json, JsonError};
use crate::train::predict_all;
use ema_data::WindowedData;
use ema_models::Forecaster;
use ema_tensor::Tensor;

/// All metrics for one (model, individual) evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastMetrics {
    /// Mean squared error (the paper's Eq. (1)).
    pub mse: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Coefficient of determination vs the test-set mean predictor;
    /// `1` is perfect, `0` matches the mean, negative is worse.
    pub r2: f64,
}

/// Computes all metrics from prediction and target matrices of equal
/// shape.
///
/// # Panics
/// Panics on shape mismatch.
#[must_use]
pub fn compute_metrics(preds: &Tensor, targets: &Tensor) -> ForecastMetrics {
    assert_eq!(preds.dims(), targets.dims(), "shape mismatch");
    let diff = preds.sub(targets);
    let mse = diff.square().mean();
    let mae = diff.abs().mean();
    let target_var = targets.variance();
    let r2 = if target_var > 0.0 {
        1.0 - mse / target_var
    } else {
        0.0
    };
    ForecastMetrics {
        mse,
        rmse: mse.sqrt(),
        mae,
        r2,
    }
}

/// Evaluates a trained model over a window set with every metric.
#[must_use]
pub fn evaluate_metrics(model: &dyn Forecaster, windows: &WindowedData) -> ForecastMetrics {
    let preds = predict_all(model, windows, 0);
    compute_metrics(&preds, &windows.targets_matrix())
}

impl ForecastMetrics {
    /// JSON encoding with one member per metric.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("mse", Json::Num(self.mse)),
            ("rmse", Json::Num(self.rmse)),
            ("mae", Json::Num(self.mae)),
            ("r2", Json::Num(self.r2)),
        ])
    }

    /// Decodes the [`Self::to_json_value`] encoding.
    ///
    /// # Errors
    /// Returns a [`JsonError`] on a missing member or wrong type.
    pub fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            mse: v.require("mse")?.to_f64()?,
            rmse: v.require("rmse")?.to_f64()?,
            mae: v.require("mae")?.to_f64()?,
            r2: v.require("r2")?.to_f64()?,
        })
    }
}

impl std::fmt::Display for ForecastMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MSE {:.3} | RMSE {:.3} | MAE {:.3} | R² {:.3}",
            self.mse, self.rmse, self.mae, self.r2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Rng64;

    #[test]
    fn perfect_prediction_metrics() {
        let mut rng = Rng64::seed_from(1);
        let t = Tensor::rand_normal(&[10, 3], 0.0, 1.0, &mut rng);
        let m = compute_metrics(&t, &t);
        assert_eq!(m.mse, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.mae, 0.0);
        assert!((m.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_prediction_has_zero_r2() {
        let mut rng = Rng64::seed_from(2);
        let targets = Tensor::rand_normal(&[200, 2], 0.0, 1.0, &mut rng);
        let mean_pred = Tensor::filled(&[200, 2], targets.mean());
        let m = compute_metrics(&mean_pred, &targets);
        assert!(m.r2.abs() < 0.05, "R² {} should be ≈ 0", m.r2);
    }

    #[test]
    fn rmse_is_sqrt_of_mse() {
        let mut rng = Rng64::seed_from(3);
        let a = Tensor::rand_normal(&[20, 2], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[20, 2], 0.0, 1.0, &mut rng);
        let m = compute_metrics(&a, &b);
        assert!((m.rmse * m.rmse - m.mse).abs() < 1e-12);
        assert!(m.mae <= m.rmse + 1e-12, "MAE must not exceed RMSE");
    }

    #[test]
    fn constant_targets_give_zero_r2() {
        let preds = Tensor::ones(&[5, 2]);
        let targets = Tensor::filled(&[5, 2], 3.0);
        let m = compute_metrics(&preds, &targets);
        assert_eq!(m.r2, 0.0);
        assert_eq!(m.mae, 2.0);
    }

    #[test]
    fn json_round_trip() {
        let m = ForecastMetrics {
            mse: 0.5,
            rmse: 0.5f64.sqrt(),
            mae: 0.4,
            r2: -0.0,
        };
        let back = ForecastMetrics::from_json_value(
            &crate::json::Json::parse(&m.to_json_value().pretty()).unwrap(),
        )
        .unwrap();
        assert_eq!(m, back);
        assert_eq!(back.rmse.to_bits(), m.rmse.to_bits());
        assert!(back.r2.is_sign_negative());
    }

    #[test]
    fn display_contains_all_metrics() {
        let m = ForecastMetrics {
            mse: 0.5,
            rmse: 0.707,
            mae: 0.4,
            r2: 0.5,
        };
        let s = m.to_string();
        assert!(s.contains("MSE") && s.contains("MAE") && s.contains("R²"));
    }

    #[test]
    fn evaluate_metrics_on_model() {
        use ema_data::make_windows;
        use ema_models::{build_model, ModelConfig, ModelKind};
        let mut rng = Rng64::seed_from(4);
        let data = Tensor::rand_normal(&[30, 4], 0.0, 1.0, &mut rng);
        let windows = make_windows(&data, 2);
        let model = build_model(ModelKind::Lstm, 4, 2, &ModelConfig::tiny(0), None);
        let m = evaluate_metrics(&*model, &windows);
        assert!(m.mse.is_finite() && m.mae.is_finite() && m.r2.is_finite());
        assert_eq!(m.mse, crate::evaluate::evaluate(&*model, &windows).0);
    }
}

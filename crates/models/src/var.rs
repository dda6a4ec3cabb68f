//! VAR(p): the classic linear vector-autoregressive baseline of the
//! psychopathology-network literature (paper Sec. II-A).
//!
//! The prediction is an affine map of the flattened window:
//! `x̂_t = c + Σ_{j=1..p} W_j · x_{t−j}` — exactly a linear layer over
//! `[1, p·V]`. It can be fitted either through the shared gradient
//! pipeline (Adam minimises the same least-squares objective) or in
//! closed form with ridge least squares ([`VarForecaster::fit_closed_form`]).
//! A cohort of VARs is one grouped linear layer over every window
//! flattened to a row.

use crate::cohort::{each_member, CohortBatch, CohortCtx, CohortForecaster};
use crate::{Forecaster, ForwardCtx, ModelConfig};
use ema_autodiff::{Tape, Var};
use ema_nn::{Binding, Linear, ParamStore};
use ema_tensor::{Rng64, Tensor};

/// A VAR(p) forecaster where `p` is the window length.
pub struct VarForecaster {
    store: ParamStore,
    layer: Linear,
    seq_len: usize,
    num_variables: usize,
}

impl VarForecaster {
    /// Builds a VAR with lag order `seq_len` for `V` variables.
    ///
    /// # Panics
    /// Panics if `seq_len == 0`.
    #[must_use]
    pub fn new(num_variables: usize, seq_len: usize, config: &ModelConfig) -> Self {
        assert!(seq_len > 0, "VAR needs at least one lag");
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(config.seed);
        let layer = Linear::new(
            &mut store,
            "var",
            seq_len * num_variables,
            num_variables,
            &mut rng,
        );
        Self {
            store,
            layer,
            seq_len,
            num_variables,
        }
    }

    /// The lag order `p`.
    #[must_use]
    pub fn lag_order(&self) -> usize {
        self.seq_len
    }

    /// Fits the coefficients in closed form by ridge least squares over
    /// `(window, target)` pairs, overwriting the current parameters.
    ///
    /// # Panics
    /// Panics on empty input or shape mismatches.
    pub fn fit_closed_form(&mut self, windows: &[Tensor], targets: &[Tensor], lambda: f64) {
        assert!(!windows.is_empty(), "no windows to fit");
        assert_eq!(windows.len(), targets.len(), "window/target count mismatch");
        let p = self.seq_len * self.num_variables;
        // Design matrix with an intercept column of ones.
        let n = windows.len();
        let mut x = Vec::with_capacity(n * (p + 1));
        let mut y = Vec::with_capacity(n * self.num_variables);
        for (w, t) in windows.iter().zip(targets.iter()) {
            assert_eq!(w.len(), p, "window shape mismatch");
            assert_eq!(t.len(), self.num_variables, "target shape mismatch");
            x.extend_from_slice(w.data());
            x.push(1.0);
            y.extend_from_slice(t.data());
        }
        let x = Tensor::from_vec(&[n, p + 1], x).expect("design shape");
        let y = Tensor::from_vec(&[n, self.num_variables], y).expect("target shape");
        let w = x
            .ridge_least_squares(&y, lambda)
            .expect("regularised system is nonsingular"); // [p+1, V]
                                                          // Split into weights (transposed to [V, p]) and intercept.
        let coef = w.slice_rows(0, p).transpose();
        let intercept = w.row(p);
        self.store.load(self.layer.w, coef);
        self.store.load(self.layer.b, intercept);
    }

    /// The fitted lag-`j` coefficient matrix (`0`-based), shape `[V, V]`:
    /// entry `(i, k)` is the effect of variable `k` at lag `j+1` on
    /// variable `i` — the "network" edge weights of VAR-based
    /// psychopathology models.
    ///
    /// # Panics
    /// Panics if `j >= lag order`.
    #[must_use]
    pub fn coefficient_matrix(&self, j: usize) -> Tensor {
        assert!(j < self.seq_len, "lag {j} out of range");
        let v = self.num_variables;
        // Weights are [V, p·V]; window is flattened row-major as
        // [oldest .. newest], so lag 1 (most recent) is the last block.
        let w = self.store.value(self.layer.w);
        let block = self.seq_len - 1 - j;
        w.slice_cols(block * v, (block + 1) * v)
    }
}

impl Forecaster for VarForecaster {
    fn name(&self) -> &'static str {
        "VAR"
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn num_variables(&self) -> usize {
        self.num_variables
    }

    fn predict_window(
        &self,
        tape: &Tape,
        binding: &Binding,
        window: &Tensor,
        _ctx: &mut ForwardCtx,
    ) -> Var {
        assert_eq!(window.dims()[1], self.num_variables, "window width");
        assert_eq!(
            window.dims()[0],
            self.seq_len,
            "VAR(p = {}) got a window of {} steps",
            self.seq_len,
            window.dims()[0]
        );
        let flat = tape.leaf(window.reshaped(&[1, self.seq_len * self.num_variables]));
        let pred = self.layer.forward(tape, binding, flat); // [1, V]
        tape.flatten(pred)
    }
}

impl CohortForecaster for VarForecaster {
    fn predict_cohort(
        group: &[&Self],
        tape: &Tape,
        bindings: &[&Binding],
        batch: &CohortBatch,
        _ctx: &mut CohortCtx,
    ) -> Var {
        assert_eq!(
            group.len(),
            batch.num_groups(),
            "one window batch per model"
        );
        let (seq, v) = (batch.seq_len(), batch.num_vars());
        for (b, model) in group.iter().enumerate() {
            assert_eq!(model.num_variables, v, "individual {b}: window width");
            assert_eq!(
                model.seq_len, seq,
                "individual {b}: VAR(p = {}) got windows of {seq} steps",
                model.seq_len
            );
        }
        // Window w's [s, V] rows, flattened row-major, are row w of the
        // stacked windows viewed as [Σ W_b, s·V]: the per-window input
        // of `predict_window`, so each group's rows go through its own
        // layer exactly as its windows do one at a time.
        let flat = tape.leaf(batch.stacked().reshaped(&[batch.total_rows(), seq * v]));
        let layers = each_member(group, bindings, |m, bind| (&m.layer, bind));
        Linear::forward_grouped(layers, tape, flat, batch.group_wins()) // [Σ W_b, V]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_data::make_windows;

    /// Generates a clean VAR(1) trajectory with known coefficients.
    fn var1_series(w: &Tensor, t: usize, rng: &mut Rng64) -> Tensor {
        let v = w.dims()[0];
        let mut z = Tensor::rand_normal(&[v], 0.0, 1.0, rng);
        let mut rows = Vec::with_capacity(t);
        for _ in 0..t {
            z = w.matvec(&z);
            for val in z.data_mut() {
                *val += 0.05 * rng.normal();
            }
            rows.push(z.data().to_vec());
        }
        Tensor::from_vec2(rows).unwrap()
    }

    #[test]
    fn closed_form_recovers_var1_coefficients() {
        let w_true = Tensor::from_vec2(vec![
            vec![0.5, 0.3, 0.0],
            vec![0.0, 0.4, -0.2],
            vec![0.2, 0.0, 0.6],
        ])
        .unwrap();
        let mut rng = Rng64::seed_from(1);
        let data = var1_series(&w_true, 3000, &mut rng);
        let windows = make_windows(&data, 1);
        let mut model = VarForecaster::new(3, 1, &ModelConfig::tiny(0));
        model.fit_closed_form(&windows.inputs, &windows.targets, 1e-6);
        let w_hat = model.coefficient_matrix(0);
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (w_hat.at2(i, j) - w_true.at2(i, j)).abs() < 0.05,
                    "coef ({i},{j}): {} vs {}",
                    w_hat.at2(i, j),
                    w_true.at2(i, j)
                );
            }
        }
    }

    #[test]
    fn prediction_shape_and_determinism() {
        let model = VarForecaster::new(4, 3, &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(2);
        let window = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let a = model.predict(&window, &mut rng);
        let b = model.predict(&window, &mut rng);
        assert_eq!(a.dims(), &[4]);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn closed_form_beats_init_on_forecasting() {
        let w_true = Tensor::from_vec2(vec![vec![0.7, 0.2], vec![-0.3, 0.5]]).unwrap();
        let mut rng = Rng64::seed_from(3);
        let data = var1_series(&w_true, 200, &mut rng);
        let windows = make_windows(&data, 2);
        let mut model = VarForecaster::new(2, 2, &ModelConfig::tiny(1));
        let mse = |m: &VarForecaster| {
            let mut rng = Rng64::seed_from(0);
            let preds: Vec<Tensor> = windows
                .inputs
                .iter()
                .map(|w| m.predict(w, &mut rng))
                .collect();
            Tensor::stack_rows(&preds).mse(&windows.targets_matrix())
        };
        let before = mse(&model);
        model.fit_closed_form(&windows.inputs, &windows.targets, 1e-4);
        let after = mse(&model);
        assert!(
            after < before * 0.5,
            "fit did not help: {before} -> {after}"
        );
        assert!(after < 0.02, "fit residual too large: {after}");
    }

    #[test]
    fn coefficient_matrix_lag_blocks_are_ordered() {
        // VAR(2) fitted on data where only lag 1 matters: the lag-1
        // block should carry more mass than the lag-2 block.
        let w_true = Tensor::from_vec2(vec![vec![0.8, 0.0], vec![0.0, 0.8]]).unwrap();
        let mut rng = Rng64::seed_from(4);
        let data = var1_series(&w_true, 300, &mut rng);
        let windows = make_windows(&data, 2);
        let mut model = VarForecaster::new(2, 2, &ModelConfig::tiny(2));
        model.fit_closed_form(&windows.inputs, &windows.targets, 1e-4);
        let lag1 = model.coefficient_matrix(0).norm();
        let lag2 = model.coefficient_matrix(1).norm();
        assert!(lag1 > lag2, "lag-1 norm {lag1} <= lag-2 norm {lag2}");
    }

    #[test]
    #[should_panic(expected = "got a window")]
    fn rejects_wrong_window_length() {
        let model = VarForecaster::new(3, 2, &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(5);
        let window = Tensor::rand_normal(&[3, 3], 0.0, 1.0, &mut rng);
        let _ = model.predict(&window, &mut rng);
    }
}

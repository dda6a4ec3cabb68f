//! VAR(p): the classic linear vector-autoregressive baseline of the
//! psychopathology-network literature (paper Sec. II-A).
//!
//! The prediction is an affine map of the flattened window:
//! `x̂_t = c + Σ_{j=1..p} W_j · x_{t−j}` — exactly a linear layer over
//! `[1, p·V]`, fitted through the shared gradient pipeline (Adam
//! minimises the least-squares objective). A window batch is one
//! window-group linear layer over every window flattened to a row.

use crate::{Forecaster, ForwardCtx, ModelConfig, WindowBatch};
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

    fn predict_windows(
        &self,
        tape: &Tape,
        binding: &Binding,
        batch: &WindowBatch,
        _ctx: &mut ForwardCtx,
    ) -> Var {
        let (seq, v) = (batch.seq_len(), batch.num_vars());
        assert_eq!(v, self.num_variables, "window width");
        assert_eq!(
            seq, self.seq_len,
            "VAR(p = {}) got windows of {seq} steps",
            self.seq_len
        );
        // Window w's [s, V] rows, flattened row-major, are row w of the
        // stacked windows viewed as [W, s·V]: the per-window input of
        // `predict_window`.
        let flat = tape.leaf(batch.stacked().reshaped(&[batch.wins(), seq * v]));
        self.layer
            .forward_grouped(tape, binding, flat, batch.wins()) // [W, V]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    #[should_panic(expected = "got a window")]
    fn rejects_wrong_window_length() {
        let model = VarForecaster::new(3, 2, &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(5);
        let window = Tensor::rand_normal(&[3, 3], 0.0, 1.0, &mut rng);
        let _ = model.predict(&window, &mut rng);
    }
}

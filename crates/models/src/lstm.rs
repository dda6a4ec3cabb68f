//! The baseline LSTM forecaster (paper Experiment A).

use crate::config::DROPOUT;
use crate::{Forecaster, ForwardCtx, ModelConfig, WindowBatch};
use ema_autodiff::{Tape, Var};
use ema_nn::{Binding, Linear, LstmCell, ParamStore};
use ema_tensor::{Rng64, Tensor};

/// A single-layer LSTM over the input window followed by an affine head:
/// the standard multivariate baseline ("widely-applied LSTM", Sec. V-A).
///
/// Each window row (all `V` variables at one time point) is one input
/// step; the final hidden state maps to the next-step prediction.
pub struct LstmForecaster {
    store: ParamStore,
    cell: LstmCell,
    head: Linear,
    num_variables: usize,
}

impl LstmForecaster {
    /// Builds the baseline for `V` variables.
    #[must_use]
    pub fn new(num_variables: usize, config: &ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(config.seed);
        let cell = LstmCell::new(&mut store, "lstm", num_variables, config.hidden, &mut rng);
        let head = Linear::new(&mut store, "head", config.hidden, num_variables, &mut rng);
        Self {
            store,
            cell,
            head,
            num_variables,
        }
    }
}

impl Forecaster for LstmForecaster {
    fn name(&self) -> &'static str {
        "LSTM"
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
        ctx: &mut ForwardCtx,
    ) -> Var {
        assert_eq!(window.rank(), 2, "window must be [seq, V]");
        assert_eq!(
            window.dims()[1],
            self.num_variables,
            "window has {} variables, model expects {}",
            window.dims()[1],
            self.num_variables
        );
        let seq = window.dims()[0];
        // Feed each time point as a [1, V] step.
        let xs: Vec<Var> = (0..seq)
            .map(|t| tape.leaf(window.row(t).reshaped(&[1, self.num_variables])))
            .collect();
        let state = self.cell.zero_state(tape, 1);
        let states = self.cell.run_sequence(tape, binding, &xs, state);
        let last = *states.last().expect("non-empty window");
        let dropped = tape.dropout(last, DROPOUT, ctx.training, ctx.rng);
        let pred = self.head.forward(tape, binding, dropped); // [1, V]
        tape.flatten(pred)
    }

    fn predict_windows(
        &self,
        tape: &Tape,
        binding: &Binding,
        batch: &WindowBatch,
        ctx: &mut ForwardCtx,
    ) -> Var {
        assert_eq!(
            batch.num_vars(),
            self.num_variables,
            "batch has {} variables, model expects {}",
            batch.num_vars(),
            self.num_variables
        );
        let wins = batch.wins();
        // Step t of every window is one [W, V] row block: the cell
        // recurrence runs once over the stack.
        let xs: Vec<Var> = (0..batch.seq_len())
            .map(|t| tape.leaf(batch.step(t).clone()))
            .collect();
        let state = self.cell.zero_state(tape, wins);
        let states = self
            .cell
            .run_sequence_grouped(tape, binding, &xs, state, wins);
        let last = *states.last().expect("non-empty window");
        // The [W, H] mask is drawn row-major, i.e. window-major.
        let dropped = tape.dropout(last, DROPOUT, ctx.training, ctx.rng);
        self.head.forward_grouped(tape, binding, dropped, wins) // [W, V]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_nn::{Adam, Optimizer, OptimizerConfig};

    #[test]
    fn prediction_shape() {
        let model = LstmForecaster::new(6, &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(1);
        let window = Tensor::rand_normal(&[5, 6], 0.0, 1.0, &mut rng);
        let pred = model.predict(&window, &mut rng);
        assert_eq!(pred.dims(), &[6]);
        assert!(pred.all_finite());
    }

    #[test]
    fn eval_predictions_are_deterministic() {
        let model = LstmForecaster::new(4, &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(2);
        let window = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let a = model.predict(&window, &mut rng);
        let b = model.predict(&window, &mut rng);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn seq1_window_works() {
        let model = LstmForecaster::new(4, &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(3);
        let window = Tensor::rand_normal(&[1, 4], 0.0, 1.0, &mut rng);
        assert_eq!(model.predict(&window, &mut rng).dims(), &[4]);
    }

    #[test]
    fn can_overfit_a_constant_target() {
        // Sanity: training on one window should drive the loss down.
        let mut model = LstmForecaster::new(3, &ModelConfig::tiny(4));
        let mut rng = Rng64::seed_from(5);
        let window = Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng);
        let target = Tensor::from_vec1(vec![0.5, -0.2, 0.8]);
        let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.02));
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let tape = Tape::new();
            let binding = model.params().bind(&tape);
            let mut ctx = ForwardCtx::eval(&mut rng); // no dropout for the sanity check
            let pred = model.predict_window(&tape, &binding, &window, &mut ctx);
            let tgt = tape.leaf(target.clone());
            let loss = tape.mse(pred, tgt);
            last = tape.value(loss).data()[0];
            first.get_or_insert(last);
            let grads = tape.backward(loss);
            adam.step(model.params_mut(), &binding, &grads);
        }
        let first = first.unwrap();
        assert!(last < first * 0.05, "loss did not drop: {first} -> {last}");
    }
}

//! The baseline LSTM forecaster (paper Experiment A).

use crate::cohort::{cohort_dropout, each_member, CohortBatch, CohortCtx, CohortForecaster};
use crate::config::DROPOUT;
use crate::{Forecaster, ForwardCtx, ModelConfig};
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
}

impl CohortForecaster for LstmForecaster {
    fn predict_cohort(
        group: &[&Self],
        tape: &Tape,
        bindings: &[&Binding],
        batch: &CohortBatch,
        ctx: &mut CohortCtx,
    ) -> Var {
        assert_eq!(
            group.len(),
            batch.num_groups(),
            "one window batch per model"
        );
        assert_eq!(group.len(), bindings.len(), "one binding per model");
        for (b, model) in group.iter().enumerate() {
            assert_eq!(
                model.num_variables,
                batch.num_vars(),
                "individual {b}: batch has {} variables, model expects {}",
                batch.num_vars(),
                model.num_variables
            );
        }
        // Step t across the whole cohort is one [Σ W_b, V] row block:
        // the cell recurrence runs once over the stack, each window's
        // row through its own individual's cell.
        let xs: Vec<Var> = (0..batch.seq_len())
            .map(|t| tape.leaf(batch.step(t).clone()))
            .collect();
        let state = group[0].cell.zero_state(tape, batch.total_rows());
        let cells = each_member(group, bindings, |m, bind| (&m.cell, bind));
        let states = LstmCell::run_sequence_grouped(cells, tape, &xs, state, batch.group_wins());
        let last = *states.last().expect("non-empty window");
        // Each individual's [W_b, H] mask is drawn row-major ==
        // window-major from its own stream.
        let dropped = cohort_dropout(tape, last, batch.group_wins(), 1, ctx);
        let heads = each_member(group, bindings, |m, bind| (&m.head, bind));
        Linear::forward_grouped(heads, tape, dropped, batch.group_wins()) // [Σ W_b, V]
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

//! The LSTM cell.
//!
//! The cell operates on `[n, features]` matrices so the same code serves
//! both plain sequence models (`n = 1`) and per-node recurrent graph
//! models (`n = V` variables), mirroring how PyTorch cells treat the
//! leading batch dimension.

use crate::{Binding, Initializer, ParamId, ParamStore};
use ema_autodiff::{Tape, Var};
use ema_tensor::Rng64;

/// The `(hidden, cell)` pair carried across LSTM steps.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    /// Hidden state `[n, H]`.
    pub h: Var,
    /// Cell state `[n, H]`.
    pub c: Var,
}

/// A long short-term memory cell (PyTorch gate conventions).
#[derive(Debug, Clone)]
pub struct LstmCell {
    w_ih: ParamId, // [4H, X]
    w_hh: ParamId, // [4H, H]
    b_ih: ParamId, // [4H]
    b_hh: ParamId, // [4H]
    input_dim: usize,
    hidden_dim: usize,
}

impl LstmCell {
    /// Registers a new LSTM cell.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut Rng64,
    ) -> Self {
        let init = Initializer::XavierUniform;
        let w_ih = store.register(
            format!("{name}.w_ih"),
            init.init(&[4 * hidden_dim, input_dim], rng),
        );
        let w_hh = store.register(
            format!("{name}.w_hh"),
            init.init(&[4 * hidden_dim, hidden_dim], rng),
        );
        let b_ih = store.register(
            format!("{name}.b_ih"),
            Initializer::Zeros.init(&[4 * hidden_dim], rng),
        );
        let b_hh = store.register(
            format!("{name}.b_hh"),
            Initializer::Zeros.init(&[4 * hidden_dim], rng),
        );
        Self {
            w_ih,
            w_hh,
            b_ih,
            b_hh,
            input_dim,
            hidden_dim,
        }
    }

    /// Hidden state width.
    #[must_use]
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input feature width.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Zero-initialised state for `n` rows.
    pub fn zero_state(&self, tape: &Tape, n: usize) -> LstmState {
        let h = tape.leaf(ema_tensor::Tensor::zeros(&[n, self.hidden_dim]));
        let c = tape.leaf(ema_tensor::Tensor::zeros(&[n, self.hidden_dim]));
        LstmState { h, c }
    }

    /// One step: `x: [n, X]` with carried state → new state.
    ///
    /// The gate math runs through the tape's fused
    /// [`Tape::lstm_cell`] op, whose `[n, 2H]` output packs `[h' | c']`;
    /// the two state halves are sliced back out for the next step.
    pub fn forward(&self, tape: &Tape, binding: &Binding, x: Var, state: LstmState) -> LstmState {
        let hd = self.hidden_dim;
        let gi = tape.linear(x, binding.var(self.w_ih), binding.var(self.b_ih)); // [n, 4H]
        let gh = tape.linear(state.h, binding.var(self.w_hh), binding.var(self.b_hh));
        let gates_pre = tape.add(gi, gh);
        let hc = tape.lstm_cell(gates_pre, state.c);
        let h = tape.slice_cols(hc, 0, hd);
        let c = tape.slice_cols(hc, hd, 2 * hd);
        LstmState { h, c }
    }

    /// Runs the cell over a sequence, returning every hidden state.
    pub fn run_sequence(
        &self,
        tape: &Tape,
        binding: &Binding,
        xs: &[Var],
        mut state: LstmState,
    ) -> Vec<Var> {
        let mut states = Vec::with_capacity(xs.len());
        for &x in xs {
            state = self.forward(tape, binding, x, state);
            states.push(state.h);
        }
        states
    }

    /// One step over a window batch: row `w` of `x: [W, X]` is window
    /// `w`'s input. Row `w` is bit-identical to [`LstmCell::forward`] on
    /// that window alone, and so is every parameter gradient: the
    /// linears go through `Tape::group_linear` and the add/cell/slice
    /// chain is rowwise.
    ///
    /// # Panics
    /// Panics when the widths mismatch.
    pub fn forward_grouped(
        &self,
        tape: &Tape,
        binding: &Binding,
        x: Var,
        state: LstmState,
        wins: usize,
    ) -> LstmState {
        let hd = self.hidden_dim;
        let gi = tape.group_linear(x, binding.var(self.w_ih), binding.var(self.b_ih), wins);
        let gh = tape.group_linear(
            state.h,
            binding.var(self.w_hh),
            binding.var(self.b_hh),
            wins,
        );
        let gates_pre = tape.add(gi, gh);
        let hc = tape.lstm_cell(gates_pre, state.c);
        let h = tape.slice_cols(hc, 0, hd);
        let c = tape.slice_cols(hc, hd, 2 * hd);
        LstmState { h, c }
    }

    /// [`LstmCell::run_sequence`] over a window batch
    /// ([`LstmCell::forward_grouped`] per step), returning every hidden
    /// state.
    pub fn run_sequence_grouped(
        &self,
        tape: &Tape,
        binding: &Binding,
        xs: &[Var],
        mut state: LstmState,
        wins: usize,
    ) -> Vec<Var> {
        let mut states = Vec::with_capacity(xs.len());
        for &x in xs {
            state = self.forward_grouped(tape, binding, x, state, wins);
            states.push(state.h);
        }
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Tensor;

    fn setup() -> (ParamStore, Rng64) {
        (ParamStore::new(), Rng64::seed_from(42))
    }

    #[test]
    fn lstm_step_shapes() {
        let (mut store, mut rng) = setup();
        let cell = LstmCell::new(&mut store, "lstm", 5, 8, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let x = tape.leaf(Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng));
        let s0 = cell.zero_state(&tape, 3);
        let s1 = cell.forward(&tape, &binding, x, s0);
        assert_eq!(tape.dims(s1.h), vec![3, 8]);
        assert_eq!(tape.dims(s1.c), vec![3, 8]);
        // |h| = |o ⊙ tanh(c)| <= 1.
        assert!(tape.value(s1.h).data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_sequence_is_stateful() {
        let (mut store, mut rng) = setup();
        let cell = LstmCell::new(&mut store, "lstm", 2, 4, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let x = tape.leaf(Tensor::ones(&[1, 2]));
        let s0 = cell.zero_state(&tape, 1);
        let states = cell.run_sequence(&tape, &binding, &[x, x, x], s0);
        // Same input at every step but evolving state ⇒ different outputs.
        let h1 = tape.value(states[0]);
        let h2 = tape.value(states[1]);
        assert_ne!(h1.data(), h2.data());
    }

    #[test]
    fn lstm_gradients_flow_to_all_params() {
        let (mut store, mut rng) = setup();
        let cell = LstmCell::new(&mut store, "lstm", 2, 3, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let x = tape.leaf(Tensor::ones(&[1, 2]));
        let s0 = cell.zero_state(&tape, 1);
        let s1 = cell.forward(&tape, &binding, x, s0);
        let loss = {
            let sq = tape.square(s1.h);
            tape.sum_all(sq)
        };
        let grads = tape.backward(loss);
        for (id, var) in binding.iter() {
            assert!(
                grads.get(var).is_some(),
                "no gradient for parameter {}",
                store.name(id)
            );
        }
    }
}

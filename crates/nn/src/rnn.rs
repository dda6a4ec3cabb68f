//! Recurrent cells: GRU and LSTM.
//!
//! Cells operate on `[n, features]` matrices so the same code serves both
//! plain sequence models (`n = 1`) and per-node recurrent graph models
//! (`n = V` variables), mirroring how PyTorch cells treat the leading
//! batch dimension.

use crate::{Binding, Initializer, ParamId, ParamStore};
use ema_autodiff::{Tape, Var};
use ema_tensor::Rng64;

/// A gated recurrent unit cell (PyTorch gate conventions).
///
/// Gates: `r = σ(W_r x + U_r h + b_r)`, `z = σ(W_z x + U_z h + b_z)`,
/// `n = tanh(W_n x + r ⊙ (U_n h) + b_n)`, `h' = (1 - z) ⊙ n + z ⊙ h`.
#[derive(Debug, Clone)]
pub struct GruCell {
    w_ih: ParamId, // [3H, X]
    w_hh: ParamId, // [3H, H]
    b_ih: ParamId, // [3H]
    b_hh: ParamId, // [3H]
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers a new GRU cell.
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
            init.init(&[3 * hidden_dim, input_dim], rng),
        );
        let w_hh = store.register(
            format!("{name}.w_hh"),
            init.init(&[3 * hidden_dim, hidden_dim], rng),
        );
        let b_ih = store.register(
            format!("{name}.b_ih"),
            Initializer::Zeros.init(&[3 * hidden_dim], rng),
        );
        let b_hh = store.register(
            format!("{name}.b_hh"),
            Initializer::Zeros.init(&[3 * hidden_dim], rng),
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

    /// One step: `x: [n, X]`, `h: [n, H]` → new hidden `[n, H]`.
    ///
    /// The gate math runs through the tape's fused
    /// [`Tape::gru_cell`] op: one node instead of the ~14-node
    /// slice/activate/combine graph per timestep.
    pub fn forward(&self, tape: &Tape, binding: &Binding, x: Var, h: Var) -> Var {
        let gi = tape.linear(x, binding.var(self.w_ih), binding.var(self.b_ih)); // [n, 3H]
        let gh = tape.linear(h, binding.var(self.w_hh), binding.var(self.b_hh)); // [n, 3H]
        tape.gru_cell(gi, gh, h)
    }

    /// Runs the cell over a sequence of inputs starting from `h0`,
    /// returning every hidden state (length == `xs.len()`).
    pub fn run_sequence(&self, tape: &Tape, binding: &Binding, xs: &[Var], h0: Var) -> Vec<Var> {
        let mut h = h0;
        let mut states = Vec::with_capacity(xs.len());
        for &x in xs {
            h = self.forward(tape, binding, x, h);
            states.push(h);
        }
        states
    }
}

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

    /// One step over a cohort row stack: `members` yields one
    /// `(cell, binding)` per group, and group `b`'s `group_rows[b]`
    /// contiguous rows of `x: [Σ rows, X]` go through its own cell's
    /// parameters. Row `r` of group `b` is bit-identical to
    /// [`LstmCell::forward`] on that row alone: the grouped linears
    /// match per row (see `Tape::group_linear`) and the
    /// add/cell/slice chain is rowwise.
    ///
    /// # Panics
    /// Panics when `members` and `group_rows` disagree in length or
    /// the cells' widths differ.
    pub fn forward_grouped<'a>(
        members: impl Iterator<Item = (&'a Self, &'a Binding)> + Clone,
        tape: &Tape,
        x: Var,
        state: LstmState,
        group_rows: &[usize],
    ) -> LstmState {
        let mut cells = members.clone().map(|(c, _)| c.hidden_dim);
        let hd = cells.next().expect("grouped LSTM needs at least one cell");
        assert!(
            cells.all(|h| h == hd),
            "grouped LSTM cells must share the hidden width"
        );
        let input = members
            .clone()
            .map(|(c, bind)| (bind.var(c.w_ih), bind.var(c.b_ih)));
        let gi = tape.group_linear(x, input, group_rows);
        let hidden = members.map(|(c, bind)| (bind.var(c.w_hh), bind.var(c.b_hh)));
        let gh = tape.group_linear(state.h, hidden, group_rows);
        let gates_pre = tape.add(gi, gh);
        let hc = tape.lstm_cell(gates_pre, state.c);
        let h = tape.slice_cols(hc, 0, hd);
        let c = tape.slice_cols(hc, hd, 2 * hd);
        LstmState { h, c }
    }

    /// Grouped [`LstmCell::run_sequence`] over a cohort stack,
    /// returning every hidden state.
    pub fn run_sequence_grouped<'a>(
        members: impl Iterator<Item = (&'a Self, &'a Binding)> + Clone,
        tape: &Tape,
        xs: &[Var],
        mut state: LstmState,
        group_rows: &[usize],
    ) -> Vec<Var> {
        let mut states = Vec::with_capacity(xs.len());
        for &x in xs {
            state = Self::forward_grouped(members.clone(), tape, x, state, group_rows);
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
    fn gru_step_shape_and_bounds() {
        let (mut store, mut rng) = setup();
        let cell = GruCell::new(&mut store, "gru", 5, 8, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let x = tape.leaf(Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng));
        let h0 = tape.leaf(Tensor::zeros(&[3, 8]));
        let h1 = cell.forward(&tape, &binding, x, h0);
        assert_eq!(tape.dims(h1), vec![3, 8]);
        // GRU hidden from zero state is a convex mix of tanh values: |h| <= 1.
        assert!(tape.value(h1).data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn gru_sequence_length() {
        let (mut store, mut rng) = setup();
        let cell = GruCell::new(&mut store, "gru", 4, 6, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let xs: Vec<Var> = (0..5)
            .map(|_| tape.leaf(Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut rng)))
            .collect();
        let h0 = tape.leaf(Tensor::zeros(&[2, 6]));
        let states = cell.run_sequence(&tape, &binding, &xs, h0);
        assert_eq!(states.len(), 5);
        assert_eq!(tape.dims(states[4]), vec![2, 6]);
    }

    #[test]
    fn gru_zero_input_zero_state_stays_bounded() {
        let (mut store, mut rng) = setup();
        let cell = GruCell::new(&mut store, "gru", 3, 4, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let x = tape.leaf(Tensor::zeros(&[1, 3]));
        let mut h = tape.leaf(Tensor::zeros(&[1, 4]));
        for _ in 0..50 {
            h = cell.forward(&tape, &binding, x, h);
        }
        assert!(tape.value(h).all_finite());
        assert!(tape.value(h).data().iter().all(|&v| v.abs() <= 1.0));
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

//! Temporal attention over a sequence of hidden states.
//!
//! This is the attention mechanism used by A3TGCN: each time step's
//! hidden state is scored by a small MLP, scores are softmax-normalised
//! over time, and the context is the attention-weighted sum of states.

use crate::{Binding, Initializer, ParamId, ParamStore};
use ema_autodiff::{Tape, Var};
use ema_tensor::{Rng64, Tensor};

/// Additive temporal attention: `score_t = vᵀ tanh(W h̄_t + b)` where
/// `h̄_t` is the node-averaged hidden state at step `t`; the output is
/// `Σ_t softmax(score)_t · H_t`.
#[derive(Debug, Clone)]
pub struct TemporalAttention {
    w: ParamId, // [A, H]
    b: ParamId, // [A]
    v: ParamId, // [1, A]
    hidden_dim: usize,
    attn_dim: usize,
}

impl TemporalAttention {
    /// Registers a new attention module scoring `[n, hidden]` states.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        hidden_dim: usize,
        attn_dim: usize,
        rng: &mut Rng64,
    ) -> Self {
        let init = Initializer::XavierUniform;
        let w = store.register(format!("{name}.w"), init.init(&[attn_dim, hidden_dim], rng));
        let b = store.register(
            format!("{name}.b"),
            Initializer::Zeros.init(&[attn_dim], rng),
        );
        let v = store.register(format!("{name}.v"), init.init(&[1, attn_dim], rng));
        Self {
            w,
            b,
            v,
            hidden_dim,
            attn_dim,
        }
    }

    /// Attention score width.
    #[must_use]
    pub fn attn_dim(&self) -> usize {
        self.attn_dim
    }

    /// Computes the softmax attention weights over `states`
    /// (each `[n, hidden]`), returned as a rank-1 `[T]` var.
    ///
    /// # Panics
    /// Panics if `states` is empty or widths mismatch.
    pub fn weights(&self, tape: &Tape, binding: &Binding, states: &[Var]) -> Var {
        assert!(!states.is_empty(), "attention over an empty sequence");
        let n = tape.dims(states[0])[0];
        // Row-averaging matrix [1, n] as a constant.
        let avg = tape.leaf(Tensor::filled(&[1, n], 1.0 / n as f64));
        let vt = tape.transpose(binding.var(self.v)); // [A, 1], shared by every step
        let mut scores = Vec::with_capacity(states.len());
        for &h in states {
            assert_eq!(
                tape.dims(h)[1],
                self.hidden_dim,
                "hidden width mismatch in attention"
            );
            let mean_h = tape.matmul(avg, h); // [1, H]
            let proj = tape.linear(mean_h, binding.var(self.w), binding.var(self.b)); // [1, A]
            let act = tape.tanh(proj);
            let score = tape.matmul(act, vt); // [1, 1]
            scores.push(tape.flatten(score)); // [1]
        }
        let stacked = tape.stack_rows(&scores); // [T, 1]
        let logits = tape.reshape(stacked, &[states.len()]);
        tape.softmax_last(logits) // [T]
    }

    /// Attention-weighted context `Σ_t α_t H_t`, shape `[n, hidden]`.
    ///
    /// # Panics
    /// Panics if `states` is empty or widths mismatch.
    pub fn forward(&self, tape: &Tape, binding: &Binding, states: &[Var]) -> Var {
        let alpha = self.weights(tape, binding, states); // [T]
        let n = tape.dims(states[0])[0];
        let h = self.hidden_dim;
        // Flatten each state to a row and take the alpha-weighted sum
        // via a [1, T] x [T, n*H] product.
        let rows: Vec<Var> = states.iter().map(|&s| tape.flatten(s)).collect();
        let stacked = tape.stack_rows(&rows); // [T, n*H]
        let alpha_row = tape.reshape(alpha, &[1, states.len()]);
        let ctx = tape.matmul(alpha_row, stacked); // [1, n*H]
        tape.reshape(ctx, &[n, h])
    }

    /// Grouped [`TemporalAttention::weights`] over a cohort stack:
    /// `members` yields one `(attention, binding)` per group, each
    /// state is a `[Σ W_b·n, hidden]` individual-major stack of `n`-row
    /// window blocks, and group `b`'s windows are scored by its *own*
    /// `(w, b, v)` parameters. Returns the softmax weights as a
    /// `[Σ W_b, T]` matrix whose row for window `w` of group `b` is
    /// bit-identical to that window's per-window weights. All modules
    /// must share the hidden and attention widths.
    ///
    /// # Panics
    /// Panics if `states` is empty or lengths/widths mismatch.
    pub fn weights_grouped<'a>(
        members: impl Iterator<Item = (&'a Self, &'a Binding)> + Clone,
        tape: &Tape,
        states: &[Var],
        group_wins: &[usize],
    ) -> Var {
        assert!(!states.is_empty(), "attention over an empty sequence");
        let hidden = shared_hidden_dim(members.clone());
        let total_wins: usize = group_wins.iter().sum();
        let n = tape.dims(states[0])[0] / total_wins;
        // Row-averaging matrix [1, n]; shared across windows and
        // individuals (its own gradient is never read), so it is one
        // block-lhs group spanning all Σ W_b windows.
        let avg = tape.leaf(Tensor::filled(&[1, n], 1.0 / n as f64));
        // Each individual's vᵀ [A, 1], shared by every step as in the
        // per-window graph.
        let vts: Vec<Var> = members
            .clone()
            .map(|(a, bind)| tape.transpose(bind.var(a.v)))
            .collect();
        let mut scores = Vec::with_capacity(states.len());
        for &h in states {
            assert_eq!(
                tape.dims(h)[1],
                hidden,
                "hidden width mismatch in attention"
            );
            let mean_h = tape.group_block_lhs_matmul([avg], h, &[total_wins]); // [Σ W_b, H]
            let params = members
                .clone()
                .map(|(a, bind)| (bind.var(a.w), bind.var(a.b)));
            let proj = tape.group_linear(mean_h, params, group_wins); // [Σ W_b, A]
            let act = tape.tanh(proj);
            // Grouped replay: the per-window graph folds each window's
            // score gradients into that window's own vᵀ node before
            // accumulating, so v's gradient association matches.
            let score = tape.group_matmul_grouped(act, vts.iter().copied(), group_wins, 1);
            scores.push(score); // [Σ W_b, 1]
        }
        let mut logits = scores[0];
        for &s in &scores[1..] {
            logits = tape.hcat(logits, s); // [Σ W_b, T]
        }
        tape.softmax_last(logits) // [Σ W_b, T], row-wise softmax
    }

    /// Grouped [`TemporalAttention::forward`]: the attention-weighted
    /// context for every window of every individual at once, shape
    /// `[Σ W_b·n, hidden]`.
    ///
    /// # Panics
    /// Panics if `states` is empty or lengths/widths mismatch.
    pub fn forward_grouped<'a>(
        members: impl Iterator<Item = (&'a Self, &'a Binding)> + Clone,
        tape: &Tape,
        states: &[Var],
        group_wins: &[usize],
    ) -> Var {
        let alpha = Self::weights_grouped(members, tape, states, group_wins); // [Σ W_b, T]
        let total_wins: usize = group_wins.iter().sum();
        let dims = tape.dims(states[0]);
        let (n, h) = (dims[0] / total_wins, dims[1]);
        // Window block w of the stack holds the T flattened states of
        // window w; a blockwise [1, T] x [T, n*H] product then forms
        // every window's context in one node — the pooling has no
        // parameters, so one shared-structure op covers every
        // individual.
        let stacked = tape.stack_window_blocks(states, total_wins); // [Σ W_b·T, n*H]
        let ctx = tape.block_matmul(alpha, stacked, total_wins); // [Σ W_b, n*H]
        tape.reshape(ctx, &[total_wins * n, h])
    }
}

/// Asserts every module shares the hidden/attention widths and returns
/// the hidden width.
fn shared_hidden_dim<'a>(
    mut members: impl Iterator<Item = (&'a TemporalAttention, &'a Binding)>,
) -> usize {
    let (first, _) = members.next().expect("at least one attention module");
    for (a, _) in members {
        assert_eq!(
            a.hidden_dim, first.hidden_dim,
            "grouped attention modules must share the hidden width"
        );
        assert_eq!(
            a.attn_dim, first.attn_dim,
            "grouped attention modules must share the attention width"
        );
    }
    first.hidden_dim
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(hidden: usize) -> (ParamStore, TemporalAttention, Rng64) {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(7);
        let attn = TemporalAttention::new(&mut store, "attn", hidden, 4, &mut rng);
        (store, attn, rng)
    }

    #[test]
    fn weights_form_a_distribution() {
        let (store, attn, mut rng) = setup(6);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let states: Vec<Var> = (0..5)
            .map(|_| tape.leaf(Tensor::rand_normal(&[3, 6], 0.0, 1.0, &mut rng)))
            .collect();
        let w = attn.weights(&tape, &binding, &states);
        let wv = tape.value(w);
        assert_eq!(wv.dims(), &[5]);
        assert!((wv.sum() - 1.0).abs() < 1e-9);
        assert!(wv.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn context_shape_matches_state() {
        let (store, attn, mut rng) = setup(6);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let states: Vec<Var> = (0..4)
            .map(|_| tape.leaf(Tensor::rand_normal(&[3, 6], 0.0, 1.0, &mut rng)))
            .collect();
        let ctx = attn.forward(&tape, &binding, &states);
        assert_eq!(tape.dims(ctx), vec![3, 6]);
    }

    #[test]
    fn identical_states_give_uniform_weights() {
        let (store, attn, mut rng) = setup(5);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let s = tape.leaf(Tensor::rand_normal(&[2, 5], 0.0, 1.0, &mut rng));
        let w = attn.weights(&tape, &binding, &[s, s, s, s]);
        let wv = tape.value(w);
        for &v in wv.data() {
            assert!((v - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn context_of_identical_states_is_the_state() {
        let (store, attn, mut rng) = setup(5);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let s = tape.leaf(Tensor::rand_normal(&[2, 5], 0.0, 1.0, &mut rng));
        let ctx = attn.forward(&tape, &binding, &[s, s, s]);
        ema_tensor::assert_tensors_close(&tape.value(ctx), &tape.value(s), 1e-9);
    }

    #[test]
    fn gradients_reach_attention_params() {
        let (store, attn, mut rng) = setup(4);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let states: Vec<Var> = (0..3)
            .map(|_| tape.leaf(Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut rng)))
            .collect();
        let ctx = attn.forward(&tape, &binding, &states);
        let sq = tape.square(ctx);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        for (_, var) in binding.iter() {
            assert!(grads.get(var).is_some());
        }
    }
}

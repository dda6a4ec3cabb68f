//! A3TGCN: Attention Temporal Graph Convolutional Network (Bai et al.,
//! 2021), the paper's R-GCN representative.
//!
//! A TGCN cell — a GRU whose gates are computed by graph convolutions
//! over the variable graph — runs across the window; a temporal
//! attention module pools the hidden states into a context that a
//! per-node head maps to the 1-lag prediction.

use crate::config::DROPOUT;
use crate::gcn::{gcn_layer, gcn_layer_grouped};
use crate::{Forecaster, ForwardCtx, ModelConfig, WindowBatch};
use ema_autodiff::{Tape, Var};
use ema_graph::{normalize, AdjacencyMatrix};
use ema_nn::{Binding, Initializer, ParamId, ParamStore, TemporalAttention};
use ema_tensor::{Rng64, Tensor};

/// One TGCN gate's parameters: a graph-convolution weight over the
/// concatenated `[x ‖ h]` features.
struct Gate {
    w: ParamId, // [H, 1 + H]
    b: ParamId, // [H]
}

impl Gate {
    fn new(store: &mut ParamStore, name: &str, hidden: usize, rng: &mut Rng64) -> Self {
        let w = store.register(
            format!("{name}.w"),
            Initializer::XavierUniform.init(&[hidden, 1 + hidden], rng),
        );
        let b = store.register(format!("{name}.b"), Initializer::Zeros.init(&[hidden], rng));
        Self { w, b }
    }
}

/// The A3TGCN forecaster.
pub struct A3tgcn {
    store: ParamStore,
    update: Gate,
    reset: Gate,
    candidate: Gate,
    attention: TemporalAttention,
    head_w: ParamId, // [1, H]
    head_b: ParamId, // [1]
    a_hat: Tensor,   // symmetric GCN normalisation of the input graph
    hidden: usize,
    use_attention: bool,
    num_variables: usize,
}

impl A3tgcn {
    /// Builds an A3TGCN over the given static graph.
    ///
    /// # Panics
    /// Panics if the graph's node count differs from `num_variables`.
    #[must_use]
    pub fn new(num_variables: usize, graph: &AdjacencyMatrix, config: &ModelConfig) -> Self {
        Self::with_options(num_variables, graph, config, true)
    }

    /// [`A3tgcn::new`] with temporal attention optionally disabled —
    /// the ablation reduces the model to a plain TGCN whose last hidden
    /// state feeds the head (isolating the "A3" part's contribution).
    ///
    /// # Panics
    /// Panics if the graph's node count differs from `num_variables`.
    #[must_use]
    pub fn with_options(
        num_variables: usize,
        graph: &AdjacencyMatrix,
        config: &ModelConfig,
        use_attention: bool,
    ) -> Self {
        assert_eq!(
            graph.num_nodes(),
            num_variables,
            "graph has {} nodes, expected {num_variables}",
            graph.num_nodes()
        );
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(config.seed);
        let hidden = config.hidden;
        let update = Gate::new(&mut store, "tgcn.update", hidden, &mut rng);
        let reset = Gate::new(&mut store, "tgcn.reset", hidden, &mut rng);
        let candidate = Gate::new(&mut store, "tgcn.candidate", hidden, &mut rng);
        let attention =
            TemporalAttention::new(&mut store, "attn", hidden, config.attn_dim, &mut rng);
        let head_w = store.register(
            "head.w",
            Initializer::XavierUniform.init(&[1, hidden], &mut rng),
        );
        let head_b = store.register("head.b", Initializer::Zeros.init(&[1], &mut rng));
        Self {
            store,
            update,
            reset,
            candidate,
            attention,
            head_w,
            head_b,
            a_hat: normalize::gcn_norm(graph),
            hidden,
            use_attention,
            num_variables,
        }
    }

    /// One TGCN step: graph-convolved GRU gates.
    fn tgcn_step(&self, tape: &Tape, binding: &Binding, a_hat: Var, x: Var, h: Var) -> Var {
        // x: [V, 1], h: [V, H]
        let xh = tape.hcat(x, h); // [V, 1 + H]
                                  // Update and reset read the same graph-propagated features:
                                  // compute Â·[x ‖ h] once and share it between both gates.
        let xh_prop = tape.matmul(a_hat, xh); // [V, 1 + H]
        let u_pre = tape.linear(
            xh_prop,
            binding.var(self.update.w),
            binding.var(self.update.b),
        );
        let u = tape.sigmoid(u_pre);
        let r_pre = tape.linear(
            xh_prop,
            binding.var(self.reset.w),
            binding.var(self.reset.b),
        );
        let r = tape.sigmoid(r_pre);
        let rh = tape.mul(r, h);
        let xrh = tape.hcat(x, rh);
        let c_pre = gcn_layer(
            tape,
            a_hat,
            xrh,
            binding.var(self.candidate.w),
            binding.var(self.candidate.b),
        );
        let c = tape.tanh(c_pre);
        // h' = u ⊙ h + (1 − u) ⊙ c
        let uh = tape.mul(u, h);
        let uc = tape.mul(u, c);
        let c_minus_uc = tape.sub(c, uc);
        tape.add(uh, c_minus_uc)
    }

    /// [`A3tgcn::tgcn_step`] over a window batch (`x: [W·V, 1]`,
    /// `h: [W·V, H]`): every window block propagates through `a_hat`
    /// and the gate parameters via the window-group ops, in the
    /// per-window op order, so every row block — and every
    /// parameter-gradient accumulation — is bit-identical.
    fn tgcn_step_grouped(
        &self,
        tape: &Tape,
        binding: &Binding,
        a_hat: Var,
        x: Var,
        h: Var,
        wins: usize,
    ) -> Var {
        let gate = |g: &Gate| (binding.var(g.w), binding.var(g.b));
        let xh = tape.hcat(x, h); // [W·V, 1 + H]
                                  // Update and reset read the same graph-propagated features.
        let xh_prop = tape.group_block_lhs_matmul(a_hat, xh, wins);
        let (w, b) = gate(&self.update);
        let u = tape.sigmoid(tape.group_linear(xh_prop, w, b, wins));
        let (w, b) = gate(&self.reset);
        let r = tape.sigmoid(tape.group_linear(xh_prop, w, b, wins));
        let rh = tape.mul(r, h);
        let xrh = tape.hcat(x, rh);
        let (w, b) = gate(&self.candidate);
        let c = tape.tanh(gcn_layer_grouped(tape, a_hat, xrh, w, b, wins));
        // h' = u ⊙ h + (1 − u) ⊙ c
        let uh = tape.mul(u, h);
        let uc = tape.mul(u, c);
        let c_minus_uc = tape.sub(c, uc);
        tape.add(uh, c_minus_uc)
    }
}

impl Forecaster for A3tgcn {
    fn name(&self) -> &'static str {
        "A3TGCN"
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
        assert_eq!(window.dims()[1], self.num_variables, "window width");
        let seq = window.dims()[0];
        let v = self.num_variables;
        // Constants shared by every window of the epoch: the normalised
        // propagation matrix and the initial hidden state (read-only —
        // each step produces a fresh var).
        let a_hat = ctx.memo("a3tgcn_a_hat", || tape.leaf(self.a_hat.clone()));
        let mut h = ctx.memo("a3tgcn_h0", || tape.leaf(Tensor::zeros(&[v, self.hidden])));
        let mut states = Vec::with_capacity(seq);
        for t in 0..seq {
            // Node features at step t: each variable's value, [V, 1].
            let x = tape.leaf(window.row(t).reshaped(&[v, 1]));
            h = self.tgcn_step(tape, binding, a_hat, x, h);
            states.push(h);
        }
        let ctx_state = if self.use_attention {
            self.attention.forward(tape, binding, &states) // [V, H]
        } else {
            *states.last().expect("non-empty window")
        };
        let dropped = tape.dropout(ctx_state, DROPOUT, ctx.training, ctx.rng);
        let pred = tape.linear(dropped, binding.var(self.head_w), binding.var(self.head_b)); // [V, 1]
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
        let (v, wins) = (self.num_variables, batch.wins());
        let a_hat = tape.leaf(self.a_hat.clone());
        let mut h = tape.leaf(Tensor::zeros(&[wins * v, self.hidden]));
        let mut states = Vec::with_capacity(batch.seq_len());
        for t in 0..batch.seq_len() {
            // Step t's [W, V] rows reshape to the window-blocked
            // [W·V, 1] node-feature column.
            let x = tape.leaf(batch.step(t).reshaped(&[wins * v, 1]));
            h = self.tgcn_step_grouped(tape, binding, a_hat, x, h, wins);
            states.push(h);
        }
        let ctx_state = if self.use_attention {
            self.attention.forward_grouped(tape, binding, &states, wins)
        } else {
            *states.last().expect("non-empty window")
        };
        // The [W·V, H] mask rows are drawn in the per-window
        // (window-major) order.
        let dropped = tape.dropout(ctx_state, DROPOUT, ctx.training, ctx.rng);
        let (w, b) = (binding.var(self.head_w), binding.var(self.head_b));
        let pred = tape.group_linear(dropped, w, b, wins); // [W·V, 1]
        tape.reshape(pred, &[wins, v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_nn::{Adam, Optimizer, OptimizerConfig};

    fn ring_graph(n: usize) -> AdjacencyMatrix {
        let mut a = AdjacencyMatrix::empty(n);
        for i in 0..n {
            let j = (i + 1) % n;
            a.set_weight(i, j, 1.0);
            a.set_weight(j, i, 1.0);
        }
        a
    }

    #[test]
    fn prediction_shape_and_finiteness() {
        let model = A3tgcn::new(6, &ring_graph(6), &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(1);
        let window = Tensor::rand_normal(&[5, 6], 0.0, 1.0, &mut rng);
        let pred = model.predict(&window, &mut rng);
        assert_eq!(pred.dims(), &[6]);
        assert!(pred.all_finite());
    }

    #[test]
    fn seq1_works() {
        let model = A3tgcn::new(4, &ring_graph(4), &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(2);
        let window = Tensor::rand_normal(&[1, 4], 0.0, 1.0, &mut rng);
        assert_eq!(model.predict(&window, &mut rng).dims(), &[4]);
    }

    #[test]
    #[should_panic(expected = "nodes, expected")]
    fn rejects_mismatched_graph() {
        let _ = A3tgcn::new(5, &ring_graph(4), &ModelConfig::tiny(0));
    }

    #[test]
    fn different_graphs_give_different_predictions() {
        let cfg = ModelConfig::tiny(3);
        let ring = A3tgcn::new(6, &ring_graph(6), &cfg);
        let full = A3tgcn::new(6, &AdjacencyMatrix::complete(6), &cfg);
        let mut rng = Rng64::seed_from(4);
        let window = Tensor::rand_normal(&[4, 6], 0.0, 1.0, &mut rng);
        let a = ring.predict(&window, &mut rng);
        let b = full.predict(&window, &mut rng);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn attention_ablation_changes_predictions() {
        let cfg = ModelConfig::tiny(8);
        let with_attn = A3tgcn::new(5, &ring_graph(5), &cfg);
        let without = A3tgcn::with_options(5, &ring_graph(5), &cfg, false);
        let mut rng = Rng64::seed_from(9);
        let window = Tensor::rand_normal(&[4, 5], 0.0, 1.0, &mut rng);
        let a = with_attn.predict(&window, &mut rng);
        let b = without.predict(&window, &mut rng);
        assert_ne!(a.data(), b.data());
        assert!(b.all_finite());
    }

    #[test]
    fn gradients_flow_and_loss_drops() {
        let mut model = A3tgcn::new(4, &ring_graph(4), &ModelConfig::tiny(5));
        let mut rng = Rng64::seed_from(6);
        let window = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let target = Tensor::from_vec1(vec![0.3, -0.4, 0.1, 0.6]);
        let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.02));
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..120 {
            let tape = Tape::new();
            let binding = model.params().bind(&tape);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let pred = model.predict_window(&tape, &binding, &window, &mut ctx);
            let tgt = tape.leaf(target.clone());
            let loss = tape.mse(pred, tgt);
            last = tape.value(loss).data()[0];
            first.get_or_insert(last);
            let grads = tape.backward(loss);
            adam.step(model.params_mut(), &binding, &grads);
        }
        assert!(last < first.unwrap() * 0.2, "loss stuck at {last}");
    }
}

//! ASTGCN: Attention-based Spatial-Temporal Graph Convolutional Network
//! (Guo et al., 2019; Zhu et al., 2021), the paper's non-learning T-GAT
//! representative.
//!
//! One spatial-temporal block over the window:
//!
//! 1. **temporal attention** reweights time steps (`[s, s]` scores);
//! 2. **spatial attention** produces a `[V, V]` mask applied to a
//!    Chebyshev polynomial stack (K = 3) of the static graph's scaled
//!    Laplacian;
//! 3. a **temporal convolution** condenses the attended sequence;
//! 4. a per-node affine head emits the 1-lag prediction.

use crate::config::{CHEB_ORDER, DROPOUT, KERNEL};
use crate::{Forecaster, ForwardCtx, ModelConfig, WindowBatch};
use ema_autodiff::{Tape, Var};
use ema_graph::{chebyshev, AdjacencyMatrix};
use ema_nn::{Binding, DilatedTemporalConv, Initializer, ParamId, ParamStore};
use ema_tensor::{Rng64, Tensor};

/// The ASTGCN forecaster for a fixed window length.
pub struct Astgcn {
    store: ParamStore,
    // Spatial attention: S = softmax(σ((X·W1)(X·W2)ᵀ)).
    sa_w1: ParamId, // [s, d]
    sa_w2: ParamId, // [s, d]
    // Temporal attention: E = softmax(σ((Xᵀ·P1)(Xᵀ·P2)ᵀ)).
    ta_p1: ParamId, // [V, d]
    ta_p2: ParamId, // [V, d]
    // Chebyshev convolution weights, one [F, 1] per polynomial order.
    cheb_w: Vec<ParamId>,
    cheb_b: ParamId, // [F]
    temporal: DilatedTemporalConv,
    // Residual shortcut: projects each input step [V, 1] to [V, F] and
    // adds it to the temporal-conv output (the 1×1 residual conv of the
    // original ASTGCN block).
    res_w: ParamId,    // [F, 1]
    head_w: ParamId,   // [1, F]
    head_b: ParamId,   // [1]
    cheb: Vec<Tensor>, // T_k(L̃) constants
    seq_len: usize,
    use_spatial_attention: bool,
    num_variables: usize,
}

impl Astgcn {
    /// Builds an ASTGCN over the given static graph for windows of
    /// exactly `seq_len` steps.
    ///
    /// # Panics
    /// Panics on a node-count mismatch or `seq_len == 0`.
    #[must_use]
    pub fn new(
        num_variables: usize,
        seq_len: usize,
        graph: &AdjacencyMatrix,
        config: &ModelConfig,
    ) -> Self {
        Self::with_options(num_variables, seq_len, graph, config, true)
    }

    /// [`Astgcn::new`] with spatial attention optionally disabled —
    /// the ablation applies the raw Chebyshev stack without the learned
    /// `[V, V]` mask.
    ///
    /// # Panics
    /// Panics on a node-count mismatch or `seq_len == 0`.
    #[must_use]
    pub fn with_options(
        num_variables: usize,
        seq_len: usize,
        graph: &AdjacencyMatrix,
        config: &ModelConfig,
        use_spatial_attention: bool,
    ) -> Self {
        assert_eq!(
            graph.num_nodes(),
            num_variables,
            "graph has {} nodes, expected {num_variables}",
            graph.num_nodes()
        );
        assert!(seq_len > 0, "seq_len must be positive");
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(config.seed);
        let d = config.attn_dim;
        let f = config.hidden;
        let init = Initializer::XavierUniform;

        let sa_w1 = store.register("sa.w1", init.init(&[seq_len, d], &mut rng));
        let sa_w2 = store.register("sa.w2", init.init(&[seq_len, d], &mut rng));
        let ta_p1 = store.register("ta.p1", init.init(&[num_variables, d], &mut rng));
        let ta_p2 = store.register("ta.p2", init.init(&[num_variables, d], &mut rng));

        let cheb_w = (0..CHEB_ORDER)
            .map(|i| store.register(format!("cheb.w{i}"), init.init(&[f, 1], &mut rng)))
            .collect();
        let cheb_b = store.register("cheb.b", Initializer::Zeros.init(&[f], &mut rng));

        let t_kernel = KERNEL.min(seq_len);
        let temporal = DilatedTemporalConv::new(&mut store, "tconv", f, f, t_kernel, &mut rng);

        let res_w = store.register("res.w", init.init(&[f, 1], &mut rng));
        let head_w = store.register("head.w", init.init(&[1, f], &mut rng));
        let head_b = store.register("head.b", Initializer::Zeros.init(&[1], &mut rng));

        Self {
            store,
            sa_w1,
            sa_w2,
            ta_p1,
            ta_p2,
            cheb_w,
            cheb_b,
            temporal,
            res_w,
            head_w,
            head_b,
            cheb: chebyshev::chebyshev_from_adjacency(graph, CHEB_ORDER),
            seq_len,
            use_spatial_attention,
            num_variables,
        }
    }

    /// The window length this model was built for.
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }
}

impl Forecaster for Astgcn {
    fn name(&self) -> &'static str {
        "ASTGCN"
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
        assert_eq!(
            window.dims()[0],
            self.seq_len,
            "ASTGCN was built for seq_len {} but got {}",
            self.seq_len,
            window.dims()[0]
        );
        let s = self.seq_len;

        // X: [V, s] — variables over time.
        let x = tape.leaf(window.transpose());
        // Temporal attention E: [s, s].
        let xt = tape.transpose(x); // [s, V]
        let u1 = tape.matmul(xt, binding.var(self.ta_p1)); // [s, d]
        let u2 = tape.matmul(xt, binding.var(self.ta_p2)); // [s, d]
        let e_pre = tape.matmul_nt(u1, u2); // [s, s]
        let e_act = tape.sigmoid(e_pre);
        let e = tape.softmax_last(e_act);
        // Reweight time steps: X̂ = X · Eᵀ.
        let x_hat = tape.matmul_nt(x, e); // [V, s]

        // Spatial attention S: [V, V].
        let e1 = tape.matmul(x, binding.var(self.sa_w1)); // [V, d]
        let e2 = tape.matmul(x, binding.var(self.sa_w2)); // [V, d]
        let s_pre = tape.matmul_nt(e1, e2); // [V, V]
        let s_act = tape.sigmoid(s_pre);
        let s_attn = tape.softmax_last(s_act);

        // Chebyshev graph convolution per time step, masked by S.
        let cheb_vars: Vec<Var> = self.cheb.iter().map(|t| tape.leaf(t.clone())).collect();
        let mut steps = Vec::with_capacity(s);
        for t in 0..s {
            let x_t = tape.slice_cols(x_hat, t, t + 1); // [V, 1]
            let mut acc: Option<Var> = None;
            for (k, &tk) in cheb_vars.iter().enumerate() {
                let masked = if self.use_spatial_attention {
                    tape.mul(tk, s_attn) // T_k ⊙ S
                } else {
                    tk
                };
                let prop = tape.matmul(masked, x_t); // [V, 1]
                let term = tape.matmul_nt(prop, binding.var(self.cheb_w[k])); // [V, F]
                acc = Some(match acc {
                    Some(a) => tape.add(a, term),
                    None => term,
                });
            }
            let summed = acc.expect("K >= 1");
            let biased = tape.add_row_broadcast(summed, binding.var(self.cheb_b));
            steps.push(tape.relu(biased));
        }

        // Temporal convolution condenses the sequence; take its last
        // step and add the residual projection of the *last input* step
        // (the block's 1×1 shortcut, which also gives the model a direct
        // persistence path).
        let conv_out = self.temporal.forward(tape, binding, &steps);
        let conv_last = *conv_out.last().expect("non-empty conv output");
        let x_last = tape.slice_cols(x, s - 1, s); // [V, 1] raw input
        let residual = tape.matmul_nt(x_last, binding.var(self.res_w)); // [V, F]
        let combined = tape.add(conv_last, residual);
        let dropped = tape.dropout(combined, DROPOUT, ctx.training, ctx.rng);
        let pred = tape.linear(dropped, binding.var(self.head_w), binding.var(self.head_b));
        tape.flatten(pred) // [V]
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
        assert_eq!(
            batch.seq_len(),
            self.seq_len,
            "ASTGCN was built for seq_len {} but got {}",
            self.seq_len,
            batch.seq_len()
        );
        let (s, v, wins) = (self.seq_len, self.num_variables, batch.wins());
        let var = |id: ParamId| binding.var(id);

        // X blocks [V, s] (variables over time) and Xᵀ blocks [s, V] as
        // two constant leaves — the per-window graph's Transpose node
        // only feeds gradient back into the data leaf, so splitting the
        // layouts loses nothing.
        let x_all = tape.leaf(batch.stacked_transposed().clone()); // [W·V, s]
        let xt_all = tape.leaf(batch.stacked().clone()); // [W·s, V]
                                                         // Temporal attention E per window.
        let u1 = tape.group_matmul(xt_all, var(self.ta_p1), wins); // [W·s, d]
        let u2 = tape.group_matmul(xt_all, var(self.ta_p2), wins); // [W·s, d]
        let e_pre = tape.block_matmul_nt(u1, u2, wins); // [W·s, s]
        let e_act = tape.sigmoid(e_pre);
        let e = tape.softmax_last(e_act);
        let x_hat = tape.block_matmul_nt(x_all, e, wins); // [W·V, s]

        // Spatial attention S per window.
        let e1 = tape.group_matmul(x_all, var(self.sa_w1), wins); // [W·V, d]
        let e2 = tape.group_matmul(x_all, var(self.sa_w2), wins); // [W·V, d]
        let s_pre = tape.block_matmul_nt(e1, e2, wins); // [W·V, V]
        let s_act = tape.sigmoid(s_pre);
        let s_attn = tape.softmax_last(s_act);

        // Chebyshev constants tiled once per window, so the elementwise
        // mask and the blockwise propagation stay window-local dense
        // ops.
        let cheb_vars: Vec<Var> = self
            .cheb
            .iter()
            .map(|tk| {
                let tiled = Tensor::from_vec(&[wins * v, v], tk.data().repeat(wins));
                tape.leaf(tiled.expect("cheb tile"))
            })
            .collect();
        let mut steps = Vec::with_capacity(s);
        for t in 0..s {
            let x_t = tape.slice_cols(x_hat, t, t + 1); // [W·V, 1]
            let mut acc: Option<Var> = None;
            for (&tk, &w) in cheb_vars.iter().zip(&self.cheb_w) {
                let masked = if self.use_spatial_attention {
                    tape.mul(tk, s_attn) // T_k ⊙ S per window
                } else {
                    tk
                };
                let prop = tape.block_matmul(masked, x_t, wins); // [W·V, 1]
                let term = tape.group_matmul_nt(prop, var(w), wins); // [W·V, F]
                acc = Some(match acc {
                    Some(a) => tape.add(a, term),
                    None => term,
                });
            }
            let summed = acc.expect("K >= 1");
            let biased = tape.group_add_row_broadcast(summed, var(self.cheb_b), wins);
            steps.push(tape.relu(biased));
        }

        // Temporal convolution condenses the sequence; its last step
        // plus the residual projection of the last input step feeds
        // the head.
        let conv_out = self.temporal.forward_grouped(tape, binding, &steps, wins);
        let conv_last = *conv_out.last().expect("non-empty conv output");
        let x_last = tape.slice_cols(x_all, s - 1, s); // [W·V, 1]
        let residual = tape.group_matmul_nt(x_last, var(self.res_w), wins); // [W·V, F]
        let combined = tape.add(conv_last, residual);
        // The [W·V, F] mask rows are drawn in the per-window
        // (window-major) order.
        let dropped = tape.dropout(combined, DROPOUT, ctx.training, ctx.rng);
        let pred = tape.group_linear(dropped, var(self.head_w), var(self.head_b), wins); // [W·V, 1]
        tape.reshape(pred, &[wins, v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::predict;
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
    fn prediction_shape() {
        let model = Astgcn::new(6, 5, &ring_graph(6), &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(1);
        let window = Tensor::rand_normal(&[5, 6], 0.0, 1.0, &mut rng);
        let pred = predict(&model, &window, &mut rng);
        assert_eq!(pred.dims(), &[6]);
        assert!(pred.all_finite());
    }

    #[test]
    fn seq1_and_seq2_work() {
        let mut rng = Rng64::seed_from(2);
        for s in [1usize, 2] {
            let model = Astgcn::new(4, s, &ring_graph(4), &ModelConfig::tiny(0));
            let window = Tensor::rand_normal(&[s, 4], 0.0, 1.0, &mut rng);
            assert_eq!(predict(&model, &window, &mut rng).dims(), &[4]);
        }
    }

    #[test]
    #[should_panic(expected = "built for seq_len")]
    fn rejects_wrong_window_length() {
        let model = Astgcn::new(4, 5, &ring_graph(4), &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(3);
        let window = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let _ = predict(&model, &window, &mut rng);
    }

    #[test]
    fn graph_influences_output() {
        let cfg = ModelConfig::tiny(4);
        let ring = Astgcn::new(6, 3, &ring_graph(6), &cfg);
        let full = Astgcn::new(6, 3, &AdjacencyMatrix::complete(6), &cfg);
        let mut rng = Rng64::seed_from(5);
        let window = Tensor::rand_normal(&[3, 6], 0.0, 1.0, &mut rng);
        assert_ne!(
            predict(&ring, &window, &mut rng).data(),
            predict(&full, &window, &mut rng).data()
        );
    }

    #[test]
    fn spatial_attention_ablation_changes_predictions() {
        let cfg = ModelConfig::tiny(9);
        let with_sa = Astgcn::new(5, 3, &ring_graph(5), &cfg);
        let without = Astgcn::with_options(5, 3, &ring_graph(5), &cfg, false);
        let mut rng = Rng64::seed_from(10);
        let window = Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng);
        let a = predict(&with_sa, &window, &mut rng);
        let b = predict(&without, &window, &mut rng);
        assert_ne!(a.data(), b.data());
        assert!(b.all_finite());
    }

    #[test]
    fn trains_to_fit_target() {
        let mut model = Astgcn::new(4, 3, &ring_graph(4), &ModelConfig::tiny(6));
        let mut rng = Rng64::seed_from(7);
        let window = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let target = Tensor::from_vec1(vec![0.2, -0.1, 0.5, -0.6]);
        let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.02));
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
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

//! MTGNN: Multivariate Time-series GNN with graph learning (Wu et al.,
//! KDD 2020) — the paper's best performer.
//!
//! Components, scaled to EMA dimensions:
//!
//! * a **graph-learning layer**: node embeddings `E₁, E₂` produce
//!   `A = relu(tanh(α(tanh(αE₁M₁)·tanh(αE₂M₂)ᵀ − transpose)))`, sparsified
//!   to top-k neighbours per node. Gradients flow through the kept
//!   entries, so the graph updates with the training loss;
//! * optionally, a **static prior graph** added before sparsification —
//!   the paper's "starting from an initial graph structure" mode;
//! * two **gated dilated temporal convolution** blocks, each followed by
//!   **mix-hop graph propagation** over the learned adjacency, with
//!   residual and skip connections;
//! * an output module mapping skip features to the 1-lag prediction.

use crate::config::{DROPOUT, GRAPH_ALPHA, KERNEL, MIXHOP_DEPTH};
use crate::gcn::{mixhop_propagation, mixhop_propagation_grouped};
use crate::{Forecaster, ForwardCtx, ModelConfig, WindowBatch};
use ema_autodiff::{Tape, Var};
use ema_graph::{sparsify, AdjacencyMatrix};
use ema_nn::{Binding, DilatedTemporalConv, Initializer, ParamId, ParamStore};
use ema_tensor::{Rng64, Tensor};

/// How MTGNN parameterises its learned adjacency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphLearnerKind {
    /// Wu et al.'s node-embedding construction
    /// `relu(tanh(α(tanh(αE₁M₁)·tanh(αE₂M₂)ᵀ − transpose)))` — low-rank
    /// and directionally antisymmetric (the paper's MTGNN).
    Embedding,
    /// Direct parameterisation: a free `[V, V]` logit matrix squashed
    /// through a sigmoid (a deterministic GTS-style learner; paper
    /// future work on alternative graph-learning modules).
    Direct,
}

/// One temporal-graph block's parameters.
struct Block {
    filter: DilatedTemporalConv,
    gate: DilatedTemporalConv,
    mixhop: Vec<ParamId>, // depth + 1 matrices [C, C]
    skip_w: ParamId,      // [C, C]
}

/// The MTGNN forecaster.
pub struct Mtgnn {
    store: ParamStore,
    // Graph learner.
    e1: ParamId,            // [V, d]
    e2: ParamId,            // [V, d]
    m1: ParamId,            // [d, d]
    m2: ParamId,            // [d, d]
    direct_logits: ParamId, // [V, V], used by the Direct learner
    learner: GraphLearnerKind,
    static_prior: Option<Tensor>, // max-normalised initial graph
    learn_graph: bool,
    // Temporal/graph stack.
    start_w: ParamId, // [C, 1]
    start_b: ParamId, // [C]
    blocks: Vec<Block>,
    end_w1: ParamId, // [C, C]
    end_b1: ParamId, // [C]
    end_w2: ParamId, // [1, C]
    end_b2: ParamId, // [1]
    // Hyper-parameters.
    top_k: usize,
    seq_len: usize,
    num_variables: usize,
}

impl Mtgnn {
    /// Builds an MTGNN for windows of exactly `seq_len` steps.
    /// A provided `initial_graph` becomes an additive prior inside the
    /// graph learner (the paper's "initial graph structure" mode);
    /// `None` starts from a purely random learned graph.
    #[must_use]
    pub fn new(
        num_variables: usize,
        seq_len: usize,
        initial_graph: Option<&AdjacencyMatrix>,
        config: &ModelConfig,
    ) -> Self {
        Self::with_learner(
            num_variables,
            seq_len,
            initial_graph,
            config,
            true,
            GraphLearnerKind::Embedding,
        )
    }

    /// [`Mtgnn::new`] with an explicit graph-learner kind and graph
    /// learning optionally disabled (ablation: the model then
    /// propagates over the static prior alone, which must be provided).
    ///
    /// # Panics
    /// Panics if graph learning is disabled without a static graph, or
    /// on a node-count mismatch.
    #[must_use]
    pub fn with_learner(
        num_variables: usize,
        seq_len: usize,
        initial_graph: Option<&AdjacencyMatrix>,
        config: &ModelConfig,
        learn_graph: bool,
        learner: GraphLearnerKind,
    ) -> Self {
        assert!(seq_len > 0, "seq_len must be positive");
        assert!(
            learn_graph || initial_graph.is_some(),
            "disabling graph learning requires a static graph"
        );
        if let Some(g) = initial_graph {
            assert_eq!(
                g.num_nodes(),
                num_variables,
                "graph has {} nodes, expected {num_variables}",
                g.num_nodes()
            );
        }
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(config.seed);
        let d = config.embed_dim;
        let c = config.hidden;
        let init = Initializer::XavierUniform;

        let e1 = store.register(
            "gl.e1",
            Initializer::Normal(1.0).init(&[num_variables, d], &mut rng),
        );
        let e2 = store.register(
            "gl.e2",
            Initializer::Normal(1.0).init(&[num_variables, d], &mut rng),
        );
        let m1 = store.register("gl.m1", init.init(&[d, d], &mut rng));
        let m2 = store.register("gl.m2", init.init(&[d, d], &mut rng));
        let direct_logits = store.register(
            "gl.direct",
            Initializer::Normal(1.0).init(&[num_variables, num_variables], &mut rng),
        );

        let start_w = store.register("start.w", init.init(&[c, 1], &mut rng));
        let start_b = store.register("start.b", Initializer::Zeros.init(&[c], &mut rng));

        // Two blocks with kernels clamped to the shrinking sequence.
        let k1 = KERNEL.min(seq_len);
        let len1 = seq_len - (k1 - 1);
        let k2 = KERNEL.min(len1);
        let mut blocks = Vec::new();
        for (b, k) in [(0usize, k1), (1usize, k2)] {
            let filter = DilatedTemporalConv::new(
                &mut store,
                &format!("block{b}.filter"),
                c,
                c,
                k,
                &mut rng,
            );
            let gate =
                DilatedTemporalConv::new(&mut store, &format!("block{b}.gate"), c, c, k, &mut rng);
            let mixhop = (0..=MIXHOP_DEPTH)
                .map(|h| {
                    store.register(format!("block{b}.mixhop{h}"), init.init(&[c, c], &mut rng))
                })
                .collect();
            let skip_w = store.register(format!("block{b}.skip"), init.init(&[c, c], &mut rng));
            blocks.push(Block {
                filter,
                gate,
                mixhop,
                skip_w,
            });
        }

        let end_w1 = store.register("end.w1", init.init(&[c, c], &mut rng));
        let end_b1 = store.register("end.b1", Initializer::Zeros.init(&[c], &mut rng));
        let end_w2 = store.register("end.w2", init.init(&[1, c], &mut rng));
        let end_b2 = store.register("end.b2", Initializer::Zeros.init(&[1], &mut rng));

        Self {
            store,
            e1,
            e2,
            m1,
            m2,
            direct_logits,
            learner,
            static_prior: initial_graph.map(|g| g.max_normalized().into_weights()),
            learn_graph,
            start_w,
            start_b,
            blocks,
            end_w1,
            end_b1,
            end_w2,
            end_b2,
            top_k: config
                .graph_top_k
                .min(num_variables.saturating_sub(1))
                .max(1),
            seq_len,
            num_variables,
        }
    }

    /// Records the learned adjacency before top-k sparsification on the
    /// tape: the graph learner's output plus the static prior, when
    /// one is given.
    fn learned_adjacency(&self, tape: &Tape, binding: &Binding) -> Var {
        let mut a = match self.learner {
            GraphLearnerKind::Embedding => {
                // tanh(α E₁M₁)·tanh(α E₂M₂)ᵀ, antisymmetrised.
                let e1m1 = tape.matmul(binding.var(self.e1), binding.var(self.m1));
                let t1 = {
                    let scaled = tape.scale(e1m1, GRAPH_ALPHA);
                    tape.tanh(scaled)
                };
                let e2m2 = tape.matmul(binding.var(self.e2), binding.var(self.m2));
                let t2 = {
                    let scaled = tape.scale(e2m2, GRAPH_ALPHA);
                    tape.tanh(scaled)
                };
                let a0 = tape.matmul_nt(t1, t2);
                let a0t = tape.transpose(a0);
                let asym = tape.sub(a0, a0t);
                let scaled = tape.scale(asym, GRAPH_ALPHA);
                let th = tape.tanh(scaled);
                tape.relu(th)
            }
            GraphLearnerKind::Direct => tape.sigmoid(binding.var(self.direct_logits)),
        };
        if let Some(prior) = &self.static_prior {
            let p = tape.leaf(prior.clone());
            a = tape.add(a, p);
        }
        a
    }

    /// The top-k-per-row sparsification of a learned adjacency value.
    fn top_k(&self, a: Tensor) -> AdjacencyMatrix {
        sparsify::top_k_per_row(&AdjacencyMatrix::new(a), self.top_k)
    }

    /// Extracts the learned graph for Experiment C: the current
    /// adjacency, top-k sparsified — ready to feed into other GNNs.
    #[must_use]
    pub fn learned_graph(&self) -> AdjacencyMatrix {
        let tape = Tape::new();
        let a = self.learned_adjacency(&tape, &self.store.bind(&tape));
        self.top_k(tape.value(a))
    }

    /// Builds the normalised propagation matrix on the tape. Returns the
    /// tape var for `D̃⁻¹(A_masked + I)`.
    fn adjacency_var(&self, tape: &Tape, binding: &Binding) -> Var {
        let v = self.num_variables;
        if !self.learn_graph {
            // Static-only ablation: constant row-normalised prior.
            let prior = self
                .static_prior
                .as_ref()
                .expect("static graph checked at construction");
            let adj = AdjacencyMatrix::new(prior.clone());
            return tape.leaf(ema_graph::normalize::row_norm_self_loops(&adj));
        }
        let a = self.learned_adjacency(tape, binding);
        // Top-k mask from the adjacency's own value (gradients flow
        // through the surviving entries).
        let kept = self.top_k(tape.value(a));
        let mask = kept.weights().map(|w| if w > 0.0 { 1.0 } else { 0.0 });
        let mask_var = tape.leaf(mask);
        let masked = tape.mul(a, mask_var);
        // Row-normalise with self loops: Ã = A + I; Â = D̃⁻¹ Ã.
        let eye = tape.leaf(Tensor::eye(v));
        let a_tilde = tape.add(masked, eye);
        let ones_col = tape.leaf(Tensor::ones(&[v, 1]));
        let row_sums = tape.matmul(a_tilde, ones_col); // [V, 1]
        let ones_row = tape.leaf(Tensor::ones(&[1, v]));
        let denom = tape.matmul(row_sums, ones_row); // [V, V]
        tape.div(a_tilde, denom)
    }

    /// Pre-draws every dropout mask of the member forward over `wins`
    /// windows: one `[W·V, C]` mask per (block, gated step). The rows
    /// are drawn in the per-window order — windows outermost, then
    /// blocks, then the block's gated steps, each a row-major `[V, C]`
    /// draw — exactly the sequence the per-window forward consumes.
    /// Returns `None` in eval mode.
    fn predraw_masks(&self, wins: usize, ctx: &mut ForwardCtx) -> Option<Vec<Vec<Tensor>>> {
        if !ctx.training {
            return None;
        }
        let v = self.num_variables;
        let c = self.blocks[0].filter.out_channels();
        let mut lens = Vec::with_capacity(self.blocks.len());
        let mut len = self.seq_len;
        for block in &self.blocks {
            len -= block.filter.shrinkage();
            lens.push(len);
        }
        let mut masks: Vec<Vec<Tensor>> = lens
            .iter()
            .map(|&l| (0..l).map(|_| Tensor::zeros(&[wins * v, c])).collect())
            .collect();
        let keep = 1.0 - DROPOUT;
        let rng = &mut *ctx.rng;
        for w in 0..wins {
            for block_masks in &mut masks {
                for mask in block_masks.iter_mut() {
                    for e in &mut mask.data_mut()[w * v * c..(w + 1) * v * c] {
                        if rng.bernoulli(keep) {
                            *e = 1.0 / keep;
                        }
                    }
                }
            }
        }
        Some(masks)
    }
}

impl Forecaster for Mtgnn {
    fn name(&self) -> &'static str {
        "MTGNN"
    }

    fn as_any_mtgnn(&self) -> Option<&Mtgnn> {
        Some(self)
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
            "MTGNN was built for seq_len {} but got {}",
            self.seq_len,
            window.dims()[0]
        );
        let v = self.num_variables;
        // The learned adjacency depends on parameters only: build its
        // subgraph once per epoch and share it across windows (its
        // embedding gradients then accumulate through the shared nodes).
        let a_hat = ctx.memo("mtgnn_a_hat", || self.adjacency_var(tape, binding));

        // Start convolution: lift each step's [V, 1] to [V, C].
        let mut seq: Vec<Var> = (0..self.seq_len)
            .map(|t| {
                let x = tape.leaf(window.row(t).reshaped(&[v, 1]));
                tape.linear(x, binding.var(self.start_w), binding.var(self.start_b))
            })
            .collect();

        let mut skip_acc: Option<Var> = None;
        for block in &self.blocks {
            // Gated temporal convolution.
            let filt = block.filter.forward(tape, binding, &seq);
            let gate = block.gate.forward(tape, binding, &seq);
            let z: Vec<Var> = filt
                .iter()
                .zip(gate.iter())
                .map(|(&f, &g)| {
                    let gt = tape.gated_tanh(f, g);
                    tape.dropout(gt, DROPOUT, ctx.training, ctx.rng)
                })
                .collect();
            // Skip connection from the block's last gated step.
            let z_last = *z.last().expect("non-empty conv output");
            let skip = tape.matmul_nt(z_last, binding.var(block.skip_w));
            skip_acc = Some(match skip_acc {
                Some(acc) => tape.add(acc, skip),
                None => skip,
            });
            // Graph propagation per step + residual from the aligned
            // input step.
            let shrink = seq.len() - z.len();
            let hop_weight = |k: usize| binding.var(block.mixhop[k]);
            let mut next = Vec::with_capacity(z.len());
            for (t, &zt) in z.iter().enumerate() {
                let g = mixhop_propagation(tape, a_hat, zt, hop_weight);
                let res = seq[t + shrink];
                next.push(tape.add(g, res));
            }
            seq = next;
        }

        // Output module on the accumulated skip features.
        let last = *seq.last().expect("non-empty final sequence");
        let skip = {
            let acc = skip_acc.expect("at least one block");
            tape.add(acc, last)
        };
        let h = tape.relu(skip);
        let h1 = {
            let lin = tape.linear(h, binding.var(self.end_w1), binding.var(self.end_b1));
            tape.relu(lin)
        };
        let pred = tape.linear(h1, binding.var(self.end_w2), binding.var(self.end_b2)); // [V, 1]
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
        assert_eq!(
            batch.seq_len(),
            self.seq_len,
            "MTGNN was built for seq_len {} but got {}",
            self.seq_len,
            batch.seq_len()
        );
        let (v, wins) = (self.num_variables, batch.wins());
        // Dropout is the only RNG consumer; pre-draw every mask before
        // anything else touches the tape so the stream is consumed
        // exactly as the per-window forward would.
        let mut masks = self.predraw_masks(wins, ctx);
        // The propagation matrix (a parameter-only subgraph), built once.
        let a_hat = self.adjacency_var(tape, binding);

        // Start convolution: step t of every window is one
        // window-blocked [W·V, 1] column lifted to [W·V, C].
        let (start_w, start_b) = (binding.var(self.start_w), binding.var(self.start_b));
        let mut seq: Vec<Var> = (0..self.seq_len)
            .map(|t| {
                let x = tape.leaf(batch.step(t).reshaped(&[wins * v, 1]));
                tape.group_linear(x, start_w, start_b, wins)
            })
            .collect();

        let mut skip_acc: Option<Var> = None;
        for (bi, block) in self.blocks.iter().enumerate() {
            // Gated temporal convolution.
            let filt = block.filter.forward_grouped(tape, binding, &seq, wins);
            let gate = block.gate.forward_grouped(tape, binding, &seq, wins);
            // Each pre-drawn mask moves into its dropout node.
            let mut block_masks = masks
                .as_mut()
                .map(|m| std::mem::take(&mut m[bi]).into_iter());
            let z: Vec<Var> = filt
                .iter()
                .zip(gate.iter())
                .map(|(&f, &g)| {
                    let gt = tape.gated_tanh(f, g);
                    match &mut block_masks {
                        Some(ms) => tape.dropout_masked(gt, ms.next().expect("one mask per step")),
                        None => gt,
                    }
                })
                .collect();
            // Skip connection from the block's last gated step.
            let z_last = *z.last().expect("non-empty conv output");
            let skip = tape.group_matmul_nt(z_last, binding.var(block.skip_w), wins);
            skip_acc = Some(match skip_acc {
                Some(acc) => tape.add(acc, skip),
                None => skip,
            });
            // Graph propagation per step + residual from the aligned
            // input step.
            let shrink = seq.len() - z.len();
            let hop_weight = |k: usize| binding.var(block.mixhop[k]);
            let mut next = Vec::with_capacity(z.len());
            for (t, &zt) in z.iter().enumerate() {
                let g = mixhop_propagation_grouped(tape, a_hat, zt, hop_weight, wins);
                let res = seq[t + shrink];
                next.push(tape.add(g, res));
            }
            seq = next;
        }

        // Output module on the accumulated skip features.
        let last = *seq.last().expect("non-empty final sequence");
        let skip = {
            let acc = skip_acc.expect("at least one block");
            tape.add(acc, last)
        };
        let h = tape.relu(skip);
        let (w1, b1) = (binding.var(self.end_w1), binding.var(self.end_b1));
        let h1 = tape.relu(tape.group_linear(h, w1, b1, wins));
        let (w2, b2) = (binding.var(self.end_w2), binding.var(self.end_b2));
        let pred = tape.group_linear(h1, w2, b2, wins); // [W·V, 1]
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
    fn prediction_shape_without_prior() {
        let model = Mtgnn::new(6, 5, None, &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(1);
        let window = Tensor::rand_normal(&[5, 6], 0.0, 1.0, &mut rng);
        let pred = predict(&model, &window, &mut rng);
        assert_eq!(pred.dims(), &[6]);
        assert!(pred.all_finite());
    }

    #[test]
    fn prediction_with_static_prior() {
        let g = ring_graph(6);
        let model = Mtgnn::new(6, 3, Some(&g), &ModelConfig::tiny(0));
        let mut rng = Rng64::seed_from(2);
        let window = Tensor::rand_normal(&[3, 6], 0.0, 1.0, &mut rng);
        assert!(predict(&model, &window, &mut rng).all_finite());
    }

    #[test]
    fn short_windows_work() {
        let mut rng = Rng64::seed_from(3);
        for s in [1usize, 2] {
            let model = Mtgnn::new(4, s, None, &ModelConfig::tiny(0));
            let window = Tensor::rand_normal(&[s, 4], 0.0, 1.0, &mut rng);
            assert_eq!(predict(&model, &window, &mut rng).dims(), &[4]);
        }
    }

    #[test]
    fn learned_graph_has_top_k_structure() {
        let cfg = ModelConfig::tiny(4);
        let model = Mtgnn::new(8, 3, None, &cfg);
        let g = model.learned_graph();
        assert_eq!(g.num_nodes(), 8);
        for i in 0..8 {
            let deg = (0..8).filter(|&j| g.weight(i, j) > 0.0).count();
            assert!(deg <= cfg.graph_top_k, "node {i} exceeds top-k");
        }
    }

    #[test]
    fn graph_learning_updates_the_graph() {
        let mut model = Mtgnn::new(5, 3, None, &ModelConfig::tiny(5));
        let before = model.learned_graph();
        let mut rng = Rng64::seed_from(6);
        let window = Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng);
        let target = Tensor::from_vec1(vec![0.5, -0.5, 0.2, 0.1, -0.3]);
        let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.02));
        for _ in 0..30 {
            let tape = Tape::new();
            let binding = model.params().bind(&tape);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let pred = model.predict_window(&tape, &binding, &window, &mut ctx);
            let tgt = tape.leaf(target.clone());
            let loss = tape.mse(pred, tgt);
            let grads = tape.backward(loss);
            adam.step(model.params_mut(), &binding, &grads);
        }
        let after = model.learned_graph();
        assert_ne!(
            before.weights().data(),
            after.weights().data(),
            "graph learner did not move"
        );
    }

    #[test]
    fn static_only_ablation_ignores_embeddings() {
        let g = ring_graph(5);
        let model = Mtgnn::with_learner(
            5,
            3,
            Some(&g),
            &ModelConfig::tiny(7),
            false,
            GraphLearnerKind::Embedding,
        );
        let mut rng = Rng64::seed_from(8);
        let window = Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng);
        assert!(predict(&model, &window, &mut rng).all_finite());
    }

    #[test]
    #[should_panic(expected = "requires a static graph")]
    fn ablation_without_graph_panics() {
        let _ = Mtgnn::with_learner(
            5,
            3,
            None,
            &ModelConfig::tiny(0),
            false,
            GraphLearnerKind::Embedding,
        );
    }

    #[test]
    fn direct_learner_runs_and_learns() {
        let mut model = Mtgnn::with_learner(
            5,
            3,
            None,
            &ModelConfig::tiny(11),
            true,
            GraphLearnerKind::Direct,
        );
        let before = model.learned_graph();
        let mut rng = Rng64::seed_from(12);
        let window = Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng);
        let target = Tensor::from_vec1(vec![0.1, -0.2, 0.3, -0.4, 0.5]);
        let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.02));
        for _ in 0..30 {
            let tape = Tape::new();
            let binding = model.params().bind(&tape);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let pred = model.predict_window(&tape, &binding, &window, &mut ctx);
            let tgt = tape.leaf(target.clone());
            let loss = tape.mse(pred, tgt);
            let grads = tape.backward(loss);
            adam.step(model.params_mut(), &binding, &grads);
        }
        let after = model.learned_graph();
        assert_ne!(
            before.weights().data(),
            after.weights().data(),
            "direct learner did not move"
        );
        assert!(after.weights().all_finite());
    }

    #[test]
    fn learner_kinds_produce_different_graphs() {
        let cfg = ModelConfig::tiny(13);
        let emb = Mtgnn::with_learner(6, 2, None, &cfg, true, GraphLearnerKind::Embedding);
        let dir = Mtgnn::with_learner(6, 2, None, &cfg, true, GraphLearnerKind::Direct);
        assert_ne!(
            emb.learned_graph().weights().data(),
            dir.learned_graph().weights().data()
        );
    }

    #[test]
    fn trains_to_fit_target() {
        let mut model = Mtgnn::new(4, 3, None, &ModelConfig::tiny(9));
        let mut rng = Rng64::seed_from(10);
        let window = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);
        let target = Tensor::from_vec1(vec![0.4, -0.2, 0.7, 0.0]);
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

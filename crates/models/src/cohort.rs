//! Window batches — the member forward's input — and the cohort loop
//! kept over them.
//!
//! A [`WindowBatch`] row-stacks one individual's `[s, V]` windows in
//! the layouts the models read: step rows, the window stack and its
//! transposed blocks. [`Forecaster::predict_windows`] forwards the
//! whole batch through one tape graph; training and evaluation run it
//! once per individual.
//!
//! [`CohortForecaster::predict_cohort`] is a loop over B individuals on
//! one tape — each member's forward on its own binding and RNG stream,
//! the `[W_b, V]` results joined with `Tape::stack_rows` — kept for the
//! repository benchmark, which times 64-member groups, and for the
//! equivalence suite. Members share no node, so each member's rows and
//! gradients are bit-identical to its own forward alone.
//!
//! **RNG contract:** randomness (dropout masks) is consumed
//! individual-major — member `b` draws from its own stream in
//! [`CohortCtx::rngs`], window-major within the individual: window
//! outer, then the exact per-window draw sequence. Batching windows or
//! individuals never changes numbers.

use crate::{Forecaster, ForwardCtx};
use ema_autodiff::{Tape, Var};
use ema_nn::Binding;
use ema_tensor::{Rng64, Tensor};

/// All of one individual's `[s, V]` windows row-stacked (window `w` at
/// row block `w`), in the layouts the member forward reads.
#[derive(Debug, Clone)]
pub struct WindowBatch {
    wins: usize,
    seq_len: usize,
    num_vars: usize,
    /// `steps[t]` is `[W, V]`: row `w` is window `w`'s step `t` (the
    /// row-block leaves the recurrent models feed).
    steps: Vec<Tensor>,
    /// `[W·s, V]`: the windows row-stacked.
    stacked: Tensor,
    /// `[W·V, s]`: every window transposed (variables over time), for
    /// models that consume `[V, s]` windows.
    stacked_transposed: Tensor,
}

impl WindowBatch {
    /// Row-stacks `[s, V]` windows.
    ///
    /// # Panics
    /// Panics if `windows` is empty or shapes disagree.
    #[must_use]
    pub fn from_windows(windows: &[Tensor]) -> Self {
        assert!(!windows.is_empty(), "cannot batch zero windows");
        let wins = windows.len();
        let dims = windows[0].dims();
        assert_eq!(dims.len(), 2, "windows must be [seq, V]");
        let (seq_len, num_vars) = (dims[0], dims[1]);
        for (w, win) in windows.iter().enumerate() {
            assert_eq!(win.dims(), dims, "window {w} shape mismatch");
        }
        let steps = (0..seq_len)
            .map(|t| {
                let mut rows = Vec::with_capacity(wins * num_vars);
                for win in windows {
                    rows.extend_from_slice(&win.data()[t * num_vars..(t + 1) * num_vars]);
                }
                Tensor::from_vec(&[wins, num_vars], rows).expect("step shape")
            })
            .collect();
        let mut stacked = Vec::with_capacity(wins * seq_len * num_vars);
        let mut stacked_t = Vec::with_capacity(wins * num_vars * seq_len);
        for win in windows {
            let win = win.data();
            stacked.extend_from_slice(win);
            for j in 0..num_vars {
                stacked_t.extend((0..seq_len).map(|t| win[t * num_vars + j]));
            }
        }
        Self {
            wins,
            seq_len,
            num_vars,
            steps,
            stacked: Tensor::from_vec(&[wins * seq_len, num_vars], stacked).expect("stacked shape"),
            stacked_transposed: Tensor::from_vec(&[wins * num_vars, seq_len], stacked_t)
                .expect("stacked_transposed shape"),
        }
    }

    /// Number of windows `W`.
    #[must_use]
    pub fn wins(&self) -> usize {
        self.wins
    }

    /// Window length `s`.
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Variable count `V`.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Step `t` of every window: `[W, V]`.
    #[must_use]
    pub fn step(&self, t: usize) -> &Tensor {
        &self.steps[t]
    }

    /// The `[W·s, V]` row stack of all windows.
    #[must_use]
    pub fn stacked(&self) -> &Tensor {
        &self.stacked
    }

    /// Transposed window blocks: `[W·V, s]`, window `w` as its `[V, s]`
    /// transpose at row block `w`.
    #[must_use]
    pub fn stacked_transposed(&self) -> &Tensor {
        &self.stacked_transposed
    }
}

/// B individuals' window batches and their row offsets in the stacked
/// output of [`CohortForecaster::predict_cohort`]: individual `b`'s
/// prediction rows start at `offset(b)`.
#[derive(Debug, Clone)]
pub struct CohortBatch<'a> {
    members: Vec<&'a WindowBatch>,
    group_wins: Vec<usize>,
    offsets: Vec<usize>,
}

impl<'a> CohortBatch<'a> {
    /// Groups the given window batches. All batches must agree on
    /// `seq_len` and `num_vars`.
    ///
    /// # Panics
    /// Panics on an empty cohort or mismatched window geometry.
    #[must_use]
    pub fn from_batches(batches: &[&'a WindowBatch]) -> Self {
        assert!(
            !batches.is_empty(),
            "cohort batch needs at least one individual"
        );
        let (seq_len, num_vars) = (batches[0].seq_len(), batches[0].num_vars());
        let mut offsets = Vec::with_capacity(batches.len());
        let mut total = 0usize;
        for (b, batch) in batches.iter().enumerate() {
            assert_eq!(batch.seq_len(), seq_len, "individual {b} seq_len mismatch");
            assert_eq!(
                batch.num_vars(),
                num_vars,
                "individual {b} num_vars mismatch"
            );
            offsets.push(total);
            total += batch.wins();
        }
        Self {
            members: batches.to_vec(),
            group_wins: batches.iter().map(|b| b.wins()).collect(),
            offsets,
        }
    }

    /// Number of individuals.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.members.len()
    }

    /// Individual `b`'s window batch.
    #[must_use]
    pub fn member(&self, b: usize) -> &'a WindowBatch {
        self.members[b]
    }

    /// Windows per individual, in stack order.
    #[must_use]
    pub fn group_wins(&self) -> &[usize] {
        &self.group_wins
    }

    /// First stacked row of individual `b`'s block.
    #[must_use]
    pub fn offset(&self, b: usize) -> usize {
        self.offsets[b]
    }
}

/// Per-call cohort context: training flag plus one RNG stream per
/// individual (stack order). Each individual's stream is consumed
/// exactly as its own forward would consume it.
pub struct CohortCtx<'a> {
    /// Training mode (dropout active)?
    pub training: bool,
    /// One stream per individual, in stack order.
    pub rngs: &'a mut [Rng64],
}

impl<'a> CohortCtx<'a> {
    /// Training-mode context.
    pub fn train(rngs: &'a mut [Rng64]) -> Self {
        Self {
            training: true,
            rngs,
        }
    }

    /// Evaluation-mode context (no randomness drawn).
    pub fn eval(rngs: &'a mut [Rng64]) -> Self {
        Self {
            training: false,
            rngs,
        }
    }
}

/// The cohort loop over every [`Forecaster`].
pub trait CohortForecaster: Forecaster {
    /// Runs [`Forecaster::predict_windows`] for each individual on the
    /// shared tape — member `b` on its own binding, window batch and
    /// RNG stream — and joins the results into `[Σ_b W_b, V]`: row
    /// `offset(b) + w` is bit-identical to `group[b].predict_window`
    /// on window `w` of individual `b`, run window after window on its
    /// own tape with its own RNG stream — values, every parameter
    /// gradient and the RNG draws (see the module docs).
    ///
    /// # Panics
    /// Panics when the group, bindings, batches and streams disagree in
    /// count.
    fn predict_cohort(
        group: &[&Self],
        tape: &Tape,
        bindings: &[&Binding],
        batch: &CohortBatch,
        ctx: &mut CohortCtx,
    ) -> Var {
        let n = group.len();
        assert_eq!(n, batch.num_groups(), "one window batch per model");
        assert_eq!(n, bindings.len(), "one binding per model");
        assert_eq!(n, ctx.rngs.len(), "one RNG stream per model");
        let training = ctx.training;
        let outs: Vec<Var> = group
            .iter()
            .zip(bindings)
            .zip(ctx.rngs.iter_mut())
            .enumerate()
            .map(|(b, ((model, binding), rng))| {
                let mut member_ctx = if training {
                    ForwardCtx::train(rng)
                } else {
                    ForwardCtx::eval(rng)
                };
                model.predict_windows(tape, binding, batch.member(b), &mut member_ctx)
            })
            .collect();
        tape.stack_rows(&outs)
    }
}

impl<M: Forecaster> CohortForecaster for M {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{A3tgcn, Astgcn, ForwardCtx, LstmForecaster, ModelConfig, Mtgnn, VarForecaster};
    use ema_graph::AdjacencyMatrix;

    fn windows(wins: usize, seq: usize, v: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng64::seed_from(seed);
        (0..wins)
            .map(|_| Tensor::rand_normal(&[seq, v], 0.0, 1.0, &mut rng))
            .collect()
    }

    fn window_batch(wins: usize, seq: usize, v: usize, seed: u64) -> WindowBatch {
        WindowBatch::from_windows(&windows(wins, seq, v, seed))
    }

    /// A different graph per individual so each member's graph
    /// constants differ: ring, complete, or path, by index.
    fn graph_for(b: usize, n: usize) -> AdjacencyMatrix {
        match b % 3 {
            0 => {
                let mut a = AdjacencyMatrix::empty(n);
                for i in 0..n {
                    let j = (i + 1) % n;
                    a.set_weight(i, j, 1.0);
                    a.set_weight(j, i, 1.0);
                }
                a
            }
            1 => AdjacencyMatrix::complete(n),
            _ => {
                let mut a = AdjacencyMatrix::empty(n);
                for i in 0..n - 1 {
                    a.set_weight(i, i + 1, 1.0);
                    a.set_weight(i + 1, i, 1.0);
                }
                a
            }
        }
    }

    /// Asserts the cohort loop over the first B models, for every B up
    /// to `models.len()`, matches each individual's windows run one at
    /// a time through `predict_window` bit for bit — training mode
    /// (dropout active, per-individual streams) and eval mode.
    fn assert_cohort_matches_oracle<M: CohortForecaster>(
        models: &[M],
        wins: &[usize],
        seq: usize,
        v: usize,
    ) {
        for groups in 1..=models.len() {
            for training in [true, false] {
                let windows: Vec<Vec<Tensor>> = wins[..groups]
                    .iter()
                    .enumerate()
                    .map(|(b, &w)| windows(w, seq, v, 10 + b as u64))
                    .collect();
                let batches: Vec<WindowBatch> = windows
                    .iter()
                    .map(|w| WindowBatch::from_windows(w))
                    .collect();
                let batch_refs: Vec<&WindowBatch> = batches.iter().collect();
                let cohort = CohortBatch::from_batches(&batch_refs);

                let tape = Tape::new();
                let group: Vec<&M> = models[..groups].iter().collect();
                let bindings: Vec<Binding> = group.iter().map(|m| m.params().bind(&tape)).collect();
                let binding_refs: Vec<&Binding> = bindings.iter().collect();
                let mut rngs: Vec<Rng64> = (0..groups)
                    .map(|b| Rng64::seed_from(70 + b as u64))
                    .collect();
                let mut ctx = CohortCtx {
                    training,
                    rngs: &mut rngs,
                };
                let out = M::predict_cohort(&group, &tape, &binding_refs, &cohort, &mut ctx);
                let out_value = tape.value(out);
                assert_eq!(out_value.dims(), &[wins[..groups].iter().sum(), v]);

                for (b, model) in group.iter().enumerate() {
                    let reference = Tape::new();
                    let binding = model.params().bind(&reference);
                    let mut rng = Rng64::seed_from(70 + b as u64);
                    let mut rctx = if training {
                        ForwardCtx::train(&mut rng)
                    } else {
                        ForwardCtx::eval(&mut rng)
                    };
                    let off = cohort.offset(b);
                    for (w, window) in windows[b].iter().enumerate() {
                        let pred = model.predict_window(&reference, &binding, window, &mut rctx);
                        assert_eq!(
                            &out_value.data()[(off + w) * v..(off + w + 1) * v],
                            reference.value(pred).data(),
                            "B = {groups}: individual {b} window {w} (training = {training})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cohort_batch_stacks_individual_major() {
        let (w0, w1) = (windows(3, 2, 4, 1), windows(5, 2, 4, 2));
        let b0 = WindowBatch::from_windows(&w0);
        let b1 = WindowBatch::from_windows(&w1);
        let cohort = CohortBatch::from_batches(&[&b0, &b1]);
        assert_eq!(cohort.num_groups(), 2);
        assert_eq!(cohort.group_wins(), &[3, 5]);
        assert_eq!(cohort.offset(0), 0);
        assert_eq!(cohort.offset(1), 3);
        for (b, wins) in [&w0, &w1].into_iter().enumerate() {
            let batch = cohort.member(b);
            assert_eq!(batch.wins(), wins.len());
            for t in 0..2 {
                let step = batch.step(t);
                assert_eq!(step.dims(), &[wins.len(), 4]);
                for (w, win) in wins.iter().enumerate() {
                    assert_eq!(
                        &step.data()[w * 4..(w + 1) * 4],
                        win.row(t).data(),
                        "individual {b} step {t} window {w}"
                    );
                }
            }
            for (w, win) in wins.iter().enumerate() {
                let rows = batch.stacked().slice_rows(w * 2, (w + 1) * 2);
                assert_eq!(rows.data(), win.data(), "individual {b} window {w}");
                let rows = batch.stacked_transposed().slice_rows(w * 4, (w + 1) * 4);
                assert_eq!(rows.data(), win.transpose().data(), "window {w} transposed");
            }
        }
    }

    #[test]
    #[should_panic(expected = "seq_len mismatch")]
    fn cohort_batch_rejects_mixed_seq_len() {
        let b0 = window_batch(2, 2, 3, 1);
        let b1 = window_batch(2, 3, 3, 2);
        let _ = CohortBatch::from_batches(&[&b0, &b1]);
    }

    #[test]
    fn lstm_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4, 2]);
        let models: Vec<LstmForecaster> = (0..wins.len())
            .map(|b| LstmForecaster::new(v, &ModelConfig::tiny(100 + b as u64)))
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn var_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4, 2]);
        let models: Vec<VarForecaster> = (0..wins.len())
            .map(|b| VarForecaster::new(v, seq, &ModelConfig::tiny(100 + b as u64)))
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn a3tgcn_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4, 2]);
        let models: Vec<A3tgcn> = (0..wins.len())
            .map(|b| {
                A3tgcn::with_options(
                    v,
                    &graph_for(b, v),
                    &ModelConfig::tiny(100 + b as u64),
                    true,
                )
            })
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn a3tgcn_cohort_without_attention_matches_per_individual() {
        let (v, seq, wins) = (3, 2, [2usize, 3, 1, 2]);
        let models: Vec<A3tgcn> = (0..wins.len())
            .map(|b| {
                A3tgcn::with_options(
                    v,
                    &graph_for(b, v),
                    &ModelConfig::tiny(200 + b as u64),
                    false,
                )
            })
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn astgcn_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4, 2]);
        let models: Vec<Astgcn> = (0..wins.len())
            .map(|b| {
                Astgcn::with_options(
                    v,
                    seq,
                    &graph_for(b, v),
                    &ModelConfig::tiny(100 + b as u64),
                    true,
                )
            })
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn mtgnn_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4, 2]);
        let models: Vec<Mtgnn> = (0..wins.len())
            .map(|b| {
                Mtgnn::new(
                    v,
                    seq,
                    Some(&graph_for(b, v)),
                    &ModelConfig::tiny(100 + b as u64),
                )
            })
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }
}

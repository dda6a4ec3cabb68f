//! Cohort batching: one tape graph per B individuals — the forward
//! every model trains and evaluates on. Training and evaluation run it
//! one individual at a time (B = 1); every B gives the same bits per
//! individual.
//!
//! A [`CohortBatch`] row-stacks B individuals' [`WindowBatch`]es into
//! one operand set, **individual-major then window-major**: step `t` is
//! the `[Σ_b W_b, V]` concatenation of each individual's `[W_b, V]`
//! step rows. Models implementing [`CohortForecaster`] run the whole
//! group through one forward graph using grouped-operand tape ops
//! (`Tape::group_linear`), with each individual keeping its own
//! parameters; the output row for window `w` of individual `b` is
//! bit-identical to [`Forecaster::predict_window`] on that window
//! alone, in values and in every parameter gradient.
//!
//! **RNG contract:** randomness (dropout masks) is consumed
//! individual-major — group `b` draws from its own stream in
//! [`CohortCtx::rngs`], window-major within the individual: window
//! outer, then the exact per-window draw sequence. Batching windows or
//! individuals never changes numbers.

use crate::config::DROPOUT;
use crate::Forecaster;
use ema_autodiff::{Tape, Var};
use ema_nn::Binding;
use ema_tensor::{Rng64, Tensor};

/// All of one individual's `[s, V]` windows row-stacked into
/// `[W·s, V]` (window `w` at row block `w`) — the unit a
/// [`CohortBatch`] stacks individuals from.
#[derive(Debug, Clone)]
pub struct WindowBatch {
    wins: usize,
    seq_len: usize,
    num_vars: usize,
    stacked: Tensor,
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
        let mut stacked = Vec::with_capacity(wins * seq_len * num_vars);
        for (w, win) in windows.iter().enumerate() {
            assert_eq!(win.dims(), dims, "window {w} shape mismatch");
            stacked.extend_from_slice(win.data());
        }
        Self {
            wins,
            seq_len,
            num_vars,
            stacked: Tensor::from_vec(&[wins * seq_len, num_vars], stacked).expect("stacked shape"),
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

    /// The `[W·s, V]` row stack of all windows.
    #[must_use]
    pub fn stacked(&self) -> &Tensor {
        &self.stacked
    }
}

/// B individuals' window batches row-stacked into one operand set.
///
/// The stacking is an input layout only and carries no state; training
/// and evaluation build one per member (B = 1).
#[derive(Debug, Clone)]
pub struct CohortBatch {
    group_wins: Vec<usize>,
    offsets: Vec<usize>,
    seq_len: usize,
    num_vars: usize,
    /// `steps[t]` is `[Σ_b W_b, V]`: row `w` is cohort window `w`'s
    /// step `t` (the row-block leaves the recurrent models feed).
    steps: Vec<Tensor>,
    /// `[Σ_b W_b·s, V]`: individual-major concatenation of each batch's
    /// window-stacked rows (`WindowBatch::stacked`).
    stacked: Tensor,
    /// `[Σ_b W_b·V, s]`: every window transposed (variables over
    /// time), for models that consume `[V, s]` windows.
    stacked_transposed: Tensor,
}

impl CohortBatch {
    /// Stacks the given window batches. All batches must agree on
    /// `seq_len` and `num_vars` and be non-empty.
    ///
    /// # Panics
    /// Panics on an empty cohort, an empty member batch, or
    /// mismatched window geometry.
    #[must_use]
    pub fn from_batches(batches: &[&WindowBatch]) -> Self {
        assert!(
            !batches.is_empty(),
            "cohort batch needs at least one individual"
        );
        let seq_len = batches[0].seq_len();
        let num_vars = batches[0].num_vars();
        let mut group_wins = Vec::with_capacity(batches.len());
        let mut offsets = Vec::with_capacity(batches.len() + 1);
        let mut total = 0usize;
        for (b, batch) in batches.iter().enumerate() {
            assert_eq!(batch.seq_len(), seq_len, "individual {b} seq_len mismatch");
            assert_eq!(
                batch.num_vars(),
                num_vars,
                "individual {b} num_vars mismatch"
            );
            assert!(batch.wins() > 0, "individual {b} has zero windows");
            offsets.push(total);
            group_wins.push(batch.wins());
            total += batch.wins();
        }
        offsets.push(total);
        // Individual-major window rows: cohort window `w` is the `[s, V]`
        // row block `w`.
        let mut stacked = Vec::with_capacity(total * seq_len * num_vars);
        for batch in batches {
            stacked.extend_from_slice(batch.stacked().data());
        }
        let block = seq_len * num_vars;
        let windows = || stacked.chunks_exact(block);
        let steps = (0..seq_len)
            .map(|t| {
                let mut rows = Vec::with_capacity(total * num_vars);
                for win in windows() {
                    rows.extend_from_slice(&win[t * num_vars..(t + 1) * num_vars]);
                }
                Tensor::from_vec(&[total, num_vars], rows).expect("cohort step shape")
            })
            .collect();
        let mut stacked_t = Vec::with_capacity(total * num_vars * seq_len);
        for win in windows() {
            for j in 0..num_vars {
                stacked_t.extend((0..seq_len).map(|t| win[t * num_vars + j]));
            }
        }
        let stacked =
            Tensor::from_vec(&[total * seq_len, num_vars], stacked).expect("cohort stacked shape");
        let stacked_transposed = Tensor::from_vec(&[total * num_vars, seq_len], stacked_t)
            .expect("cohort stacked_transposed shape");
        Self {
            group_wins,
            offsets,
            seq_len,
            num_vars,
            steps,
            stacked,
            stacked_transposed,
        }
    }

    /// Number of individuals in the stack.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.group_wins.len()
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

    /// Total stacked rows (`Σ_b W_b`).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// Window length shared by every individual.
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Variable count shared by every individual.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Step `t` across the whole cohort: `[Σ_b W_b, V]`.
    #[must_use]
    pub fn step(&self, t: usize) -> &Tensor {
        &self.steps[t]
    }

    /// The whole cohort's window rows: `[Σ_b W_b·s, V]`,
    /// individual-major concatenation of each `WindowBatch::stacked`.
    #[must_use]
    pub fn stacked(&self) -> &Tensor {
        &self.stacked
    }

    /// Transposed window blocks: `[Σ_b W_b·V, s]`, window `w` as its
    /// `[V, s]` transpose at row block `w`.
    #[must_use]
    pub fn stacked_transposed(&self) -> &Tensor {
        &self.stacked_transposed
    }
}

/// Per-forward cohort context: training flag plus one RNG stream per
/// individual (stack order). Each individual's stream is consumed
/// exactly as its standalone forward would consume its own RNG.
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

/// Models that run a whole cohort through one tape graph — the
/// training and evaluation forward.
pub trait CohortForecaster: Forecaster {
    /// Forwards every individual's window batch at once, returning
    /// `[Σ_b W_b, V]`: row `offset(b) + w` is bit-identical to
    /// `group[b].predict_window` on window `w` of individual `b`, run
    /// window after window on its own tape with its own RNG stream —
    /// values, every parameter gradient and the RNG draws (see the
    /// module docs). `crates/models/tests/batched_equivalence.rs`
    /// enforces this for every model.
    fn predict_cohort(
        group: &[&Self],
        tape: &Tape,
        bindings: &[&Binding],
        batch: &CohortBatch,
        ctx: &mut CohortCtx,
    ) -> Var
    where
        Self: Sized;
}

/// Each member's `f(model, binding)`, in stack order — the per-group
/// operands of a grouped op or layer, without collecting them.
pub(crate) fn each_member<'a, M, T>(
    group: &'a [&'a M],
    bindings: &'a [&'a Binding],
    f: impl Fn(&'a M, &'a Binding) -> T + Clone + 'a,
) -> impl Iterator<Item = T> + Clone + 'a {
    group.iter().zip(bindings).map(move |(m, bind)| f(m, bind))
}

/// Grouped dropout at the paper's rate over a cohort row stack,
/// bit-identical per window to `Tape::dropout` on that window alone.
/// Group `b` spans `group_wins[b]` window blocks of `block_rows` rows.
///
/// - not training → identity (no tape node, no draws), matching
///   `Tape::dropout`'s pass-through;
/// - otherwise one `[Σ rows, cols]` mask is built individual-major:
///   group `b` draws its `W_b · block_rows · cols` Bernoullis row-major
///   from **its own** stream — window-major, the exact per-window draw
///   sequence.
///
/// # Panics
/// Panics when the group counts disagree.
pub(crate) fn cohort_dropout(
    tape: &Tape,
    a: Var,
    group_wins: &[usize],
    block_rows: usize,
    ctx: &mut CohortCtx,
) -> Var {
    assert_eq!(group_wins.len(), ctx.rngs.len(), "one RNG stream per group");
    if !ctx.training {
        return a;
    }
    let cols = tape.dims(a)[1];
    let total: usize = group_wins.iter().sum::<usize>() * block_rows;
    let keep = 1.0 - DROPOUT;
    let mut mask = Tensor::zeros(&[total, cols]);
    let data = mask.data_mut();
    let mut off = 0usize;
    for (&wins, rng) in group_wins.iter().zip(ctx.rngs.iter_mut()) {
        let rows = wins * block_rows;
        for v in &mut data[off * cols..(off + rows) * cols] {
            if rng.bernoulli(keep) {
                *v = 1.0 / keep;
            }
        }
        off += rows;
    }
    tape.dropout_masked(a, mask)
}

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

    /// A different graph per individual so grouped constants are
    /// genuinely per-group: ring, complete, or path, by index.
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

    /// Asserts the cohort forward matches each individual's windows run
    /// one at a time through `predict_window` bit for bit — training
    /// mode (dropout active, per-individual streams) and eval mode.
    fn assert_cohort_matches_oracle<M: CohortForecaster>(
        models: &[M],
        wins: &[usize],
        seq: usize,
        v: usize,
    ) {
        for training in [true, false] {
            let windows: Vec<Vec<Tensor>> = wins
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
            let bindings: Vec<Binding> = models.iter().map(|m| m.params().bind(&tape)).collect();
            let binding_refs: Vec<&Binding> = bindings.iter().collect();
            let group: Vec<&M> = models.iter().collect();
            let mut rngs: Vec<Rng64> = (0..wins.len())
                .map(|b| Rng64::seed_from(70 + b as u64))
                .collect();
            let mut ctx = CohortCtx {
                training,
                rngs: &mut rngs,
            };
            let out = M::predict_cohort(&group, &tape, &binding_refs, &cohort, &mut ctx);
            let out_value = tape.value(out);

            for (b, model) in models.iter().enumerate() {
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
                        "individual {b} window {w} (training = {training})"
                    );
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
        assert_eq!(cohort.total_rows(), 8);
        assert_eq!(cohort.offset(0), 0);
        assert_eq!(cohort.offset(1), 3);
        let all: Vec<&Tensor> = w0.iter().chain(&w1).collect();
        for t in 0..2 {
            let step = cohort.step(t);
            assert_eq!(step.dims(), &[8, 4]);
            for (w, win) in all.iter().enumerate() {
                assert_eq!(
                    &step.data()[w * 4..(w + 1) * 4],
                    win.row(t).data(),
                    "step {t} window {w}"
                );
            }
        }
        for (w, win) in all.iter().enumerate() {
            let rows = cohort.stacked_transposed().slice_rows(w * 4, (w + 1) * 4);
            assert_eq!(rows.data(), win.transpose().data(), "window {w} transposed");
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
        let (v, seq, wins) = (4, 3, [3usize, 1, 4]);
        let models: Vec<LstmForecaster> = (0..wins.len())
            .map(|b| LstmForecaster::new(v, &ModelConfig::tiny(100 + b as u64)))
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn var_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4]);
        let models: Vec<VarForecaster> = (0..wins.len())
            .map(|b| VarForecaster::new(v, seq, &ModelConfig::tiny(100 + b as u64)))
            .collect();
        assert_cohort_matches_oracle(&models, &wins, seq, v);
    }

    #[test]
    fn a3tgcn_cohort_forward_matches_per_individual() {
        let (v, seq, wins) = (4, 3, [3usize, 1, 4]);
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
        let (v, seq, wins) = (3, 2, [2usize, 3]);
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
        let (v, seq, wins) = (4, 3, [3usize, 1, 4]);
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
        let (v, seq, wins) = (4, 3, [3usize, 1, 4]);
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

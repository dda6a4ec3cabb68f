//! The common forecasting interface and the model factory.

use crate::{A3tgcn, Astgcn, LstmForecaster, ModelConfig, Mtgnn, VarForecaster};
use ema_autodiff::{Tape, Var};
use ema_graph::AdjacencyMatrix;
use ema_nn::{Binding, ParamStore};
use ema_tensor::{Rng64, Tensor};

/// Per-forward-pass context: dropout randomness and the train/eval flag.
pub struct ForwardCtx<'a> {
    /// True during training (enables dropout).
    pub training: bool,
    /// Randomness source for dropout masks.
    pub rng: &'a mut Rng64,
    /// Per-epoch memo for subgraphs that depend only on parameters or
    /// constants (see [`ForwardCtx::memo`]).
    memo_vars: Vec<(&'static str, Var)>,
}

impl<'a> ForwardCtx<'a> {
    /// A training-mode context.
    pub fn train(rng: &'a mut Rng64) -> Self {
        Self {
            training: true,
            rng,
            memo_vars: Vec::new(),
        }
    }

    /// An evaluation-mode context (dropout disabled).
    pub fn eval(rng: &'a mut Rng64) -> Self {
        Self {
            training: false,
            rng,
            memo_vars: Vec::new(),
        }
    }

    /// Builds a tape var once per context and reuses it on every later
    /// window: full-batch training forwards dozens of windows per
    /// epoch, and subgraphs that depend only on parameters or
    /// constants (MTGNN's learned adjacency, A3TGCN's propagation
    /// matrix, initial zero states) are identical for all of them.
    /// Sharing the subgraph also accumulates its parameter gradients
    /// once instead of once per window.
    ///
    /// A context is scoped to a single tape epoch (every construction
    /// site builds `Tape`/binding and `ForwardCtx` together); a memoed
    /// var must never be used on another tape or after `Tape::reset`.
    /// Only memoize RNG-free subgraphs — anything touching dropout
    /// would change the draw sequence between first and later windows.
    pub fn memo(&mut self, key: &'static str, build: impl FnOnce() -> Var) -> Var {
        if let Some(&(_, var)) = self.memo_vars.iter().find(|(k, _)| *k == key) {
            return var;
        }
        let var = build();
        self.memo_vars.push((key, var));
        var
    }
}

/// All of a split's windows stacked along the row axis for the batched
/// forward path ([`Forecaster::predict_batch`]).
///
/// Three layouts of the same data, each precomputed once per training
/// run:
///
/// * `stacked` — `[W·s, V]`: window `w`'s `[s, V]` rows at row block
///   `w` (the `[W, s, V]` stack flattened);
/// * `stacked_transposed` — `[W·V, s]`: each window transposed
///   (variables over time), for models that consume `[V, s]` windows;
/// * `steps` — per time step `t`, a `[W, V]` matrix whose row `w` is
///   window `w`'s step `t` (the row-block leaves the recurrent models
///   feed).
#[derive(Debug, Clone)]
pub struct WindowBatch {
    wins: usize,
    seq_len: usize,
    num_vars: usize,
    stacked: Tensor,
    stacked_transposed: Tensor,
    steps: Vec<Tensor>,
}

impl WindowBatch {
    /// Stacks `[s, V]` windows into the batched layouts.
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
        let mut transposed = Vec::with_capacity(wins * seq_len * num_vars);
        for (w, win) in windows.iter().enumerate() {
            assert_eq!(win.dims(), dims, "window {w} shape mismatch");
            stacked.extend_from_slice(win.data());
            transposed.extend_from_slice(win.transpose().data());
        }
        let steps = (0..seq_len)
            .map(|t| {
                let mut rows = Vec::with_capacity(wins * num_vars);
                for win in windows {
                    rows.extend_from_slice(win.row(t).data());
                }
                Tensor::from_vec(&[wins, num_vars], rows).expect("step shape")
            })
            .collect();
        Self {
            wins,
            seq_len,
            num_vars,
            stacked: Tensor::from_vec(&[wins * seq_len, num_vars], stacked)
                .expect("stacked shape"),
            stacked_transposed: Tensor::from_vec(&[wins * num_vars, seq_len], transposed)
                .expect("transposed shape"),
            steps,
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

    /// The `[W·V, s]` stack of transposed windows.
    #[must_use]
    pub fn stacked_transposed(&self) -> &Tensor {
        &self.stacked_transposed
    }

    /// Step `t` across all windows, `[W, V]`.
    #[must_use]
    pub fn step(&self, t: usize) -> &Tensor {
        &self.steps[t]
    }

    /// Window `w` as a `[s, V]` tensor (bytes identical to the window
    /// the batch was built from).
    #[must_use]
    pub fn window(&self, w: usize) -> Tensor {
        self.stacked
            .slice_rows(w * self.seq_len, (w + 1) * self.seq_len)
    }
}

/// A personalized 1-lag forecaster over `V` EMA variables.
///
/// Implementations register their parameters in an internal
/// [`ParamStore`]; the training loop binds the store onto a fresh tape
/// each epoch and calls [`Forecaster::predict_batch`] once per epoch
/// while one individual trains ([`crate::CohortForecaster`] covers
/// groups). [`Forecaster::predict_window`] is the per-window reference
/// the equivalence tests compare against, and the forward of
/// iterative forecasting.
pub trait Forecaster {
    /// Human-readable model name (paper notation, e.g. `"MTGNN"`).
    fn name(&self) -> &'static str;

    /// The model's parameters.
    fn params(&self) -> &ParamStore;

    /// Mutable access for the optimizer.
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Number of variables `V` the model forecasts.
    fn num_variables(&self) -> usize;

    /// Predicts the next `[V]` values from a `[seq_len, V]` window.
    fn predict_window(
        &self,
        tape: &Tape,
        binding: &Binding,
        window: &Tensor,
        ctx: &mut ForwardCtx,
    ) -> Var;

    /// Predicts all of a batch's windows at once, returning a `[W, V]`
    /// matrix whose row `w` is the prediction for window `w`.
    ///
    /// The default implementation loops [`Forecaster::predict_window`]
    /// and stacks the rank-1 predictions — the reference (oracle)
    /// graph. The four paper models override it with a batched graph
    /// recording one tape node per op instead of one per window per
    /// op; overrides must stay **bit-identical** to this default in
    /// values, parameter gradients, and RNG draw order (dropout masks
    /// are drawn window-major).
    fn predict_batch(
        &self,
        tape: &Tape,
        binding: &Binding,
        batch: &WindowBatch,
        ctx: &mut ForwardCtx,
    ) -> Var {
        let preds: Vec<Var> = (0..batch.wins())
            .map(|w| self.predict_window(tape, binding, &batch.window(w), ctx))
            .collect();
        tape.stack_rows(&preds)
    }

    /// Downcast hook for graph extraction: MTGNN returns itself so
    /// callers can read its learned graph; every other model returns
    /// `None`.
    fn as_any_mtgnn(&self) -> Option<&Mtgnn> {
        None
    }

    /// Convenience: evaluation-mode prediction as a plain tensor.
    fn predict(&self, window: &Tensor, rng: &mut Rng64) -> Tensor {
        let tape = Tape::new();
        let binding = self.params().bind(&tape);
        let mut ctx = ForwardCtx::eval(rng);
        let out = self.predict_window(&tape, &binding, window, &mut ctx);
        tape.value(out)
    }
}

/// The model families of Table I, plus the classic VAR baseline from
/// the paper's related-work discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Baseline LSTM (no graph).
    Lstm,
    /// Attention Temporal GCN.
    A3tgcn,
    /// Attention-based Spatial-Temporal GCN.
    Astgcn,
    /// Multivariate Time-series GNN with graph learning.
    Mtgnn,
    /// Linear vector autoregression (no graph; extra baseline).
    Var,
}

impl ModelKind {
    /// Paper notation.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Lstm => "LSTM",
            ModelKind::A3tgcn => "A3TGCN",
            ModelKind::Astgcn => "ASTGCN",
            ModelKind::Mtgnn => "MTGNN",
            ModelKind::Var => "VAR",
        }
    }

    /// True for models that consume a graph.
    #[must_use]
    pub fn uses_graph(self) -> bool {
        !matches!(self, ModelKind::Lstm | ModelKind::Var)
    }

    /// The three GNNs of Table I.
    #[must_use]
    pub fn gnns() -> [ModelKind; 3] {
        [ModelKind::A3tgcn, ModelKind::Astgcn, ModelKind::Mtgnn]
    }

    /// Every model the paper evaluates (LSTM baseline + the GNNs).
    #[must_use]
    pub fn all() -> [ModelKind; 4] {
        [
            ModelKind::Lstm,
            ModelKind::A3tgcn,
            ModelKind::Astgcn,
            ModelKind::Mtgnn,
        ]
    }

    /// [`ModelKind::all`] extended with the VAR baseline.
    #[must_use]
    pub fn extended() -> [ModelKind; 5] {
        [
            ModelKind::Lstm,
            ModelKind::A3tgcn,
            ModelKind::Astgcn,
            ModelKind::Mtgnn,
            ModelKind::Var,
        ]
    }
}

/// Builds a model of the given kind for `V` variables and a fixed
/// window length.
///
/// `graph` supplies the static adjacency for the GNNs (ignored by the
/// LSTM; optional for MTGNN, which learns its own and treats a provided
/// graph as the starting structure).
///
/// # Panics
/// Panics if a graph-dependent model is requested without a graph.
#[must_use]
pub fn build_model(
    kind: ModelKind,
    num_variables: usize,
    seq_len: usize,
    config: &ModelConfig,
    graph: Option<&AdjacencyMatrix>,
) -> Box<dyn Forecaster> {
    match kind {
        ModelKind::Lstm => Box::new(LstmForecaster::new(num_variables, config)),
        ModelKind::A3tgcn => {
            let g = graph.expect("A3TGCN requires a static graph");
            Box::new(A3tgcn::new(num_variables, g, config))
        }
        ModelKind::Astgcn => {
            let g = graph.expect("ASTGCN requires a static graph");
            Box::new(Astgcn::new(num_variables, seq_len, g, config))
        }
        ModelKind::Mtgnn => Box::new(Mtgnn::new(num_variables, seq_len, graph, config)),
        ModelKind::Var => Box::new(VarForecaster::new(num_variables, seq_len, config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_graph_usage() {
        assert_eq!(ModelKind::Lstm.label(), "LSTM");
        assert!(!ModelKind::Lstm.uses_graph());
        assert!(ModelKind::Mtgnn.uses_graph());
        assert_eq!(ModelKind::all().len(), 4);
        assert_eq!(ModelKind::gnns().len(), 3);
    }

    #[test]
    fn factory_builds_every_kind() {
        let g = AdjacencyMatrix::complete(5);
        let cfg = ModelConfig::tiny(0);
        for kind in ModelKind::all() {
            let graph = if kind.uses_graph() { Some(&g) } else { None };
            let m = build_model(kind, 5, 3, &cfg, graph);
            assert_eq!(m.num_variables(), 5);
            assert_eq!(m.name(), kind.label());
            assert!(!m.params().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "requires a static graph")]
    fn factory_rejects_graphless_gnn() {
        let _ = build_model(ModelKind::Astgcn, 5, 3, &ModelConfig::tiny(0), None);
    }
}

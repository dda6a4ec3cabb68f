//! The common forecasting interface and the model kinds.

use crate::{Mtgnn, WindowBatch};
use ema_autodiff::{Tape, Var};
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
    /// window: a per-window graph over an epoch's windows forwards
    /// dozens of them on one tape, and subgraphs that depend only on
    /// parameters or constants (MTGNN's learned adjacency, A3TGCN's
    /// propagation matrix, initial zero states) are identical for all
    /// of them. Sharing the subgraph also accumulates its parameter
    /// gradients once instead of once per window, as the member
    /// forward's one-per-batch subgraph does.
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

/// A personalized 1-lag forecaster over `V` EMA variables.
///
/// Implementations register their parameters in an internal
/// [`ParamStore`]; the training loop binds the store onto its tape each
/// epoch and forwards all of one individual's windows through
/// [`Forecaster::predict_windows`], the one training and evaluation
/// forward. [`Forecaster::predict_window`] is the per-window reference
/// the equivalence tests compare against.
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

    /// Predicts the next `[V]` values of every window of `batch` at
    /// once, returning `[W, V]` (row `w` for window `w`) — the training
    /// and evaluation forward. Row `w` is bit-identical to
    /// [`Forecaster::predict_window`] on window `w`, run window after
    /// window on one tape with the same RNG: in values, in every
    /// parameter gradient and in the RNG draws, which are window-major
    /// (window outer, then the exact per-window draw sequence).
    /// `crates/models/tests/batched_equivalence.rs` enforces this for
    /// every model.
    fn predict_windows(
        &self,
        tape: &Tape,
        binding: &Binding,
        batch: &WindowBatch,
        ctx: &mut ForwardCtx,
    ) -> Var;

    /// Downcast hook for graph extraction: MTGNN returns itself so
    /// callers can read its learned graph; every other model returns
    /// `None`.
    fn as_any_mtgnn(&self) -> Option<&Mtgnn> {
        None
    }
}

/// Evaluation-mode prediction of one `[seq_len, V]` window as a plain
/// tensor, on a fresh tape: the model unit tests' shorthand.
#[cfg(test)]
pub(crate) fn predict(model: &impl Forecaster, window: &Tensor, rng: &mut Rng64) -> Tensor {
    let tape = Tape::new();
    let binding = model.params().bind(&tape);
    let out = model.predict_window(&tape, &binding, window, &mut ForwardCtx::eval(rng));
    tape.value(out)
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
    fn every_model_is_named_by_its_kind_label() {
        use crate::{A3tgcn, Astgcn, LstmForecaster, ModelConfig, VarForecaster};
        let g = ema_graph::AdjacencyMatrix::complete(5);
        let cfg = ModelConfig::tiny(0);
        let models: [(ModelKind, Box<dyn Forecaster>); 5] = [
            (ModelKind::Lstm, Box::new(LstmForecaster::new(5, &cfg))),
            (ModelKind::A3tgcn, Box::new(A3tgcn::new(5, &g, &cfg))),
            (ModelKind::Astgcn, Box::new(Astgcn::new(5, 3, &g, &cfg))),
            (ModelKind::Mtgnn, Box::new(Mtgnn::new(5, 3, Some(&g), &cfg))),
            (ModelKind::Var, Box::new(VarForecaster::new(5, 3, &cfg))),
        ];
        for (kind, m) in &models {
            assert_eq!(m.name(), kind.label());
            assert_eq!(m.num_variables(), 5);
            assert!(!m.params().is_empty());
        }
    }
}

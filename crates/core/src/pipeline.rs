//! The personalized per-individual pipeline: one runner body that runs
//! a shard of individuals one after another, each end to end (prepare →
//! build → train → evaluate), and the parallel cohort runner (scheduled
//! by the [`crate::exec`] cohort execution engine) that runs it with
//! one individual per job.

use crate::cluster::{ClusterPlan, TrainStrategy};
use crate::evaluate::score;
use crate::exec::{expect_all, Executor, Job};
use crate::train::{predict_member, train_member, TrainConfig, TrainReport};
use ema_autodiff::{Grads, Tape};
use ema_data::{make_test_windows, make_windows, split_train_test, EmaDataset, WindowedData};
use ema_graph::sparsify::{sparsify, DensityThreshold};
use ema_graph::AdjacencyMatrix;
use ema_models::{
    A3tgcn, Astgcn, Forecaster, GraphLearnerKind, LstmForecaster, ModelConfig, ModelKind, Mtgnn,
    VarForecaster,
};
use ema_obs::metrics::EPOCH_BUCKETS;
use ema_obs::span;
use ema_similarity::{build_graph, GraphMetric};
use ema_tensor::Tensor;

/// Where a model's graph comes from.
#[derive(Debug, Clone)]
pub enum GraphSpec {
    /// No graph (the LSTM baseline).
    None,
    /// Similarity graph built per individual from the *training* data,
    /// sparsified to the given GDT.
    Static {
        /// Distance/similarity metric.
        metric: GraphMetric,
        /// Graph density threshold.
        gdt: DensityThreshold,
    },
    /// An externally supplied graph (e.g. an MTGNN-learned graph being
    /// fed to another model, Experiment C).
    Provided(AdjacencyMatrix),
}

impl GraphSpec {
    /// Short label for telemetry (obs span fields).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            GraphSpec::None => "none".to_string(),
            GraphSpec::Static { metric, gdt } => {
                format!("{}@{}", metric.label(), gdt.label())
            }
            GraphSpec::Provided(_) => "provided".to_string(),
        }
    }
}

/// Everything needed to run one model condition on one individual.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which model to train.
    pub model: ModelKind,
    /// Graph source.
    pub graph: GraphSpec,
    /// Input window length (paper: 1, 2 or 5).
    pub seq_len: usize,
    /// Train/test split fraction (paper: 0.7).
    pub train_fraction: f64,
    /// Model hyper-parameters.
    pub model_config: ModelConfig,
    /// Training hyper-parameters.
    pub train_config: TrainConfig,
    /// For MTGNN: whether the graph-learning module is active
    /// (disabled = ablation).
    pub learn_graph: bool,
    /// For MTGNN: which graph-learner parameterisation to use.
    pub graph_learner: GraphLearnerKind,
    /// For A3TGCN: whether temporal attention is active (disabled =
    /// plain-TGCN ablation).
    pub use_attention: bool,
    /// For ASTGCN: whether spatial attention masks the Chebyshev stack
    /// (disabled = plain-ChebNet ablation).
    pub use_spatial_attention: bool,
    /// How sharded cohort runs train each individual: from scratch
    /// (idiographic) or warm-started from K-medoids cluster
    /// checkpoints ([`crate::cluster`]). Only
    /// [`crate::cohort::run_cohort_sharded`] applies the strategy;
    /// [`run_individual`] and [`run_cohort_with`] always train
    /// idiographically.
    pub train_strategy: TrainStrategy,
}

impl RunSpec {
    /// A spec with the paper's defaults for the given model and graph.
    #[must_use]
    pub fn new(model: ModelKind, graph: GraphSpec, seq_len: usize) -> Self {
        Self {
            model,
            graph,
            seq_len,
            train_fraction: 0.7,
            model_config: ModelConfig::default(),
            train_config: TrainConfig::default(),
            learn_graph: true,
            graph_learner: GraphLearnerKind::Embedding,
            use_attention: true,
            use_spatial_attention: true,
            train_strategy: TrainStrategy::default(),
        }
    }
}

/// The result of one (individual, condition) run.
#[derive(Debug, Clone)]
pub struct IndividualOutcome {
    /// Individual id.
    pub id: usize,
    /// Test MSE (Eq. (1) for this individual).
    pub mse: f64,
    /// Per-variable test MSEs.
    pub per_variable_mse: Vec<f64>,
    /// Final training loss.
    pub final_train_loss: f64,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// The static graph used (when any), after sparsification.
    pub graph_used: Option<AdjacencyMatrix>,
    /// MTGNN's learned graph after training, when applicable.
    pub learned_graph: Option<AdjacencyMatrix>,
}

/// Builds the sparsified similarity graph for one individual from the
/// training portion of its data.
#[must_use]
pub fn graph_for_individual(
    train_data: &Tensor,
    metric: GraphMetric,
    gdt: DensityThreshold,
) -> AdjacencyMatrix {
    sparsify(&build_graph(train_data, metric), gdt)
}

/// One shard member after training: its model, training report, test
/// windows and graph.
pub(crate) struct TrainedMember {
    pub(crate) model: Box<dyn Forecaster>,
    report: TrainReport,
    test: WindowedData,
    graph: Option<AdjacencyMatrix>,
}

/// Prepares, builds and trains one shard member on the shard's tape and
/// gradient workspace: split → graph (training split only) → windows →
/// config with the member's own dropout stream (with a cluster `plan`,
/// fine-tuning from its nearest cluster's checkpoint) → model →
/// training. `b` is the member's position in its shard. Spans:
/// `individual` (with `build_graph` inside), then `train`.
///
/// # Panics
/// Panics on a series too short for the window length or an
/// inconsistent spec (graph-free A3TGCN/ASTGCN).
pub(crate) fn train_shard_member(
    b: usize,
    id: usize,
    data: &Tensor,
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
    tape: &mut Tape,
    grads: &mut Grads,
) -> TrainedMember {
    let (train, test, graph, config) = {
        let _individual_span = span!(
            "individual",
            individual = id,
            model = spec.model.label(),
            graph = spec.graph.label(),
            seq_len = spec.seq_len
        );
        let (train_split, test_split) = split_train_test(data, spec.train_fraction);
        // Graph built from training data only — no test leakage.
        // Recorded in the outcome even for models that ignore it.
        let graph = match &spec.graph {
            GraphSpec::None => None,
            GraphSpec::Static { metric, gdt } => {
                let _graph_span = span!(
                    "build_graph",
                    individual = id,
                    metric = metric.label(),
                    gdt = gdt.label()
                );
                Some(graph_for_individual(&train_split, *metric, *gdt))
            }
            GraphSpec::Provided(g) => Some(g.clone()),
        };
        let train = make_windows(&train_split, spec.seq_len);
        let test = make_test_windows(&train_split, &test_split, spec.seq_len);
        // Per-individual dropout stream: derived from (run seed, id) up
        // front — never from draw order — so results are identical at
        // any thread count and shard size (see the seeding scheme in
        // ema_tensor::random).
        let mut config = spec.train_config.clone();
        config.seed = ema_tensor::derive_stream_seed(spec.train_config.seed, id as u64);
        if let Some(plan) = plan {
            // Cluster warm start: nearest medoid by training-split
            // series distance, fine-tune schedule from the plan.
            config.epochs = plan.fine_tune_epochs;
            config.warm_start = Some(plan.checkpoint(plan.assign(&train_split)));
        }
        (train, test, graph, config)
    };
    let _train_span = span!("train", individual = id);
    let mut model = new_model(spec, data.dims()[1], graph.as_ref());
    let report = train_member(b, &mut *model, &train, &config, tape, grads);
    TrainedMember {
        model,
        report,
        test,
        graph,
    }
}

/// The one place a model kind becomes a model: `spec`'s model over `v`
/// variables and the member's graph.
fn new_model(spec: &RunSpec, v: usize, graph: Option<&AdjacencyMatrix>) -> Box<dyn Forecaster> {
    let cfg = &spec.model_config;
    match spec.model {
        ModelKind::Lstm => Box::new(LstmForecaster::new(v, cfg)),
        ModelKind::A3tgcn => {
            let graph = graph.expect("A3TGCN requires a graph");
            Box::new(A3tgcn::with_options(v, graph, cfg, spec.use_attention))
        }
        ModelKind::Astgcn => Box::new(Astgcn::with_options(
            v,
            spec.seq_len,
            graph.expect("ASTGCN requires a graph"),
            cfg,
            spec.use_spatial_attention,
        )),
        ModelKind::Mtgnn => Box::new(Mtgnn::with_learner(
            v,
            spec.seq_len,
            graph,
            cfg,
            spec.learn_graph,
            spec.graph_learner,
        )),
        ModelKind::Var => Box::new(VarForecaster::new(v, spec.seq_len, cfg)),
    }
}

/// The runner body: runs each `(id, data)` member end to end —
/// [`train_shard_member`], then one eval forward (`evaluate` span) and
/// its outcome — and drops it before the next member starts, so a
/// shard job holds one member's data, graph and model at a time. Every
/// member trains and evaluates on one tape and gradient workspace.
/// Outcomes come back in member order and are bit-identical whatever
/// the shard's size or composition.
///
/// # Panics
/// Panics on an empty shard, or on a member [`train_shard_member`]
/// rejects.
pub(crate) fn run_shard<'a>(
    members: impl IntoIterator<Item = (usize, &'a Tensor)>,
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
) -> Vec<IndividualOutcome> {
    // Pin the spec's kernel backend for the whole shard — graph build,
    // model construction and evaluation included, not just training.
    let _kernel = spec.train_config.kernel_backend.scoped();
    let (mut tape, mut grads) = (Tape::new(), Grads::empty());
    let outcomes: Vec<IndividualOutcome> = members
        .into_iter()
        .enumerate()
        .map(|(b, (id, data))| {
            let member = train_shard_member(b, id, data, spec, plan, &mut tape, &mut grads);
            let (mse, per_variable_mse) = {
                let _eval_span = span!("evaluate", individual = id);
                score(
                    &predict_member(&*member.model, &member.test, &mut tape),
                    &member.test,
                )
            };
            // Extract the learned graph from MTGNN for Experiment C.
            let learned_graph = (spec.model == ModelKind::Mtgnn && spec.learn_graph).then(|| {
                member
                    .model
                    .as_any_mtgnn()
                    .expect("MTGNN model exposes its learned graph")
                    .learned_graph()
            });
            if plan.is_some() {
                ema_obs::recorder().observe(
                    "cluster.fine_tune_epochs",
                    &EPOCH_BUCKETS,
                    member.report.epochs_run as f64,
                );
            }
            // Kernel work from graph build, training and evaluation lands
            // in the current phase before the job's span closes;
            // take-semantics keep this and the executor's job-level drain
            // from double counting.
            ema_obs::drain_kernel_counters();
            IndividualOutcome {
                id,
                mse,
                per_variable_mse,
                // 0.0 stands in for "no training loss" on a 0-epoch
                // warm-start restore run (nomothetic serving).
                final_train_loss: member.report.final_loss_or(0.0),
                epochs_run: member.report.epochs_run,
                graph_used: member.graph,
                learned_graph,
            }
        })
        .collect();
    assert!(!outcomes.is_empty(), "empty shard");
    outcomes
}

/// Runs the full pipeline for one individual: split → graph → windows →
/// train → evaluate (the runner body with a shard of one).
///
/// # Panics
/// Panics when the series is too short for the requested window length
/// or the spec is inconsistent (graph-free GNN).
#[must_use]
pub fn run_individual(id: usize, data: &Tensor, spec: &RunSpec) -> IndividualOutcome {
    run_shard([(id, data)], spec, None)
        .pop()
        .expect("one outcome per member")
}

/// Runs a condition across a whole cohort on `executor`. Results are
/// returned in individual order and are byte-identical at every
/// thread count.
///
/// Each individual becomes one [`Job`] — split → graph construction →
/// windows → train → evaluate, all hoisted into the job body — so the
/// executor is free to schedule the cohort however its backend likes.
///
/// # Panics
/// Propagates the first individual's panic (with its job label) after
/// the whole queue has drained.
#[must_use]
pub fn run_cohort_with(
    dataset: &EmaDataset,
    spec: &RunSpec,
    executor: &Executor,
) -> Vec<IndividualOutcome> {
    let _cohort_span = span!(
        "cohort",
        model = spec.model.label(),
        graph = spec.graph.label(),
        seq_len = spec.seq_len,
        individuals = dataset.individuals.len(),
        threads = executor.threads()
    );
    let jobs: Vec<Job<'_, IndividualOutcome>> = dataset
        .individuals
        .iter()
        .map(|ind| {
            Job::new(format!("individual_{}", ind.id), move || {
                run_individual(ind.id, &ind.data, spec)
            })
        })
        .collect();
    expect_all(executor.run(jobs), "cohort")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_data::{EmaGenerator, GeneratorConfig};

    fn quick_spec(model: ModelKind, graph: GraphSpec) -> RunSpec {
        RunSpec {
            model_config: ModelConfig::tiny(0),
            train_config: TrainConfig::quick(15, 3),
            ..RunSpec::new(model, graph, 2)
        }
    }

    fn dataset() -> EmaDataset {
        EmaGenerator::new(GeneratorConfig::quick(3, 6, 11)).generate()
    }

    #[test]
    fn lstm_individual_run() {
        let ds = dataset();
        let spec = quick_spec(ModelKind::Lstm, GraphSpec::None);
        let out = run_individual(0, &ds.individuals[0].data, &spec);
        assert!(out.mse.is_finite() && out.mse > 0.0);
        assert_eq!(out.per_variable_mse.len(), 6);
        assert!(out.graph_used.is_none());
        assert!(out.learned_graph.is_none());
    }

    #[test]
    fn gnn_individual_run_builds_graph() {
        let ds = dataset();
        let spec = quick_spec(
            ModelKind::A3tgcn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt40,
            },
        );
        let out = run_individual(0, &ds.individuals[0].data, &spec);
        let g = out.graph_used.unwrap();
        assert_eq!(g.num_nodes(), 6);
        // GDT 40% of 30 possible edges = 12.
        assert!(g.num_edges() <= 12);
    }

    #[test]
    fn mtgnn_run_exposes_learned_graph() {
        let ds = dataset();
        let spec = quick_spec(
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: GraphMetric::Euclidean,
                gdt: DensityThreshold::Gdt20,
            },
        );
        let out = run_individual(0, &ds.individuals[0].data, &spec);
        let learned = out.learned_graph.expect("MTGNN yields a learned graph");
        assert_eq!(learned.num_nodes(), 6);
        assert!(learned.num_edges() > 0);
    }

    #[test]
    fn cohort_runs_all_individuals_in_order() {
        let ds = dataset();
        let spec = quick_spec(ModelKind::Lstm, GraphSpec::None);
        let outcomes = run_cohort_with(&ds, &spec, &Executor::from_env());
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.id, ds.individuals[i].id);
            assert!(o.mse.is_finite());
        }
    }

    #[test]
    fn cohort_is_deterministic() {
        let ds = dataset();
        let spec = quick_spec(ModelKind::Lstm, GraphSpec::None);
        let mses = || -> Vec<f64> {
            run_cohort_with(&ds, &spec, &Executor::from_env())
                .iter()
                .map(|o| o.mse)
                .collect()
        };
        let (a, b) = (mses(), mses());
        assert_eq!(a, b);
    }

    #[test]
    fn cohort_results_identical_across_backends() {
        let ds = dataset();
        let spec = quick_spec(ModelKind::Lstm, GraphSpec::None);
        let mse = |executor: &Executor| -> Vec<f64> {
            run_cohort_with(&ds, &spec, executor)
                .iter()
                .map(|o| o.mse)
                .collect()
        };
        let sequential = mse(&Executor::sequential());
        assert_eq!(sequential, mse(&Executor::with_threads(2)));
        assert_eq!(sequential, mse(&Executor::with_threads(7)));
    }

    #[test]
    fn provided_graph_is_used_verbatim() {
        let ds = dataset();
        let g = AdjacencyMatrix::complete(6);
        let spec = quick_spec(ModelKind::A3tgcn, GraphSpec::Provided(g.clone()));
        let out = run_individual(0, &ds.individuals[0].data, &spec);
        assert_eq!(out.graph_used.unwrap().weights().data(), g.weights().data());
    }
}

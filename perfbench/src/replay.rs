//! The traced replay: one workload pass rebuilt from the public
//! functions of each crate, with a [`Trace`] span around every call
//! into a layer.
//!
//! The replay makes the same calls the pipeline makes for each
//! individual — split and windows, graph build and sparsification,
//! cluster assignment, model construction, one `train_cohort` per job
//! and a `predict_cohort` evaluation — and must reproduce the
//! pipeline's per-individual results bit for bit. It uses only entry
//! points that the single-forward-path design keeps: `predict_cohort`
//! and `train_cohort` (with B=1 for a per-individual job).
//!
//! The replay evaluates each individual with one forward pass; the
//! pipeline runs two (total and per-variable MSE), so `core.evaluate`
//! is a floor on the pipeline's evaluation time.

use crate::trace::{Tag, Trace, JOB};
use crate::workload::{Input, Instance};
use ema_autodiff::Tape;
use ema_core::exec::expect_all;
use ema_core::{
    plan_clusters, train_cohort, ClusterPlan, Executor, GraphSpec, IndividualOutcome, Job, RunSpec,
    TrainConfig, TrainStrategy,
};
use ema_data::{make_test_windows, make_windows, split_train_test, Individual, WindowedData};
use ema_graph::sparsify::sparsify;
use ema_graph::AdjacencyMatrix;
use ema_models::{
    CohortBatch, CohortCtx, CohortForecaster, LstmForecaster, ModelKind, Mtgnn, WindowBatch,
};
use ema_nn::Binding;
use ema_similarity::build_graph;
use ema_tensor::Rng64;

/// Study generation (`generate` / `generate_range`).
pub const GENERATE: &str = "data.generate";
/// Train/test split plus training and test windows.
pub const WINDOW: &str = "data.window";
/// Dense similarity graph from the training split.
pub const BUILD_GRAPH: &str = "similarity.build_graph";
/// GDT sparsification of the similarity graph.
pub const SPARSIFY: &str = "graph.sparsify";
/// Nearest-medoid assignment (`ClusterPlan::assign`).
pub const SERIES_DISTANCE: &str = "similarity.series_distance";
/// Model construction (parameter initialisation).
pub const CONSTRUCT: &str = "models.construct";
/// `train_cohort` over one job's group.
pub const TRAIN: &str = "core.train";
/// `predict_cohort` evaluation plus per-individual MSEs.
pub const EVALUATE: &str = "core.evaluate";
/// The serial cluster phase (`plan_clusters`).
pub const CLUSTER_PLAN: &str = "core.cluster.plan";

/// Every layer span the replay records, in pipeline order.
pub const LAYERS: [&str; 9] = [
    GENERATE,
    WINDOW,
    BUILD_GRAPH,
    SPARSIFY,
    SERIES_DISTANCE,
    CONSTRUCT,
    TRAIN,
    EVALUATE,
    CLUSTER_PLAN,
];

/// The per-individual results the replay must reproduce.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Individual id.
    pub id: usize,
    /// Test MSE (paper Eq. 1).
    pub mse: f64,
    /// Per-variable test MSEs.
    pub per_variable_mse: Vec<f64>,
    /// Final training loss (0 for a pure restore).
    pub final_train_loss: f64,
    /// Epochs trained.
    pub epochs_run: usize,
}

impl Outcome {
    /// The comparable part of a pipeline outcome.
    #[must_use]
    pub fn of(o: &IndividualOutcome) -> Self {
        Self {
            id: o.id,
            mse: o.mse,
            per_variable_mse: o.per_variable_mse.clone(),
            final_train_loss: o.final_train_loss,
            epochs_run: o.epochs_run,
        }
    }

    fn bits(&self) -> (usize, u64, Vec<u64>, u64, usize) {
        (
            self.id,
            self.mse.to_bits(),
            self.per_variable_mse.iter().map(|v| v.to_bits()).collect(),
            self.final_train_loss.to_bits(),
            self.epochs_run,
        )
    }
}

/// Checks two outcome lists agree bit for bit, naming the first
/// individual that differs.
///
/// # Errors
/// Returns a description of the first mismatch.
pub fn same_bits(want: &[Outcome], got: &[Outcome]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{} outcomes, expected {}", got.len(), want.len()));
    }
    match want.iter().zip(got).find(|(w, g)| w.bits() != g.bits()) {
        None => Ok(()),
        Some((w, g)) => Err(format!("individual {}: expected {w:?}, got {g:?}", w.id)),
    }
}

/// One job's individuals, ready to train: models, windows and configs
/// built exactly as the pipeline builds them.
pub struct Prepared<M> {
    /// What the job's spans are tagged with.
    pub tag: Tag,
    /// Individual ids, in group order.
    pub ids: Vec<usize>,
    /// One model per individual.
    pub models: Vec<M>,
    /// Training windows.
    pub train: Vec<WindowedData>,
    /// Test windows.
    pub test: Vec<WindowedData>,
    /// Per-individual training configs (derived seed, warm start).
    pub configs: Vec<TrainConfig>,
}

/// Work on one prepared group, generic over the model type.
pub trait GroupTask {
    /// What the task returns.
    type Output;
    /// Runs the task on a prepared group.
    fn run<M: CohortForecaster>(self, group: Prepared<M>, trace: &Trace) -> Self::Output;
}

/// Prepares `individuals` as one group under `spec` and hands it to
/// `task`, with the model type the spec names.
///
/// # Panics
/// Panics for a model no workload trains.
pub fn dispatch<T: GroupTask>(
    individuals: &[Individual],
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
    trace: &Trace,
    tag: Tag,
    task: T,
) -> T::Output {
    match spec.model {
        ModelKind::Mtgnn => {
            let build = |v, graph: Option<&AdjacencyMatrix>| {
                Mtgnn::with_learner(
                    v,
                    spec.seq_len,
                    graph,
                    &spec.model_config,
                    spec.learn_graph,
                    spec.graph_learner,
                )
            };
            task.run(prepare(individuals, spec, plan, trace, tag, build), trace)
        }
        ModelKind::Lstm => {
            let build = |v, _: Option<&AdjacencyMatrix>| LstmForecaster::new(v, &spec.model_config);
            task.run(prepare(individuals, spec, plan, trace, tag, build), trace)
        }
        other => panic!("no workload trains {}", other.label()),
    }
}

/// Builds each individual's windows, graph, cluster assignment, model
/// and config, one span per layer call.
fn prepare<M, F>(
    individuals: &[Individual],
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
    trace: &Trace,
    tag: Tag,
    build: F,
) -> Prepared<M>
where
    F: Fn(usize, Option<&AdjacencyMatrix>) -> M,
{
    let mut group = Prepared {
        tag,
        ids: Vec::with_capacity(individuals.len()),
        models: Vec::with_capacity(individuals.len()),
        train: Vec::with_capacity(individuals.len()),
        test: Vec::with_capacity(individuals.len()),
        configs: Vec::with_capacity(individuals.len()),
    };
    for ind in individuals {
        let t = Tag::Individual(ind.id);
        let (train, train_windows, test_windows) = trace.time(WINDOW, t, || {
            let (train, test) = split_train_test(&ind.data, spec.train_fraction);
            let train_windows = make_windows(&train, spec.seq_len);
            let test_windows = make_test_windows(&train, &test, spec.seq_len);
            (train, train_windows, test_windows)
        });
        let dense = trace.time(BUILD_GRAPH, t, || match &spec.graph {
            GraphSpec::None => None,
            GraphSpec::Static { metric, .. } => Some(build_graph(&train, *metric)),
            GraphSpec::Provided(g) => Some(g.clone()),
        });
        let graph = trace.time(SPARSIFY, t, || match (&spec.graph, dense) {
            (GraphSpec::Static { gdt, .. }, Some(dense)) => Some(sparsify(&dense, *gdt)),
            (_, dense) => dense,
        });
        let cluster = trace.time(SERIES_DISTANCE, t, || plan.map(|p| p.assign(&train)));
        let v = ind.data.dims()[1];
        group
            .models
            .push(trace.time(CONSTRUCT, t, || build(v, graph.as_ref())));

        let mut config = spec.train_config.clone();
        config.seed = ema_tensor::derive_stream_seed(spec.train_config.seed, ind.id as u64);
        if let (Some(plan), Some(cluster)) = (plan, cluster) {
            config.epochs = plan.fine_tune_epochs;
            config.warm_start = Some(plan.checkpoint(cluster));
        }
        group.ids.push(ind.id);
        group.train.push(train_windows);
        group.test.push(test_windows);
        group.configs.push(config);
    }
    group
}

/// Trains a prepared group with `train_cohort`, then evaluates it.
struct TrainEvaluate;

impl GroupTask for TrainEvaluate {
    type Output = Vec<Outcome>;

    fn run<M: CohortForecaster>(self, group: Prepared<M>, trace: &Trace) -> Vec<Outcome> {
        let Prepared {
            tag,
            ids,
            mut models,
            train,
            test,
            configs,
        } = group;
        let reports = trace.time(TRAIN, tag, || train_cohort(&mut models, &train, &configs));
        let scores = trace.time(EVALUATE, tag, || evaluate(&models, &test));
        ids.into_iter()
            .zip(reports)
            .zip(scores)
            .map(|((id, report), (mse, per_variable_mse))| Outcome {
                id,
                mse,
                per_variable_mse,
                final_train_loss: report.final_loss_or(0.0),
                epochs_run: report.epochs_run,
            })
            .collect()
    }
}

/// Test MSE and per-variable MSEs of every model, from one eval-mode
/// `predict_cohort` over the whole group. MTGNN's learned graph is
/// extracted as the pipeline does after evaluation.
fn evaluate<M: CohortForecaster>(models: &[M], test: &[WindowedData]) -> Vec<(f64, Vec<f64>)> {
    let batches: Vec<WindowBatch> = test
        .iter()
        .map(|w| WindowBatch::from_windows(&w.inputs))
        .collect();
    let cohort = CohortBatch::from_batches(&batches.iter().collect::<Vec<_>>());
    let tape = Tape::new();
    let bindings: Vec<Binding> = models.iter().map(|m| m.params().bind(&tape)).collect();
    let binding_refs: Vec<&Binding> = bindings.iter().collect();
    let group: Vec<&M> = models.iter().collect();
    // Eval mode draws nothing; the streams only fill the context.
    let mut rngs: Vec<Rng64> = models.iter().map(|_| Rng64::seed_from(0)).collect();
    let out = M::predict_cohort(
        &group,
        &tape,
        &binding_refs,
        &cohort,
        &mut CohortCtx::eval(&mut rngs),
    );
    let preds = tape.value(out);
    for m in models {
        std::hint::black_box(m.as_any_mtgnn().map(Mtgnn::learned_graph));
    }
    test.iter()
        .enumerate()
        .map(|(b, windows)| {
            let off = cohort.offset(b);
            let pred = preds.slice_rows(off, off + cohort.group_wins()[b]);
            let targets = windows.targets_matrix();
            let (n, v) = (pred.dims()[0], pred.dims()[1]);
            // Same accumulation order as `evaluate_per_variable_mse`.
            let per_variable = (0..v)
                .map(|j| {
                    let mut acc = 0.0;
                    for i in 0..n {
                        let d = pred.at2(i, j) - targets.at2(i, j);
                        acc += d * d;
                    }
                    acc / n as f64
                })
                .collect();
            (pred.mse(&targets), per_variable)
        })
        .collect()
}

/// Runs `individuals` as one job's group: prepare, `train_cohort`,
/// evaluate. Pins the spec's kernel backend for the whole job, as the
/// pipeline does.
fn run_group(
    individuals: &[Individual],
    spec: &RunSpec,
    plan: Option<&ClusterPlan>,
    trace: &Trace,
    tag: Tag,
) -> Vec<Outcome> {
    let _kernel = spec.train_config.kernel_backend.scoped();
    dispatch(individuals, spec, plan, trace, tag, TrainEvaluate)
}

/// The cluster phase of a stream run, timed: `plan_clusters` when the
/// spec warm-starts, nothing otherwise.
fn plan(inst: &Instance, trace: &Trace) -> Option<ClusterPlan> {
    trace.time(CLUSTER_PLAN, Tag::Run, || {
        match (&inst.input, inst.spec.train_strategy) {
            (Input::Stream { generator, .. }, TrainStrategy::ClusterWarmStart { .. }) => {
                Some(plan_clusters(generator, &inst.spec))
            }
            _ => None,
        }
    })
}

/// Replays one pass of `inst` on `executor` with the same job layout as
/// the pipeline (one job per individual for a cohort, one per shard for
/// a stream), recording spans into `trace`. Returns the outcomes in
/// individual order and the cluster plan, when one was built.
///
/// # Panics
/// Panics when the regenerated study differs from the instance's, or
/// propagates the first failed job.
pub fn replay(
    inst: &Instance,
    executor: &Executor,
    trace: &Trace,
) -> (Vec<Outcome>, Option<ClusterPlan>) {
    let plan = plan(inst, trace);
    let spec = &inst.spec;
    let plan_ref = plan.as_ref();
    let outcomes = match &inst.input {
        Input::Cohort { generator, dataset } => {
            let study = trace.time(GENERATE, Tag::Run, || generator.generate());
            assert!(
                study
                    .individuals
                    .iter()
                    .zip(&dataset.individuals)
                    .all(|(a, b)| a.data == b.data),
                "the replay regenerated a different study"
            );
            let jobs: Vec<Job<'_, Vec<Outcome>>> = study
                .individuals
                .iter()
                .map(|ind| {
                    let tag = Tag::Individual(ind.id);
                    Job::new(format!("individual_{}", ind.id), move || {
                        trace.time(JOB, tag, || {
                            run_group(std::slice::from_ref(ind), spec, plan_ref, trace, tag)
                        })
                    })
                })
                .collect();
            expect_all(executor.run(jobs), "replay")
        }
        Input::Stream { generator, shard } => {
            let n = generator.config().num_individuals;
            let jobs: Vec<Job<'_, Vec<Outcome>>> = (0..n)
                .step_by(*shard)
                .map(|start| {
                    let end = (start + shard).min(n);
                    let tag = Tag::Shard(start);
                    Job::new(format!("shard_{start}_{end}"), move || {
                        trace.time(JOB, tag, || {
                            let individuals =
                                trace.time(GENERATE, tag, || generator.generate_range(start, end));
                            run_group(&individuals, spec, plan_ref, trace, tag)
                        })
                    })
                })
                .collect();
            expect_all(executor.run(jobs), "replay")
        }
    };
    (outcomes.into_iter().flatten().collect(), plan)
}

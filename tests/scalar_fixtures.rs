//! Frozen scalar-backend results for every model kind, both cohort
//! runners and every experiment preset.
//!
//! Each test renders its runs as JSON and compares the bytes with a
//! committed fixture under `tests/fixtures/`. A change that moves any
//! number — model construction, training loop, forward path, graph
//! build, evaluation, aggregation — fails here, whichever path it goes
//! through. Results are byte-identical at every thread count, so the
//! fixtures hold under any `EMA_THREADS`. Regenerate deliberately with
//! `EMA_WRITE_BASELINE=1 cargo test -q --test scalar_fixtures` after an
//! *intentional* numeric change.

use ema_core::experiments::{
    run_ablation, run_cluster_compare, run_experiment_a, run_experiment_b, run_experiment_c,
    run_hyperparameter_sweep, run_per_variable, run_seq_sweep, ExperimentScale,
};
use ema_core::{
    run_cohort_sharded, run_cohort_with, Executor, GraphSpec, IndividualOutcome, Json,
    KernelBackend, RunSpec, TrainConfig, TrainStrategy,
};
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::DensityThreshold;
use ema_models::{ModelConfig, ModelKind};
use ema_similarity::GraphMetric;

/// Compares `current` with the committed fixture `name`, or rewrites
/// the fixture when `EMA_WRITE_BASELINE` is set.
fn check_fixture(name: &str, current: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os("EMA_WRITE_BASELINE").is_some() {
        std::fs::write(&path, current).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "fixture {} missing ({e}); regenerate with EMA_WRITE_BASELINE=1",
            path.display()
        )
    });
    assert!(
        current == committed,
        "scalar results diverged from {}:\n--- committed ---\n{committed}\n--- current ---\n{current}",
        path.display()
    );
}

/// The per-individual record of a run: every number an outcome holds.
fn outcomes_json(outcomes: &[IndividualOutcome]) -> Json {
    let nums = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    Json::Arr(
        outcomes
            .iter()
            .map(|o| {
                Json::obj(vec![
                    ("id", Json::Num(o.id as f64)),
                    ("mse", Json::Num(o.mse)),
                    ("per_variable_mse", nums(&o.per_variable_mse)),
                    ("final_train_loss", Json::Num(o.final_train_loss)),
                    ("epochs_run", Json::Num(o.epochs_run as f64)),
                    (
                        "learned_graph",
                        o.learned_graph
                            .as_ref()
                            .map_or(Json::Null, |g| nums(g.weights().data())),
                    ),
                ])
            })
            .collect(),
    )
}

/// The graph a model kind runs on: none for the graph-free baselines,
/// the correlation graph at GDT 40% for the GNNs.
fn graph_for(model: ModelKind) -> GraphSpec {
    if model.uses_graph() {
        GraphSpec::Static {
            metric: GraphMetric::Correlation,
            gdt: DensityThreshold::Gdt40,
        }
    } else {
        GraphSpec::None
    }
}

/// All five model kinds through `run_cohort_with` on the tiny study.
#[test]
fn every_model_kind_through_run_cohort_with_matches_fixture() {
    let mut scale = ExperimentScale::tiny();
    scale.num_individuals = 3;
    scale.epochs = 3;
    let dataset = scale.dataset();
    let executor = Executor::from_env();
    let record = Json::obj(
        ModelKind::extended()
            .iter()
            .map(|&model| {
                let mut spec = scale.spec(model, graph_for(model), 2);
                spec.train_config.kernel_backend = KernelBackend::Scalar;
                (
                    model.label(),
                    outcomes_json(&run_cohort_with(&dataset, &spec, &executor)),
                )
            })
            .collect(),
    );
    check_fixture("scalar_models.json", &record.pretty());
}

/// `run_cohort_sharded` at shard sizes 1 and 4: every model kind
/// trained idiographically, plus cluster warm start for LSTM and VAR.
/// Early stopping is aggressive so shards shrink mid-run.
#[test]
fn sharded_runs_match_fixture() {
    let generator = EmaGenerator::new(GeneratorConfig::quick(5, 4, 41));
    let executor = Executor::from_env();
    let warm = TrainStrategy::ClusterWarmStart {
        k: 2,
        cluster_epochs: 3,
        fine_tune_epochs: 2,
    };
    let mut arms: Vec<(String, ModelKind, TrainStrategy)> = ModelKind::extended()
        .iter()
        .map(|&m| {
            (
                format!("{}/idiographic", m.label()),
                m,
                TrainStrategy::Idiographic,
            )
        })
        .collect();
    for model in [ModelKind::Lstm, ModelKind::Var] {
        arms.push((format!("{}/cluster_warm_start", model.label()), model, warm));
    }
    let mut entries = Vec::new();
    for (label, model, strategy) in &arms {
        for shard in [1, 4] {
            let mut spec = RunSpec::new(*model, graph_for(*model), 2);
            spec.model_config = ModelConfig::tiny(0);
            spec.train_config = TrainConfig {
                early_stop_rel: 0.02,
                patience: 2,
                kernel_backend: KernelBackend::Scalar,
                ..TrainConfig::quick(6, 7)
            };
            spec.train_strategy = *strategy;
            let outcomes = run_cohort_sharded(&generator, &spec, shard, &executor);
            entries.push((format!("{label}/shard{shard}"), outcomes_json(&outcomes)));
        }
    }
    let record = Json::obj(
        entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect(),
    );
    check_fixture("scalar_sharded.json", &record.pretty());
}

/// Every experiment preset at tiny scale with two epochs. The scalar
/// scope on this thread pins every spec the presets build.
#[test]
fn experiment_presets_match_fixture() {
    let _scalar = KernelBackend::Scalar.scoped();
    let mut scale = ExperimentScale::tiny();
    scale.epochs = 2;
    let exec = Executor::from_env();
    let record = Json::obj(vec![
        ("table2", run_experiment_a(&scale, &exec).to_json_value()),
        ("table3", run_experiment_b(&scale, &exec).to_json_value()),
        (
            "fig3",
            Json::parse(&run_experiment_c(&scale, &exec).to_json()).expect("fig3 JSON"),
        ),
        ("ablation", run_ablation(&scale, &exec).to_json_value()),
        ("seq_sweep", run_seq_sweep(&scale, &exec).to_json_value()),
        (
            "per_variable",
            run_per_variable(&scale, &exec).to_json_value(),
        ),
        (
            "hyperparams",
            run_hyperparameter_sweep(&scale, &exec).to_json_value(),
        ),
        (
            "cluster_compare",
            run_cluster_compare(&scale, &exec).to_json_value(),
        ),
    ]);
    check_fixture("scalar_presets.json", &record.pretty());
}

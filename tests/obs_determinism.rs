//! Determinism of the obs output itself: what a run writes — its JSONL
//! log (timing fields aside), its summary's event counts, `kernel.*`
//! counters and profile call paths — depends on the seeds and the work,
//! not on the run or the thread count.
//!
//! These tests compare whole-run aggregates of the process's one
//! recorder, so every test in this binary holds [`OBS_MODE_LOCK`]: no
//! other work may report into a run while it is open. That is why they
//! live apart from `tests/determinism.rs`, whose pipeline tests run
//! concurrently without the lock.

use ema_core::experiments::{
    run_cluster_compare, run_experiment_a, ExperimentScale, STRATEGY_COLUMNS,
};
use ema_core::{
    run_cohort_sharded, run_cohort_with, Executor, GraphSpec, Json, RunSpec, TrainConfig,
    TrainStrategy,
};
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_models::{ModelConfig, ModelKind};
use ema_obs::{recorder, set_mode, ObsMode, Profile};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests of this binary; see the module docs.
static OBS_MODE_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    OBS_MODE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An empty scratch directory `name` under the workspace target.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("target/obs-determinism")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What one finished run wrote.
struct Written {
    /// The JSONL log, each line without its `t_ns` and `dur_ns`.
    log: Vec<String>,
    summary: Json,
}

/// Runs `body` as run `name` in `mode`, in its `experiment` phase,
/// under a scratch directory and reads back what the run wrote.
fn written_by(name: &str, mode: ObsMode, body: impl FnOnce()) -> Written {
    set_mode(mode);
    assert!(recorder().begin_run_in(name, Json::Null, &scratch(name)));
    recorder().phase("experiment");
    body();
    let summary = recorder().finish_run().expect("summary written");
    let stem = summary.to_str().unwrap().strip_suffix(".summary.json");
    let untimed = |line: &str| match Json::parse(line).expect("every JSONL line parses") {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "t_ns" && k != "dur_ns")
                .collect(),
        )
        .compact(),
        other => panic!("event is not an object: {}", other.compact()),
    };
    Written {
        log: std::fs::read_to_string(format!("{}.jsonl", stem.unwrap()))
            .map(|text| text.lines().map(untimed).collect())
            .unwrap_or_default(),
        summary: Json::parse(&std::fs::read_to_string(summary).unwrap()).unwrap(),
    }
}

/// The summary's counters whose names start with `prefix`, by name.
fn summary_counters(summary: &Json, prefix: &str) -> Vec<(String, usize)> {
    match summary
        .require("metrics")
        .unwrap()
        .require("counters")
        .unwrap()
    {
        Json::Obj(pairs) => pairs
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.to_usize().unwrap()))
            .collect(),
        other => panic!("counters must be an object, got {}", other.compact()),
    }
}

/// The summary profile's call paths with their call counts.
fn profile_calls(summary: &Json) -> Vec<(String, u64)> {
    let profile = Profile::from_json(summary.require("profile").unwrap()).expect("profile parses");
    profile
        .flatten()
        .into_iter()
        .map(|(path, node)| (path, node.count()))
        .collect()
}

/// Two same-seed runs of the tiny Table II cells on one thread write
/// the same obs output: the same JSONL line for line once the timing
/// fields are dropped, and the same summary event counts, `kernel.*`
/// counters and profile call paths with their call counts. Every cell
/// runs, at two epochs instead of eight to keep the test quick.
#[test]
fn same_seed_runs_write_identical_obs_output() {
    let _guard = exclusive();
    let scale = ExperimentScale {
        epochs: 2,
        ..ExperimentScale::tiny()
    };
    let run = || {
        written_by("table2_tiny", ObsMode::Full, || {
            let _ = run_experiment_a(&scale, &Executor::sequential());
        })
    };
    let (first, second) = (run(), run());
    assert!(first.log.len() > 100, "only {} events", first.log.len());
    assert_eq!(first.log.len(), second.log.len());
    for (i, (a, b)) in first.log.iter().zip(&second.log).enumerate() {
        assert_eq!(a, b, "JSONL line {} differs", i + 1);
    }
    assert_eq!(
        first.summary.require("events").unwrap(),
        second.summary.require("events").unwrap()
    );
    let kernel = summary_counters(&first.summary, "kernel.");
    assert!(!kernel.is_empty(), "the cells record kernel work");
    assert_eq!(kernel, summary_counters(&second.summary, "kernel."));
    assert_eq!(
        profile_calls(&first.summary),
        profile_calls(&second.summary)
    );
}

/// Every matmul of a warm-start sharded cohort is counted whatever the
/// thread count: the cluster plan trains on the calling thread before
/// any shard job starts, and the run's end drains that work when no
/// job ran on the calling thread to do it.
#[test]
fn kernel_counters_do_not_depend_on_the_thread_count() {
    let _guard = exclusive();
    let generator = EmaGenerator::new(GeneratorConfig::quick(4, 4, 41));
    let mut spec = RunSpec::new(ModelKind::Lstm, GraphSpec::None, 2);
    spec.model_config = ModelConfig::tiny(0);
    spec.train_config = TrainConfig::quick(3, 7);
    spec.train_strategy = TrainStrategy::ClusterWarmStart {
        k: 2,
        cluster_epochs: 3,
        fine_tune_epochs: 2,
    };
    let counters = |executor: Executor| {
        let written = written_by("warm_start", ObsMode::Summary, || {
            let _ = run_cohort_sharded(&generator, &spec, 2, &executor);
        });
        summary_counters(&written.summary, "kernel.")
    };
    let sequential = counters(Executor::sequential());
    assert!(!sequential.is_empty(), "the cohort records kernel work");
    assert_eq!(sequential, counters(Executor::with_threads(2)));
}

/// How many jobs `body` ran on a 2-worker executor, summed over the
/// run's `exec.worker_jobs.*` counters.
fn jobs_run(name: &str, body: impl FnOnce(&Executor)) -> usize {
    let written = written_by(name, ObsMode::Summary, || body(&Executor::with_threads(2)));
    summary_counters(&written.summary, "exec.worker_jobs.")
        .iter()
        .map(|(_, jobs)| jobs)
        .sum()
}

/// Every experiment cell runs one job per individual, so no arm of
/// `cluster_compare` leaves a worker idle; the cluster plan trains on
/// the calling thread, outside any job. `run_cohort_with` keeps the
/// same layout: one job per individual of the in-memory study.
#[test]
fn cohort_runs_schedule_one_job_per_individual() {
    let _guard = exclusive();
    let scale = ExperimentScale {
        epochs: 2,
        ..ExperimentScale::tiny()
    };
    let arms = ModelKind::all().len() * STRATEGY_COLUMNS.len();
    let jobs = jobs_run("cluster_compare_tiny", |executor| {
        let _ = run_cluster_compare(&scale, executor);
    });
    assert_eq!(jobs, arms * scale.num_individuals);

    let study = EmaGenerator::new(GeneratorConfig::quick(3, 4, 43)).generate();
    let mut spec = RunSpec::new(ModelKind::Lstm, GraphSpec::None, 2);
    spec.model_config = ModelConfig::tiny(0);
    spec.train_config = TrainConfig::quick(2, 7);
    let jobs = jobs_run("cohort_with", |executor| {
        let _ = run_cohort_with(&study, &spec, executor);
    });
    assert_eq!(jobs, study.num_individuals());
}

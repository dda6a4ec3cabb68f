//! End-to-end determinism guard: the entire pipeline — synthetic data,
//! graph construction, training, evaluation, result aggregation and the
//! in-house JSON writer — must produce *byte-identical* artifacts when
//! re-run with the same seeds. This is the contract every experiment
//! record in `results/` relies on.

use ema_core::experiments::ExperimentScale;
use ema_core::pipeline::{run_cohort_with, GraphSpec};
use ema_core::results::{CellStat, ResultTable};
use ema_core::Executor;
use ema_core::KernelBackend;
use ema_graph::sparsify::DensityThreshold;
use ema_models::ModelKind;
use ema_similarity::GraphMetric;
use std::sync::Mutex;

/// Serialises the tests that flip the process-global obs mode; without
/// it they would race through `set_mode` and `begin_run_in`.
static OBS_MODE_LOCK: Mutex<()> = Mutex::new(());

/// A seconds-scale slice of the Table II pipeline: one LSTM row and one
/// graph-model row over a tiny cohort.
fn tiny_results_json() -> String {
    tiny_results_json_with(&Executor::from_env())
}

/// [`tiny_results_json`] on an explicit executor, so tests can pin the
/// thread count.
fn tiny_results_json_with(executor: &Executor) -> String {
    tiny_results_json_kernel(executor, KernelBackend::default())
}

/// The full knob set: executor and matmul kernel backend. Pinning the
/// backend in the spec makes the probe independent of the `EMA_KERNEL`
/// environment the test process runs under.
fn tiny_results_json_kernel(executor: &Executor, kernel_backend: KernelBackend) -> String {
    let mut scale = ExperimentScale::tiny();
    scale.num_individuals = 2;
    scale.epochs = 3;
    let dataset = scale.dataset();

    let mut table = ResultTable::new("determinism probe", vec!["Seq2".to_string()]);
    for (label, model, graph) in [
        ("Baseline LSTM", ModelKind::Lstm, GraphSpec::None),
        (
            "MTGNN_CORR",
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt20,
            },
        ),
    ] {
        let mut spec = scale.spec(model, graph, 2);
        spec.train_config.kernel_backend = kernel_backend;
        let outcomes = run_cohort_with(&dataset, &spec, executor);
        let mses: Vec<f64> = outcomes.iter().map(|o| o.mse).collect();
        table.push_row(label, vec![CellStat::from_samples(&mses)]);
    }
    table.to_json()
}

#[test]
fn same_seed_pipeline_runs_emit_byte_identical_json() {
    let first = tiny_results_json();
    let second = tiny_results_json();
    assert!(
        first == second,
        "same-seed pipeline runs diverged:\n--- first ---\n{first}\n--- second ---\n{second}"
    );
    // The written text must also read back bit-exactly: parsing it and
    // writing the value again gives the same bytes.
    let parsed = ema_core::Json::parse(&first).unwrap();
    assert_eq!(parsed.pretty(), first);
}

/// The cohort executor's headline guarantee: results JSON is
/// byte-identical at every thread count, because each individual's
/// random streams are derived from `(run seed, id)` rather than from
/// sequential draw order.
#[test]
fn thread_count_never_changes_results_json() {
    let sequential = tiny_results_json_with(&Executor::sequential());
    let pooled = tiny_results_json_with(&Executor::with_threads(4));
    assert!(
        sequential == pooled,
        "threads=1 vs threads=4 diverged:\n--- threads=1 ---\n{sequential}\n--- threads=4 ---\n{pooled}"
    );
}

/// The same invariance with full telemetry streaming: worker-tagged,
/// per-worker-buffered obs events must not leak into the results, and
/// the JSONL manifest written by a 4-thread run stays parseable with
/// every job's span tree tagged by its worker.
#[test]
fn thread_count_invariance_holds_under_full_obs() {
    use ema_core::Json;
    use ema_obs::{recorder, set_mode, ObsMode};
    use std::path::Path;

    let _guard = OBS_MODE_LOCK.lock().unwrap();
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("target/obs-threads-test");
    let _ = std::fs::remove_dir_all(&scratch);

    set_mode(ObsMode::Full);
    assert!(recorder().begin_run_in("det_threads", Json::Null, &scratch));
    let sequential = tiny_results_json_with(&Executor::sequential());
    let pooled = tiny_results_json_with(&Executor::with_threads(4));
    let summary = recorder().finish_run().expect("summary written");
    set_mode(ObsMode::from_env());

    assert!(
        sequential == pooled,
        "EMA_OBS=full: threads=1 vs threads=4 diverged:\n--- threads=1 ---\n{sequential}\n--- threads=4 ---\n{pooled}"
    );
    assert!(summary.exists());

    // Every line of the multi-threaded manifest parses, and the pooled
    // cohort's job spans carry the worker tag.
    let text = std::fs::read_to_string(scratch.join("det_threads.jsonl"))
        .expect("full mode streams JSONL");
    let mut worker_tagged = 0;
    for line in text.lines() {
        let event = Json::parse(line).expect("every JSONL line parses");
        if event.get("worker").is_some() {
            worker_tagged += 1;
        }
    }
    assert!(
        worker_tagged > 0,
        "multi-threaded runs must emit worker-tagged events"
    );
}

/// Obs is observation only: switching `EMA_OBS` between `off` and
/// `full` must leave the experiment record byte-identical, and `off`
/// must never touch the filesystem.
#[test]
fn obs_modes_never_perturb_results_and_off_writes_nothing() {
    use ema_core::Json;
    use ema_obs::{recorder, set_mode, ObsMode};
    use std::path::Path;

    let _guard = OBS_MODE_LOCK.lock().unwrap();
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("target/obs-det-test");
    let _ = std::fs::remove_dir_all(&scratch);

    // Off: runs cannot start and no files appear.
    set_mode(ObsMode::Off);
    let off_json = tiny_results_json();
    assert!(
        !recorder().begin_run_in("det_off", Json::Null, &scratch),
        "off mode must refuse to start a run"
    );
    assert!(!scratch.exists(), "off mode must not create obs files");

    // Full: stream everything; the results must not change by a byte.
    set_mode(ObsMode::Full);
    assert!(recorder().begin_run_in("det_full", Json::Null, &scratch));
    let full_json = tiny_results_json();
    let summary = recorder().finish_run().expect("summary written");
    set_mode(ObsMode::from_env());

    assert!(
        off_json == full_json,
        "obs mode changed the experiment output:\n--- off ---\n{off_json}\n--- full ---\n{full_json}"
    );

    // The streamed log exists, parses line by line with the in-house
    // JSON parser, and carries the per-epoch training telemetry.
    let log = scratch.join("det_full.jsonl");
    let text = std::fs::read_to_string(&log).expect("full mode streams JSONL");
    let mut train_epochs = 0;
    for line in text.lines() {
        let event = Json::parse(line).expect("every JSONL line parses");
        if event.get("name").and_then(Json::as_str) == Some("train_epoch") {
            train_epochs += 1;
        }
    }
    assert!(
        train_epochs > 0,
        "full-mode log must record train_epoch events"
    );
    assert!(summary.exists(), "run summary JSON must exist");

    // The new profiling layer fills every section of the manifest: an
    // aggregated span profile, kernel FLOP/byte counters from the
    // matmul funnel, and executor utilization counters.
    let summary_json = Json::parse(&std::fs::read_to_string(&summary).unwrap()).unwrap();
    let profile = summary_json
        .require("profile")
        .expect("summary carries a profile section");
    assert!(
        matches!(profile, Json::Arr(roots) if !roots.is_empty()),
        "full-mode profile must aggregate at least one span tree"
    );
    let counters = summary_json
        .require("metrics")
        .and_then(|m| m.require("counters"))
        .expect("summary carries metrics counters");
    let counter_keys: Vec<&str> = match counters {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("counters must be an object, got {}", other.compact()),
    };
    assert!(
        counter_keys
            .iter()
            .any(|k| k.starts_with("kernel.") && k.ends_with(".calls")),
        "training under full obs must record kernel call counters, got {counter_keys:?}"
    );
    assert!(
        counter_keys
            .iter()
            .any(|k| k.starts_with("kernel.") && k.ends_with(".flops")),
        "training under full obs must record kernel FLOP counters, got {counter_keys:?}"
    );
    assert!(
        counter_keys
            .iter()
            .any(|k| k.starts_with("exec.worker_jobs.")),
        "cohort runs must publish per-worker job counters, got {counter_keys:?}"
    );
    // The folded-stacks twin of the profile is flamegraph food: every
    // line is `root;child;... self_ns`.
    let folded = std::fs::read_to_string(scratch.join("det_full.folded"))
        .expect("non-empty profiles write a .folded file");
    assert!(!folded.trim().is_empty());
    for line in folded.lines() {
        let (path, self_ns) = line.rsplit_once(' ').expect("folded line has `path ns`");
        assert!(!path.is_empty());
        self_ns
            .parse::<u64>()
            .expect("folded self time is integral ns");
    }
}

/// `train_cohort` reports every individual's every epoch: one
/// `train_epoch` point per (individual, epoch) carrying the loss and
/// gradient norm of its `TrainReport`. Each member trains on a tape of
/// its own graph alone, so every point's `tape_nodes` equals the count
/// of the same individual trained as a one-member run.
#[test]
fn train_cohort_emits_one_train_epoch_per_individual_epoch() {
    use ema_core::{train_cohort, train_model, Json, TrainConfig};
    use ema_data::{make_windows, EmaGenerator, GeneratorConfig};
    use ema_models::{LstmForecaster, ModelConfig};
    use ema_obs::{recorder, set_mode, ObsMode};
    use std::path::Path;

    let _guard = OBS_MODE_LOCK.lock().unwrap();
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("target/obs-train-epoch-test");
    let _ = std::fs::remove_dir_all(&scratch);

    let study = EmaGenerator::new(GeneratorConfig::quick(3, 4, 5)).generate();
    let windows: Vec<_> = study
        .individuals
        .iter()
        .map(|ind| make_windows(&ind.data, 2))
        .collect();
    // Staggered schedules: two, three and four epochs.
    let configs: Vec<TrainConfig> = (0..3)
        .map(|b| TrainConfig::quick(2 + b, 10 + b as u64))
        .collect();
    let model = || LstmForecaster::new(4, &ModelConfig::tiny(0));

    // One full-mode obs run around `train`: this thread's `train_epoch`
    // points as (individual, epoch, loss bits, grad-norm bits, tape
    // nodes), sorted.
    let capture = |run: &str, train: &mut dyn FnMut()| {
        set_mode(ObsMode::Full);
        assert!(recorder().begin_run_in(run, Json::Null, &scratch));
        {
            let _probe = ema_obs::span!("train_epoch_probe");
            train();
        }
        recorder().finish_run().expect("summary written");
        set_mode(ObsMode::from_env());

        let text = std::fs::read_to_string(scratch.join(format!("{run}.jsonl")))
            .expect("full mode streams JSONL");
        let events: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("every JSONL line parses"))
            .collect();
        // Other tests in this binary may train concurrently: keep the
        // events of this thread, named by the probe span's enter event.
        let thread = events
            .iter()
            .find(|e| e.get("span").and_then(Json::as_str) == Some("train_epoch_probe"))
            .and_then(|e| e.get("thread"))
            .and_then(Json::as_usize)
            .expect("probe span recorded");
        let mut seen: Vec<(usize, usize, u64, u64, usize)> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Json::as_str) == Some("train_epoch")
                    && e.get("thread").and_then(Json::as_usize) == Some(thread)
            })
            .map(|e| {
                let f = e.require("fields").unwrap();
                let num = |k: &str| f.require(k).unwrap().to_f64().unwrap();
                let count = |k: &str| f.require(k).unwrap().to_usize().unwrap();
                (
                    count("individual"),
                    count("epoch"),
                    num("loss").to_bits(),
                    num("grad_norm").to_bits(),
                    count("tape_nodes"),
                )
            })
            .collect();
        seen.sort_unstable();
        seen
    };

    let mut models: Vec<LstmForecaster> = (0..3).map(|_| model()).collect();
    let mut reports = Vec::new();
    let seen = capture("train_epochs", &mut || {
        reports = train_cohort(&mut models, &windows, &configs);
    });
    let want: Vec<(usize, usize, u64, u64)> = reports
        .iter()
        .enumerate()
        .flat_map(|(b, r)| {
            (0..r.epochs_run).map(move |e| (b, e, r.losses[e].to_bits(), r.grad_norms[e].to_bits()))
        })
        .collect();
    assert_eq!(want.len(), 2 + 3 + 4);
    let points: Vec<(usize, usize, u64, u64)> = seen
        .iter()
        .map(|&(b, e, loss, norm, _)| (b, e, loss, norm))
        .collect();
    assert_eq!(points, want);

    // Each individual alone: the same points at position 0, with the
    // same tape size. A grouped training tape would hold every member's
    // graph and fail here.
    for b in 0..3 {
        let mut solo = model();
        let alone = capture(&format!("train_epochs_solo_{b}"), &mut || {
            train_model(&mut solo, &windows[b], &configs[b]);
        });
        let member: Vec<_> = seen
            .iter()
            .filter(|p| p.0 == b)
            .map(|&(_, e, loss, norm, nodes)| (0, e, loss, norm, nodes))
            .collect();
        assert_eq!(alone, member, "individual {b}: cohort vs one-member run");
    }
}

/// Warm-pool invariance: running the same cohort twice in one process
/// (so the second run draws recycled, stale-content buffers from the
/// tensor pool — handed across runs by the executor's shelf) and at
/// different thread counts must still emit byte-identical JSON. A
/// kernel that reads a pooled buffer before overwriting it fails here.
#[test]
fn warm_buffer_pool_never_changes_results_json() {
    let cold = tiny_results_json_with(&Executor::with_threads(4));
    let warm = tiny_results_json_with(&Executor::with_threads(4));
    assert!(
        cold == warm,
        "cold-pool vs warm-pool runs diverged:\n--- cold ---\n{cold}\n--- warm ---\n{warm}"
    );
    let sequential_warm = tiny_results_json_with(&Executor::sequential());
    assert!(
        warm == sequential_warm,
        "warm pool: threads=4 vs threads=1 diverged:\n--- threads=4 ---\n{warm}\n--- threads=1 ---\n{sequential_warm}"
    );
}

/// The SIMD backend upholds the executor's headline guarantee exactly
/// like the scalar oracle: full results JSON byte-identical at
/// threads=1 vs threads=4 (kernel dispatch is per-thread state, and
/// every random stream is derived from `(run seed, id)`).
#[test]
fn simd_backend_results_json_identical_across_thread_counts() {
    let sequential = tiny_results_json_kernel(&Executor::sequential(), KernelBackend::Simd);
    let pooled = tiny_results_json_kernel(&Executor::with_threads(4), KernelBackend::Simd);
    assert!(
        sequential == pooled,
        "EMA_KERNEL=simd: threads=1 vs threads=4 diverged:\n--- threads=1 ---\n{sequential}\n--- threads=4 ---\n{pooled}"
    );
}

/// The scalar oracle is frozen: its results JSON must match the
/// committed same-seed baseline byte for byte, so any accidental
/// rewrite of the reference kernel (or of anything upstream of it —
/// data generation, graph build, training, aggregation, the JSON
/// writer) is caught even when both backends drift together. Regenerate
/// deliberately with `EMA_WRITE_BASELINE=1 cargo test -q --test
/// determinism scalar_backend` after an *intentional* numeric change.
#[test]
fn scalar_backend_results_match_committed_baseline() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("tests/fixtures/scalar_baseline.json");
    let current = tiny_results_json_kernel(&Executor::with_threads(4), KernelBackend::Scalar);
    if std::env::var_os("EMA_WRITE_BASELINE").is_some() {
        std::fs::write(&fixture, &current).expect("write scalar baseline fixture");
        return;
    }
    let committed = std::fs::read_to_string(&fixture)
        .expect("committed scalar baseline missing; regenerate with EMA_WRITE_BASELINE=1");
    assert!(
        current == committed,
        "scalar-backend results diverged from the committed baseline:\n--- committed ---\n{committed}\n--- current ---\n{current}"
    );
}

/// A per-individual record of a streamed sharded cohort run; sharding
/// must be invisible in it byte for byte.
fn cohort_sharded_results_json(
    threads: usize,
    shard_size: usize,
    model: ModelKind,
    graph: GraphSpec,
    strategy: ema_core::TrainStrategy,
) -> String {
    use ema_core::{run_cohort_sharded, Json, RunSpec, TrainConfig};
    use ema_data::{EmaGenerator, GeneratorConfig};
    use ema_models::ModelConfig;

    let generator = EmaGenerator::new(GeneratorConfig::quick(4, 4, 41));
    let mut spec = RunSpec::new(model, graph, 2);
    spec.model_config = ModelConfig::tiny(0);
    spec.train_config = TrainConfig::quick(3, 7);
    spec.train_strategy = strategy;
    let executor = Executor::with_threads(threads);
    let outcomes = run_cohort_sharded(&generator, &spec, shard_size, &executor);
    Json::Arr(
        outcomes
            .iter()
            .map(|o| {
                Json::obj(vec![
                    ("id", Json::Num(o.id as f64)),
                    ("mse", Json::Num(o.mse)),
                    (
                        "per_variable_mse",
                        Json::Arr(o.per_variable_mse.iter().map(|&m| Json::Num(m)).collect()),
                    ),
                    ("final_train_loss", Json::Num(o.final_train_loss)),
                    ("epochs_run", Json::Num(o.epochs_run as f64)),
                ])
            })
            .collect(),
    )
    .compact()
}

/// Asserts `run(threads, shard)` is byte-identical to the
/// `(threads = 1, shard = 1)` baseline at every grid point. Shard size
/// sets job and generation granularity — each shard job generates its
/// slice, builds its members' graphs and trains them one at a time —
/// not a training group, so the grid pins job layout and scheduling
/// out of every number. Forwards over groups of more than one
/// individual stay pinned to the per-window oracle by
/// `crates/models/tests/batched_equivalence.rs`.
fn assert_sharding_invisible(
    what: &str,
    grid: &[(usize, usize)],
    run: impl Fn(usize, usize) -> String,
) {
    let baseline = run(1, 1);
    for &(threads, shard) in grid {
        let probe = run(threads, shard);
        assert!(
            baseline == probe,
            "{what}: threads={threads}, shard={shard} diverged from threads=1, shard=1:\n--- baseline ---\n{baseline}\n--- probe ---\n{probe}"
        );
    }
}

/// The streaming sharded cohort path's headline guarantee: results are
/// byte-identical at every `(thread count, shard size)` pair — shard
/// boundaries never change numbers because every per-individual stream
/// is derived from `(run seed, id)`.
#[test]
fn cohort_sharded_results_identical_across_threads_shards_and_paths() {
    // (4, 2) is the CI smoke shape: 2 shards × 2 individuals on a
    // 4-worker executor.
    assert_sharding_invisible("LSTM", &[(4, 4), (4, 2), (4, 1)], |threads, shard| {
        cohort_sharded_results_json(
            threads,
            shard,
            ModelKind::Lstm,
            GraphSpec::None,
            ema_core::TrainStrategy::Idiographic,
        )
    });
}

/// Same grid for a graph model: sharding stays invisible byte for
/// byte, with each individual's training-split graph built on
/// whichever worker generates its shard.
#[test]
fn cohort_sharded_graph_model_identical_across_threads_shards_and_paths() {
    assert_sharding_invisible("A3TGCN", &[(4, 4), (4, 2), (4, 1)], |threads, shard| {
        cohort_sharded_results_json(
            threads,
            shard,
            ModelKind::A3tgcn,
            GraphSpec::Static {
                metric: ema_similarity::GraphMetric::Correlation,
                gdt: ema_graph::sparsify::DensityThreshold::Gdt40,
            },
            ema_core::TrainStrategy::Idiographic,
        )
    });
}

/// Same grid for MTGNN, the model of the `stream_graph` benchmark
/// workload: its learned adjacency, mix-hop propagation and pre-drawn
/// dropout masks keep sharding invisible byte for byte.
#[test]
fn cohort_sharded_mtgnn_identical_across_threads_shards_and_paths() {
    assert_sharding_invisible("MTGNN", &[(4, 4), (4, 2), (4, 1)], |threads, shard| {
        cohort_sharded_results_json(
            threads,
            shard,
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: ema_similarity::GraphMetric::Correlation,
                gdt: ema_graph::sparsify::DensityThreshold::Gdt40,
            },
            ema_core::TrainStrategy::Idiographic,
        )
    });
}

/// The cluster-warm-start strategy keeps the same guarantee: the plan
/// (representatives, K-medoids, cluster checkpoints) is built once on
/// the caller thread, and warm-started fine-tunes derive their streams
/// from `(run seed, id)` exactly as idiographic runs do — so results
/// are byte-identical at every `(thread count, shard size)` pair.
#[test]
fn cohort_sharded_warm_start_identical_across_threads_shards_and_paths() {
    let strategy = ema_core::TrainStrategy::ClusterWarmStart {
        k: 2,
        cluster_epochs: 3,
        fine_tune_epochs: 2,
    };
    assert_sharding_invisible("warm start", &[(4, 4), (4, 2), (4, 1)], |threads, shard| {
        cohort_sharded_results_json(threads, shard, ModelKind::Lstm, GraphSpec::None, strategy)
    });
}

#[test]
fn same_seed_training_yields_byte_identical_checkpoints() {
    use ema_core::{train_model, TrainConfig};
    use ema_data::make_windows;
    use ema_models::{Forecaster, LstmForecaster, ModelConfig};
    use ema_nn::ParamStore;
    use ema_tensor::{Rng64, Tensor};

    // Every parameter's name, shape and value bits, in registration
    // order.
    fn param_bits(store: &ParamStore) -> Vec<(String, Vec<usize>, Vec<u64>)> {
        store
            .ids()
            .into_iter()
            .map(|id| {
                let value = store.value(id);
                let bits = value.data().iter().map(|v| v.to_bits()).collect();
                (store.name(id).to_string(), value.dims().to_vec(), bits)
            })
            .collect()
    }

    const EPOCHS: usize = 4;
    let model = || LstmForecaster::new(4, &ModelConfig::tiny(9));
    // Seeded windows, then a few training epochs (dropout draws from the
    // train seed, Adam moves every parameter) before the snapshot.
    let trained = || {
        let mut rng = Rng64::seed_from(77);
        let windows = make_windows(&Tensor::rand_normal(&[24, 4], 0.0, 1.0, &mut rng), 2);
        let mut model = model();
        let report = train_model(&mut model, &windows, &TrainConfig::quick(EPOCHS, 13));
        assert_eq!(report.losses.len(), EPOCHS, "every epoch trains");
        param_bits(model.params())
    };
    let first = trained();
    assert_ne!(first, param_bits(model().params()));
    assert_eq!(first, trained());
}

/// Every JSON file the repository commits — the top-level `results/`
/// records (the tables, `fig3.json`, the `BENCH_*` suites) and the
/// test fixtures — is in the canonical form the writer emits: parsing
/// it and pretty-printing the value gives back the file's exact bytes,
/// so each committed format reads back bit-exactly through `Json`.
#[test]
fn committed_json_artifacts_are_canonical() {
    use ema_core::Json;
    use std::path::Path;

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    for dir in ["results", "tests/fixtures"] {
        let mut paths: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "json"))
            .collect();
        assert!(!paths.is_empty(), "{dir} holds no JSON file");
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path).expect("readable artifact");
            let value = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                value.pretty() == text,
                "{} is not in the writer's canonical form",
                path.display()
            );
        }
    }
}

//! Cohort throughput of the full per-individual pipeline (split →
//! graph → train → evaluate) scheduled by the `ema_core::exec` engine,
//! plus the streamed sharded cohort path at study scale. Each entry
//! records individuals/sec as `throughput_per_sec` and its peak heap
//! working set as `peak_bytes` in `results/BENCH_pipeline.json`.
//! Results JSON is byte-identical at every thread count and shard
//! size; only the wall-clock figures here move.

use ema_bench::Harness;
use ema_core::experiments::ExperimentScale;
use ema_core::{
    run_cohort_sharded, run_cohort_with, Executor, GraphSpec, RunSpec, TrainConfig, TrainStrategy,
};
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_models::{ModelConfig, ModelKind};
use std::hint::black_box;

fn main() {
    let mut harness = Harness::new("pipeline");

    // An LSTM cohort sized so each worker gets several jobs (12
    // individuals ÷ 2 workers = 6 each): per-job scheduling overhead is
    // amortized and thread counts differ by more than queue noise,
    // while one sample still finishes in tens of milliseconds.
    let mut scale = ExperimentScale::tiny();
    scale.num_individuals = 12;
    let dataset = scale.dataset();
    let spec = scale.spec(ModelKind::Lstm, GraphSpec::None, 2);

    let max = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut counts = vec![1, 2, max];
    counts.sort_unstable();
    counts.dedup();

    for threads in counts {
        let executor = Executor::with_threads(threads);
        harness.bench_function(&format!("cohort_lstm_threads_{threads}"), |b| {
            b.items(dataset.individuals.len() as f64);
            b.iter(|| black_box(run_cohort_with(&dataset, &spec, &executor)));
        });
    }

    // Streamed sharded cohort at study scale: 10k individuals are never
    // materialized at once — each shard job generates, trains and drops
    // its 64 individuals, so `peak_bytes` stays bounded by
    // (workers × shard) while `throughput_per_sec` records
    // individuals/sec; each member trains on its own tape.
    // Individuals are kept tiny (V=3, ~12 time points, 4 epochs) so one
    // full stream fits a bench sample.
    const STREAM_N: usize = 10_000;
    const SHARD: usize = 64;
    let generator = EmaGenerator::new(GeneratorConfig {
        num_individuals: STREAM_N,
        num_variables: 3,
        mean_time_points: 12,
        seed: 2024,
        ..GeneratorConfig::default()
    });
    let mut stream_spec = ExperimentScale::tiny().spec(ModelKind::Lstm, GraphSpec::None, 2);
    stream_spec.model_config = ModelConfig::tiny(0);
    stream_spec.train_config = TrainConfig::quick(4, 7);
    let executor = Executor::with_threads(max);
    harness.bench_function("cohort_stream_10k_batched", |b| {
        b.items(STREAM_N as f64);
        // One full stream costs seconds; a handful of samples keeps the
        // suite under the bench budget (baseline recorded with the same
        // override).
        b.samples(3);
        b.iter(|| {
            black_box(run_cohort_sharded(
                &generator,
                &stream_spec,
                SHARD,
                &executor,
            ))
        });
    });

    // Cluster-then-personalize at the same study scale: K-medoids over
    // representative individuals, 4 cluster models trained once on the
    // caller thread, then every streamed individual fine-tunes a single
    // epoch from its cluster checkpoint instead of training 4 epochs
    // from scratch. Same generator, spec and shard size as the
    // idiographic stream entries above, so the headline comparison
    // (`cohort_stream_10k_warmstart_batched` vs
    // `cohort_stream_10k_batched`) isolates the training-strategy win;
    // `peak_bytes` stays (workers × shard)-bounded — the plan adds only
    // K checkpoints plus K flattened medoid series.
    let warm_spec = RunSpec {
        train_strategy: TrainStrategy::ClusterWarmStart {
            k: 4,
            cluster_epochs: 4,
            fine_tune_epochs: 1,
        },
        ..stream_spec.clone()
    };
    harness.bench_function("cohort_stream_10k_warmstart_batched", |b| {
        b.items(STREAM_N as f64);
        b.samples(3);
        b.iter(|| black_box(run_cohort_sharded(&generator, &warm_spec, SHARD, &executor)));
    });

    // Graph-model streams at the same study scale. Each individual
    // builds its own training-split correlation graph on the worker
    // that generates its shard, so `peak_bytes` stays bounded by
    // (workers × shard) exactly as in the LSTM stream.
    let graph = GraphSpec::Static {
        metric: ema_similarity::GraphMetric::Correlation,
        gdt: ema_graph::sparsify::DensityThreshold::Gdt40,
    };
    // Shard 8, as when the committed baselines were recorded, so the
    // entries still compare like for like.
    const GRAPH_SHARD: usize = 8;
    for (model, label) in [(ModelKind::A3tgcn, "a3tgcn"), (ModelKind::Mtgnn, "mtgnn")] {
        let mut model_spec = ExperimentScale::tiny().spec(model, graph.clone(), 2);
        model_spec.model_config = ModelConfig::tiny(0);
        // Graph forwards cost ~an order of magnitude more than the
        // LSTM's, so halve the epochs to keep one full stream inside a
        // bench sample.
        model_spec.train_config = TrainConfig::quick(2, 7);
        harness.bench_function(&format!("cohort_stream_10k_{label}_batched"), |b| {
            b.items(STREAM_N as f64);
            b.samples(2);
            b.iter(|| {
                black_box(run_cohort_sharded(
                    &generator,
                    &model_spec,
                    GRAPH_SHARD,
                    &executor,
                ))
            });
        });
    }

    harness.finish();
}

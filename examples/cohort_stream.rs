//! Streamed sharded cohort training: the study is generated shard by
//! shard on the executor workers (`EmaGenerator::generate_range`), each
//! shard runs its members one at a time, each end to end (prepare →
//! train with one `Forecaster::predict_windows` per epoch → evaluate)
//! on one reused tape, and a member is dropped before the next starts
//! — so peak heap is bounded by (workers × shard's series), not the
//! study size.
//!
//! ```bash
//! EMA_OBS=full cargo run --release -p ema-core --example cohort_stream
//! ```
//!
//! With `EMA_OBS=full` the run manifest carries the shard telemetry
//! (`exec.shard_batches` / `exec.shard_individuals`, per-worker
//! utilization); render it with
//! `cargo run -p ema-bench --bin obs_report -- cohort_stream`.

use ema_core::{run_cohort_sharded, Executor, GraphSpec, Json, RunSpec, TrainConfig};
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_models::{ModelConfig, ModelKind};
use ema_obs::recorder;

const RUN: &str = "cohort_stream";
const INDIVIDUALS: usize = 256;
const SHARD: usize = 16;

fn main() {
    let obs = recorder().begin_run(
        RUN,
        Json::obj(vec![
            ("example", Json::from(RUN)),
            ("individuals", Json::from(INDIVIDUALS as u64)),
            ("shard_size", Json::from(SHARD as u64)),
        ]),
    );

    let generator = EmaGenerator::new(GeneratorConfig::quick(INDIVIDUALS, 4, 11));
    let mut spec = RunSpec::new(ModelKind::Lstm, GraphSpec::None, 2);
    spec.model_config = ModelConfig::tiny(0);
    spec.train_config = TrainConfig::quick(8, 7);
    let executor = Executor::from_env();

    let start = std::time::Instant::now();
    let outcomes = run_cohort_sharded(&generator, &spec, SHARD, &executor);
    let secs = start.elapsed().as_secs_f64();

    assert_eq!(outcomes.len(), INDIVIDUALS);
    let mean_mse = outcomes.iter().map(|o| o.mse).sum::<f64>() / outcomes.len() as f64;
    println!(
        "streamed {INDIVIDUALS} individuals in shards of {SHARD} on {} worker(s):",
        executor.threads()
    );
    println!(
        "  {:.2} s wall, {:.0} individuals/s, mean test MSE {mean_mse:.4}",
        secs,
        outcomes.len() as f64 / secs
    );

    if obs {
        let summary = recorder().finish_run().expect("summary written");
        println!("obs manifest at {}", summary.display());
    }
}

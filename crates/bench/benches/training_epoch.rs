//! Benchmarks of one full-batch training epoch per model on a
//! paper-sized individual (T ≈ 140, V = 26, Seq5): the unit of work the
//! experiments repeat 300 times per individual. (The series is
//! shortened to T = 80 and sampling kept small so the suite stays
//! tractable on a single core; relative model costs are unaffected.)

use ema_autodiff::{Grads, Tape};
use ema_bench::Harness;
use ema_core::{train_model, TrainConfig};
use ema_data::{make_windows, split_train_test, WindowedData};
use ema_graph::AdjacencyMatrix;
use ema_models::{
    A3tgcn, Astgcn, Forecaster, ForwardCtx, LstmForecaster, ModelConfig, Mtgnn, WindowBatch,
};
use ema_nn::{Adam, Optimizer, OptimizerConfig};
use ema_obs::ObsMode;
use ema_tensor::{Rng64, Tensor};
use std::hint::black_box;

const V: usize = 26;
const SEQ: usize = 5;

fn bench_epoch(c: &mut Harness) {
    let mut rng = Rng64::seed_from(1);
    let data = Tensor::rand_normal(&[80, V], 0.0, 1.0, &mut rng);
    let (train, _) = split_train_test(&data, 0.7);
    let windows = make_windows(&train, SEQ);
    let graph = AdjacencyMatrix::new(Tensor::rand_uniform(&[V, V], 0.0, 1.0, &mut rng));
    let cfg = ModelConfig::default();
    bench_model(c, LstmForecaster::new(V, &cfg), &windows);
    bench_model(c, A3tgcn::new(V, &graph, &cfg), &windows);
    bench_model(c, Astgcn::new(V, SEQ, &graph, &cfg), &windows);
    bench_model(c, Mtgnn::new(V, SEQ, Some(&graph), &cfg), &windows);
}

/// `train_epoch_<model>`: one full-batch epoch of `model` alone — the
/// member forward over its window batch, as `ema_core::train_model`
/// runs it.
fn bench_model(c: &mut Harness, mut model: impl Forecaster, windows: &WindowedData) {
    let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.01));
    let mut drop_rng = Rng64::seed_from(2);
    // Persistent workspaces, exactly like `ema_core::train_cohort`: the
    // measured iteration is a *steady-state* epoch (one tape graph over
    // all windows) — tape node storage, gradient slots, the window
    // batch, the target-leaf tape prefix and pooled tensor buffers all
    // carried over from the previous epoch.
    let mut tape = Tape::new();
    let mut grads = Grads::empty();
    let batch = WindowBatch::from_windows(&windows.inputs);
    let tgt = tape.leaf(windows.targets_matrix());
    let keep = tape.len();
    c.bench_function(&format!("train_epoch_{}", model.name()), |b| {
        b.iter(|| {
            tape.reset_to(keep);
            let binding = model.params().bind(&tape);
            let mut ctx = ForwardCtx::train(&mut drop_rng);
            let stacked = model.predict_windows(&tape, &binding, &batch, &mut ctx);
            let loss = tape.mse(stacked, tgt);
            tape.backward_into(loss, &mut grads);
            adam.step(model.params_mut(), &binding, &grads);
            black_box(tape.value(loss))
        })
    });
}

/// The observability tax: the same short LSTM training run timed under
/// `EMA_OBS=off` (inert span guards, kernel counting disabled) and
/// `full` (spans profiled + emitted, kernel FLOP/byte counters live).
/// The two medians land in `BENCH_training_epoch.json`, so `bench_gate`
/// holds the line on both and their ratio tracks the instrumentation
/// overhead — the contract is that `full` stays within a few percent of
/// `off` on the epoch hot path.
fn bench_obs_overhead(c: &mut Harness) {
    let mut rng = Rng64::seed_from(3);
    let data = Tensor::rand_normal(&[80, V], 0.0, 1.0, &mut rng);
    let (train, _) = split_train_test(&data, 0.7);
    let windows = make_windows(&train, SEQ);
    let config = TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    };
    let restore = ema_obs::mode();
    for (label, mode) in [("off", ObsMode::Off), ("full", ObsMode::Full)] {
        ema_obs::set_mode(mode);
        let mut model = LstmForecaster::new(V, &ModelConfig::default());
        c.bench_function(&format!("obs_overhead_{label}"), |b| {
            b.iter(|| black_box(train_model(&mut model, &windows, &config).final_loss()))
        });
    }
    ema_obs::set_mode(restore);
}

fn main() {
    let mut harness = Harness::new("training_epoch");
    bench_epoch(&mut harness);
    bench_obs_overhead(&mut harness);
    harness.finish();
}

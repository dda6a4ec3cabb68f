//! Benchmarks of one member's training forward (and forward+backward)
//! per model at paper dimensions: V = 26, hidden = 32, Seq5 windows over
//! the 70% training split of a T = 140 series (93 windows). Each entry
//! runs what one training epoch runs before its optimizer step:
//! `Forecaster::predict_windows` over the member's `WindowBatch` in
//! train mode, on a tape reused from its target-leaf prefix
//! (`train_epoch_*` in `training_epoch.rs` adds the Adam step).

use ema_autodiff::{Grads, Tape};
use ema_bench::Harness;
use ema_data::{make_windows, split_train_test, WindowedData};
use ema_graph::AdjacencyMatrix;
use ema_models::{
    A3tgcn, Astgcn, Forecaster, ForwardCtx, LstmForecaster, ModelConfig, Mtgnn, WindowBatch,
};
use ema_tensor::{Rng64, Tensor};
use std::hint::black_box;

const V: usize = 26;
const SEQ: usize = 5;
/// Time points of a paper-sized individual (T̄ ≈ 140).
const T: usize = 140;

/// The four paper models, built as the pipeline builds them, and one
/// member's training windows.
fn setup() -> (Vec<Box<dyn Forecaster>>, WindowedData) {
    let mut rng = Rng64::seed_from(1);
    let graph = AdjacencyMatrix::new(Tensor::rand_uniform(&[V, V], 0.0, 1.0, &mut rng));
    let data = Tensor::rand_normal(&[T, V], 0.0, 1.0, &mut rng);
    let (train, _) = split_train_test(&data, 0.7);
    let cfg = ModelConfig::default();
    let models: Vec<Box<dyn Forecaster>> = vec![
        Box::new(LstmForecaster::new(V, &cfg)),
        Box::new(A3tgcn::new(V, &graph, &cfg)),
        Box::new(Astgcn::new(V, SEQ, &graph, &cfg)),
        Box::new(Mtgnn::new(V, SEQ, Some(&graph), &cfg)),
    ];
    (models, make_windows(&train, SEQ))
}

/// `forward_<model>`: the member forward alone, and
/// `forward_backward_<model>`: the forward, its MSE and the backward
/// pass into a reused `Grads`.
fn bench_model(c: &mut Harness, model: &dyn Forecaster, windows: &WindowedData) {
    let batch = WindowBatch::from_windows(&windows.inputs);
    let mut tape = Tape::new();
    let tgt = tape.leaf(windows.targets_matrix());
    let keep = tape.len();
    let mut grads = Grads::empty();
    let mut rng = Rng64::seed_from(2);
    c.bench_function(&format!("forward_{}", model.name()), |b| {
        b.iter(|| {
            tape.reset_to(keep);
            let binding = model.params().bind(&tape);
            let mut ctx = ForwardCtx::train(&mut rng);
            black_box(model.predict_windows(&tape, &binding, &batch, &mut ctx))
        })
    });
    c.bench_function(&format!("forward_backward_{}", model.name()), |b| {
        b.iter(|| {
            tape.reset_to(keep);
            let binding = model.params().bind(&tape);
            let mut ctx = ForwardCtx::train(&mut rng);
            let pred = model.predict_windows(&tape, &binding, &batch, &mut ctx);
            let loss = tape.mse(pred, tgt);
            tape.backward_into(loss, &mut grads);
            black_box(tape.value(loss))
        })
    });
}

fn main() {
    let (models, windows) = setup();
    let mut harness = Harness::new("model_step");
    for model in &models {
        bench_model(&mut harness, model.as_ref(), &windows);
    }
    harness.finish();
}

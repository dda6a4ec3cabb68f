//! Benchmarks of one forward pass (and forward+backward) per model at
//! paper dimensions: V = 26, hidden = 32, Seq5 windows.

use ema_autodiff::Tape;
use ema_bench::Harness;
use ema_graph::AdjacencyMatrix;
use ema_models::{build_model, Forecaster, ForwardCtx, ModelConfig, ModelKind};
use ema_tensor::{Rng64, Tensor};
use std::hint::black_box;

const V: usize = 26;
const SEQ: usize = 5;

fn setup(kind: ModelKind) -> (Box<dyn Forecaster>, Tensor) {
    let mut rng = Rng64::seed_from(1);
    let graph = AdjacencyMatrix::new(Tensor::rand_uniform(&[V, V], 0.0, 1.0, &mut rng));
    let config = ModelConfig::default();
    let g = if kind.uses_graph() {
        Some(&graph)
    } else {
        None
    };
    let model = build_model(kind, V, SEQ, &config, g);
    let window = Tensor::rand_normal(&[SEQ, V], 0.0, 1.0, &mut rng);
    (model, window)
}

fn bench_forward(c: &mut Harness) {
    for kind in ModelKind::all() {
        let (model, window) = setup(kind);
        let mut rng = Rng64::seed_from(2);
        c.bench_function(&format!("forward_{}", kind.label()), |b| {
            b.iter(|| model.predict(black_box(&window), &mut rng))
        });
    }
}

fn bench_forward_backward(c: &mut Harness) {
    for kind in ModelKind::all() {
        let (model, window) = setup(kind);
        let target = Tensor::zeros(&[V]);
        let mut rng = Rng64::seed_from(3);
        c.bench_function(&format!("forward_backward_{}", kind.label()), |b| {
            b.iter(|| {
                let tape = Tape::new();
                let binding = model.params().bind(&tape);
                let mut ctx = ForwardCtx::train(&mut rng);
                let pred = model.predict_window(&tape, &binding, &window, &mut ctx);
                let tgt = tape.leaf(target.clone());
                let loss = tape.mse(pred, tgt);
                black_box(tape.backward(loss))
            })
        });
    }
}

fn main() {
    let mut harness = Harness::new("model_step");
    bench_forward(&mut harness);
    bench_forward_backward(&mut harness);
    harness.finish();
}

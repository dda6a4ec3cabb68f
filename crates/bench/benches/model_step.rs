//! Benchmarks of one forward pass (and forward+backward) per model at
//! paper dimensions: V = 26, hidden = 32, Seq5 windows.

use ema_autodiff::Tape;
use ema_bench::Harness;
use ema_graph::AdjacencyMatrix;
use ema_models::{A3tgcn, Astgcn, Forecaster, ForwardCtx, LstmForecaster, ModelConfig, Mtgnn};
use ema_tensor::{Rng64, Tensor};
use std::hint::black_box;

const V: usize = 26;
const SEQ: usize = 5;

/// The four paper models, built as the pipeline builds them, and one
/// input window.
fn setup() -> (Vec<Box<dyn Forecaster>>, Tensor) {
    let mut rng = Rng64::seed_from(1);
    let graph = AdjacencyMatrix::new(Tensor::rand_uniform(&[V, V], 0.0, 1.0, &mut rng));
    let window = Tensor::rand_normal(&[SEQ, V], 0.0, 1.0, &mut rng);
    let cfg = ModelConfig::default();
    let models: Vec<Box<dyn Forecaster>> = vec![
        Box::new(LstmForecaster::new(V, &cfg)),
        Box::new(A3tgcn::new(V, &graph, &cfg)),
        Box::new(Astgcn::new(V, SEQ, &graph, &cfg)),
        Box::new(Mtgnn::new(V, SEQ, Some(&graph), &cfg)),
    ];
    (models, window)
}

fn bench_forward(c: &mut Harness, models: &[Box<dyn Forecaster>], window: &Tensor) {
    for model in models {
        let mut rng = Rng64::seed_from(2);
        c.bench_function(&format!("forward_{}", model.name()), |b| {
            b.iter(|| model.predict(black_box(window), &mut rng))
        });
    }
}

fn bench_forward_backward(c: &mut Harness, models: &[Box<dyn Forecaster>], window: &Tensor) {
    for model in models {
        let target = Tensor::zeros(&[V]);
        let mut rng = Rng64::seed_from(3);
        c.bench_function(&format!("forward_backward_{}", model.name()), |b| {
            b.iter(|| {
                let tape = Tape::new();
                let binding = model.params().bind(&tape);
                let mut ctx = ForwardCtx::train(&mut rng);
                let pred = model.predict_window(&tape, &binding, window, &mut ctx);
                let tgt = tape.leaf(target.clone());
                let loss = tape.mse(pred, tgt);
                black_box(tape.backward(loss))
            })
        });
    }
}

fn main() {
    let (models, window) = setup();
    let mut harness = Harness::new("model_step");
    bench_forward(&mut harness, &models, &window);
    bench_forward_backward(&mut harness, &models, &window);
    harness.finish();
}

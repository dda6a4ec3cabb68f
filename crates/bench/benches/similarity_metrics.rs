//! Benchmarks of the graph-construction metrics at paper scale
//! (T = 140 time points, V = 26 variables).

use ema_bench::Harness;
use ema_similarity::{build_graph, dtw, GraphMetric};
use ema_tensor::{Rng64, Tensor};
use std::hint::black_box;

fn paper_scale_data() -> Tensor {
    let mut rng = Rng64::seed_from(7);
    Tensor::rand_normal(&[140, 26], 0.0, 1.0, &mut rng)
}

fn bench_metrics(c: &mut Harness) {
    let data = paper_scale_data();
    for metric in [
        GraphMetric::Euclidean,
        GraphMetric::Knn(5),
        GraphMetric::Correlation,
    ] {
        c.bench_function(&format!("build_graph_{}", metric.label()), |b| {
            b.iter(|| build_graph(black_box(&data), metric))
        });
    }
}

fn bench_dtw(c: &mut Harness) {
    let mut rng = Rng64::seed_from(8);
    let x: Vec<f64> = (0..140).map(|_| rng.normal()).collect();
    let y: Vec<f64> = (0..140).map(|_| rng.normal()).collect();
    c.bench_function("dtw_full_140", |b| {
        b.iter(|| dtw::dtw_distance(black_box(&x), black_box(&y)))
    });
    c.bench_function("dtw_band10_140", |b| {
        b.iter(|| dtw::dtw_distance_banded(black_box(&x), black_box(&y), 10))
    });
    let data = paper_scale_data();
    c.bench_function("dtw_graph_140x26", |b| {
        b.iter(|| dtw::dtw_graph(black_box(&data)))
    });
}

fn main() {
    let mut harness = Harness::new("similarity_metrics");
    bench_metrics(&mut harness);
    bench_dtw(&mut harness);
    harness.finish();
}

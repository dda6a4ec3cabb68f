//! Microbenchmarks of the tensor substrate at EMA-relevant sizes
//! (V = 26 variables, hidden = 32).

use ema_bench::Harness;
use ema_tensor::{kernels, Rng64, Tensor};
use std::hint::black_box;

fn bench_matmul(c: &mut Harness) {
    let mut rng = Rng64::seed_from(1);
    let a = Tensor::rand_normal(&[26, 32], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(&[32, 32], 0.0, 1.0, &mut rng);
    c.bench_function("matmul_26x32_32x32", |bencher| {
        bencher.iter(|| black_box(&a).matmul(black_box(&b)))
    });

    let big_a = Tensor::rand_normal(&[128, 128], 0.0, 1.0, &mut rng);
    let big_b = Tensor::rand_normal(&[128, 128], 0.0, 1.0, &mut rng);
    c.bench_function("matmul_128x128", |bencher| {
        bencher.iter(|| black_box(&big_a).matmul(black_box(&big_b)))
    });

    // Hot training-epoch shapes over 94 row-stacked windows of V = 26
    // rows: the stacked grouped-linear product over ReLU output (about
    // half its lhs entries are exact zeros), the n = 1 output layer,
    // and one per-window weight-gradient piece `xᵀ·g`.
    let hidden = Tensor::rand_normal(&[2444, 32], 0.0, 1.0, &mut rng).relu();
    let w = Tensor::rand_normal(&[32, 32], 0.0, 1.0, &mut rng);
    c.bench_function("matmul_2444x32_32x32_relu", |bencher| {
        bencher.iter(|| black_box(&hidden).matmul(black_box(&w)))
    });
    let w_out = Tensor::rand_normal(&[32, 1], 0.0, 1.0, &mut rng);
    c.bench_function("matmul_2444x32_32x1", |bencher| {
        bencher.iter(|| black_box(&hidden).matmul(black_box(&w_out)))
    });
    let x = Tensor::rand_normal(&[26, 32], 0.0, 1.0, &mut rng);
    let g = Tensor::rand_normal(&[26, 32], 0.0, 1.0, &mut rng);
    let mut grad = vec![0.0; 32 * 32];
    c.bench_function("matmul_tn_into_26x32_26x32", |bencher| {
        bencher.iter(|| {
            kernels::matmul_tn_into(
                black_box(x.data()),
                black_box(g.data()),
                &mut grad,
                26,
                32,
                32,
            );
            black_box(&grad);
        })
    });
}

fn bench_elementwise(c: &mut Harness) {
    let mut rng = Rng64::seed_from(2);
    let a = Tensor::rand_normal(&[26, 32], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(&[26, 32], 0.0, 1.0, &mut rng);
    c.bench_function("elementwise_add_26x32", |bencher| {
        bencher.iter(|| black_box(&a).add(black_box(&b)))
    });
    c.bench_function("tanh_26x32", |bencher| {
        bencher.iter(|| black_box(&a).tanh())
    });
    c.bench_function("softmax_rows_26x32", |bencher| {
        bencher.iter(|| black_box(&a).softmax_last())
    });
}

fn bench_reductions(c: &mut Harness) {
    let mut rng = Rng64::seed_from(3);
    let a = Tensor::rand_normal(&[140, 26], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(&[140, 26], 0.0, 1.0, &mut rng);
    c.bench_function("mse_140x26", |bencher| {
        bencher.iter(|| black_box(&a).mse(black_box(&b)))
    });
    c.bench_function("col_sums_140x26", |bencher| {
        bencher.iter(|| black_box(&a).col_sums())
    });
}

fn main() {
    let mut harness = Harness::new("tensor_ops");
    bench_matmul(&mut harness);
    bench_elementwise(&mut harness);
    bench_reductions(&mut harness);
    harness.finish();
}

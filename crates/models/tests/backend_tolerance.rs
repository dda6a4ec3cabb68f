//! End-to-end kernel-backend tolerance: train every paper model a few
//! epochs under the scalar oracle and under the SIMD backend, then
//! compare final losses and eval predictions.
//!
//! Unlike the kernel-level suite
//! (`crates/tensor/tests/backend_equivalence.rs`), which bounds a
//! *single* matmul, training feeds each epoch's rounding differences
//! back through the next epoch's forward pass, so scalar and SIMD runs
//! drift apart geometrically rather than linearly. The documented
//! tolerances below are therefore empirical: measured drift after
//! `EPOCHS` epochs sits at a few ulps (~1e-16) on every model at this
//! scale, and the asserted 1e-9 bounds carry six to seven orders of
//! magnitude of margin while remaining strict enough that any real
//! backend divergence (wrong accumulation order, a dropped element, a
//! lane mix-up) fails immediately.
//!
//! On machines without AVX2+FMA both runs execute the scalar kernel and
//! the comparison is exact.

use ema_autodiff::{Grads, Tape};
use ema_graph::AdjacencyMatrix;
use ema_models::{
    A3tgcn, Astgcn, Forecaster, ForwardCtx, LstmForecaster, ModelConfig, ModelKind, Mtgnn,
    WindowBatch,
};
use ema_nn::{Adam, Optimizer, OptimizerConfig};
use ema_tensor::{KernelBackend, Rng64, Tensor};

const V: usize = 8;
const SEQ: usize = 4;
const WINS: usize = 6;
const EPOCHS: usize = 8;

/// Max |scalar − simd| on any eval prediction element after training.
const PRED_TOL: f64 = 1e-9;
/// Max relative difference in the final training loss.
const LOSS_REL_TOL: f64 = 1e-9;

struct Trained {
    final_loss: f64,
    predictions: Tensor,
}

/// Builds `kind` fresh from `seed` and trains it (see [`train`]) —
/// everything, construction included, computed under `backend`.
fn train_under(kind: ModelKind, seed: u64, backend: KernelBackend) -> Trained {
    let _scope = backend.scoped();
    let cfg = ModelConfig::tiny(seed);
    let graph = AdjacencyMatrix::complete(V);
    match kind {
        ModelKind::Lstm => train(LstmForecaster::new(V, &cfg), seed),
        ModelKind::A3tgcn => train(A3tgcn::new(V, &graph, &cfg), seed),
        ModelKind::Astgcn => train(Astgcn::new(V, SEQ, &graph, &cfg), seed),
        ModelKind::Mtgnn => train(Mtgnn::new(V, SEQ, Some(&graph), &cfg), seed),
        ModelKind::Var => unreachable!("the paper models only"),
    }
}

/// Trains `model` for `EPOCHS` full-batch Adam epochs on synthetic
/// windows drawn from `seed`, and returns the final loss plus eval-mode
/// predictions. Mirrors the steady-state loop in
/// `ema_core::train_cohort` for one individual.
fn train(mut model: impl Forecaster, seed: u64) -> Trained {
    let mut data_rng = Rng64::seed_from(seed ^ 0xA5A5_5A5A);
    let windows: Vec<Tensor> = (0..WINS)
        .map(|_| Tensor::rand_normal(&[SEQ, V], 0.0, 1.0, &mut data_rng))
        .collect();
    let targets = Tensor::rand_normal(&[WINS, V], 0.0, 1.0, &mut data_rng);
    let batch = WindowBatch::from_windows(&windows);

    let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.01));
    let mut drop_rng = Rng64::seed_from(seed.wrapping_add(13));
    let mut tape = Tape::new();
    let mut grads = Grads::empty();
    let tgt = tape.leaf(targets.clone());
    let keep = tape.len();

    let mut final_loss = f64::NAN;
    for _ in 0..EPOCHS {
        tape.reset_to(keep);
        let binding = model.params().bind(&tape);
        let mut ctx = ForwardCtx::train(&mut drop_rng);
        let stacked = model.predict_windows(&tape, &binding, &batch, &mut ctx);
        let loss = tape.mse(stacked, tgt);
        tape.backward_into(loss, &mut grads);
        adam.step(model.params_mut(), &binding, &grads);
        final_loss = tape.value(loss).data()[0];
    }

    tape.reset_to(keep);
    let binding = model.params().bind(&tape);
    let mut eval_rng = Rng64::seed_from(0);
    let mut ctx = ForwardCtx::eval(&mut eval_rng);
    let out = model.predict_windows(&tape, &binding, &batch, &mut ctx);
    Trained {
        final_loss,
        predictions: tape.value(out),
    }
}

#[test]
fn trained_models_agree_across_backends_within_tolerance() {
    for kind in ModelKind::all() {
        let scalar = train_under(kind, 17, KernelBackend::Scalar);
        let simd = train_under(kind, 17, KernelBackend::Simd);

        let max_pred_diff = scalar
            .predictions
            .data()
            .iter()
            .zip(simd.predictions.data().iter())
            .map(|(&s, &v)| (s - v).abs())
            .fold(0.0f64, f64::max);
        eprintln!(
            "{}: max pred diff {max_pred_diff:e}, losses {} vs {}",
            kind.label(),
            scalar.final_loss,
            simd.final_loss
        );
        let loss_rel = (scalar.final_loss - simd.final_loss).abs()
            / scalar.final_loss.abs().max(f64::MIN_POSITIVE);
        assert!(
            loss_rel <= LOSS_REL_TOL,
            "{}: final losses diverged across backends: scalar {} vs simd {} (rel {loss_rel})",
            kind.label(),
            scalar.final_loss,
            simd.final_loss
        );

        assert_eq!(scalar.predictions.dims(), simd.predictions.dims());
        for (i, (&s, &v)) in scalar
            .predictions
            .data()
            .iter()
            .zip(simd.predictions.data().iter())
            .enumerate()
        {
            assert!(
                (s - v).abs() <= PRED_TOL,
                "{}: predictions diverged at flat index {i}: scalar {s} vs simd {v}",
                kind.label()
            );
        }
    }
}

#[test]
fn training_is_deterministic_within_each_backend() {
    for kind in ModelKind::all() {
        for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
            let first = train_under(kind, 29, backend);
            let again = train_under(kind, 29, backend);
            assert!(
                first.final_loss.to_bits() == again.final_loss.to_bits(),
                "{} ({}): final loss not byte-identical across reruns",
                kind.label(),
                backend.label()
            );
            let same = first
                .predictions
                .data()
                .iter()
                .zip(again.predictions.data().iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "{} ({}): predictions not byte-identical across reruns",
                kind.label(),
                backend.label()
            );
        }
    }
}

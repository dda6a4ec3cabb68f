//! Probes run after the traced replay: one steady-state training epoch
//! of the workload's own model split into forward, backward and
//! optimizer time, and the host's achievable matmul rate.

use crate::replay::{dispatch, GroupTask, Prepared};
use crate::stats::median;
use crate::trace::{Tag, Trace};
use crate::workload::{Input, Instance};
use ema_autodiff::{Grads, Tape};
use ema_core::ClusterPlan;
use ema_models::{CohortBatch, CohortCtx, CohortForecaster, WindowBatch};
use ema_nn::{Adam, Binding, Optimizer, OptimizerConfig};
use ema_tensor::{KernelBackend, Rng64, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Epochs run before timing starts (tape and pool buffers fill).
const WARM_EPOCHS: usize = 2;
/// Epochs timed; each figure is their median.
const TIMED_EPOCHS: usize = 5;

/// Side of the square operands of the peak-matmul probe. Each f64
/// operand is 8 MiB, so A, B and C together (24 MiB) are six times a
/// 4 MiB L2.
pub const PEAK_MATMUL_N: usize = 1024;
/// Timed repetitions of the peak-matmul probe (after one warm-up call).
const PEAK_MATMUL_REPS: usize = 3;

/// Median per-epoch cost of one steady-state epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochProbe {
    /// `predict_cohort` wall time, ms.
    pub forward_ms: f64,
    /// `backward_into` wall time, ms.
    pub backward_ms: f64,
    /// Adam steps for the whole group, ms.
    pub adam_ms: f64,
    /// Tape nodes after one epoch.
    pub tape_nodes: usize,
}

/// Times training epochs of the workload's model on its first job's
/// group: one individual for a cohort (B=1), the first shard for a
/// stream. A warm-starting stream restores each individual's cluster
/// checkpoint from `plan` first.
#[must_use]
pub fn epoch_probe(inst: &Instance, plan: Option<&ClusterPlan>) -> EpochProbe {
    let individuals = match &inst.input {
        Input::Cohort { dataset, .. } => dataset.individuals[..1].to_vec(),
        Input::Stream { generator, shard } => {
            generator.generate_range(0, (*shard).min(generator.config().num_individuals))
        }
    };
    let _kernel = inst.spec.train_config.kernel_backend.scoped();
    let trace = Trace::new();
    dispatch(&individuals, &inst.spec, plan, &trace, Tag::Run, EpochTimer)
}

/// Runs the probe's epochs on a prepared group.
struct EpochTimer;

impl GroupTask for EpochTimer {
    type Output = EpochProbe;

    /// Mirrors one `train_cohort` epoch: bind, `predict_cohort`, one
    /// MSE loss per individual summed pairwise, `backward_into`, one
    /// Adam step per individual.
    fn run<M: CohortForecaster>(self, group: Prepared<M>, _trace: &Trace) -> EpochProbe {
        let Prepared {
            mut models,
            train,
            configs,
            ..
        } = group;
        for (model, config) in models.iter_mut().zip(&configs) {
            if let Some(ckpt) = &config.warm_start {
                ckpt.restore(model.params_mut())
                    .expect("cluster checkpoints match the workload's model");
            }
        }
        let batches: Vec<WindowBatch> = train
            .iter()
            .map(|w| WindowBatch::from_windows(&w.inputs))
            .collect();
        let cohort = CohortBatch::from_batches(&batches.iter().collect::<Vec<_>>());
        let mut adams: Vec<Adam> = configs
            .iter()
            .map(|c| {
                Adam::new(OptimizerConfig {
                    learning_rate: c.learning_rate,
                    grad_clip: c.grad_clip,
                    ..OptimizerConfig::default()
                })
            })
            .collect();
        let mut rngs: Vec<Rng64> = configs.iter().map(|c| Rng64::seed_from(c.seed)).collect();
        let mut tape = Tape::new();
        let mut grads = Grads::empty();
        let targets: Vec<_> = train
            .iter()
            .map(|w| tape.leaf(w.targets_matrix()))
            .collect();
        let keep = tape.len();
        let (mut forward, mut backward, mut adam) = (Vec::new(), Vec::new(), Vec::new());
        for epoch in 0..WARM_EPOCHS + TIMED_EPOCHS {
            tape.reset_to(keep);
            let bindings: Vec<Binding> = models.iter().map(|m| m.params().bind(&tape)).collect();
            let t = Instant::now();
            let out = {
                let group: Vec<&M> = models.iter().collect();
                let binding_refs: Vec<&Binding> = bindings.iter().collect();
                M::predict_cohort(
                    &group,
                    &tape,
                    &binding_refs,
                    &cohort,
                    &mut CohortCtx::train(&mut rngs),
                )
            };
            let forward_s = t.elapsed().as_secs_f64();
            let mut total = None;
            for (b, &target) in targets.iter().enumerate() {
                let off = cohort.offset(b);
                let pred = tape.slice_rows(out, off, off + cohort.group_wins()[b]);
                let loss = tape.mse(pred, target);
                total = Some(total.map_or(loss, |acc| tape.add(acc, loss)));
            }
            let t = Instant::now();
            tape.backward_into(total.expect("non-empty group"), &mut grads);
            let backward_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for ((model, binding), opt) in models.iter_mut().zip(&bindings).zip(&mut adams) {
                opt.step(model.params_mut(), binding, &grads);
            }
            let adam_s = t.elapsed().as_secs_f64();
            if epoch >= WARM_EPOCHS {
                forward.push(forward_s * 1e3);
                backward.push(backward_s * 1e3);
                adam.push(adam_s * 1e3);
            }
        }
        EpochProbe {
            forward_ms: median(&forward).expect("timed epochs"),
            backward_ms: median(&backward).expect("timed epochs"),
            adam_ms: median(&adam).expect("timed epochs"),
            tape_nodes: tape.len(),
        }
    }
}

/// Best matmul rate of `PEAK_MATMUL_N`² × `PEAK_MATMUL_N`² products on
/// the default kernel backend, in GFLOP/s (single thread, `2·n³` FLOPs
/// per product).
#[must_use]
pub fn peak_matmul_gflops() -> f64 {
    let _kernel = KernelBackend::default().scoped();
    let n = PEAK_MATMUL_N;
    let mut rng = Rng64::seed_from(1);
    let a = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
    black_box(a.matmul(&b));
    let flops = 2.0 * (n as f64).powi(3);
    (0..PEAK_MATMUL_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(black_box(&a).matmul(black_box(&b)));
            flops / t.elapsed().as_secs_f64() * 1e-9
        })
        .fold(0.0, f64::max)
}

//! Full-batch personalized training (paper Section V-D): one loop,
//! `train_member`, trains one individual on a tape and gradient
//! workspace its caller reuses; [`train_cohort`] runs it for a cohort,
//! one member after another, and the pipeline's shard body for each
//! member it prepares. `predict_member` (and [`predict_all`] over a
//! cohort) runs the eval forward the same way.

use ema_autodiff::{Grads, Tape};
use ema_data::WindowedData;
use ema_models::{Forecaster, ForwardCtx, WindowBatch};
use ema_nn::{Adam, Optimizer, OptimizerConfig, ParamStore};
use ema_obs::metrics::{EPOCH_BUCKETS, GRAD_NORM_BUCKETS, LOSS_BUCKETS};
use ema_obs::point;
use ema_tensor::{KernelBackend, Rng64, Tensor};

/// Training hyper-parameters. Defaults follow the paper: Adam with
/// lr = 0.01, one batch per individual, 300 epochs, dropout handled by
/// the models themselves (rate 0.3).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs (paper: 300).
    pub epochs: usize,
    /// Adam learning rate (paper: 0.01).
    pub learning_rate: f64,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f64,
    /// Seed for dropout masks.
    pub seed: u64,
    /// Stop early when the training loss improves by less than this
    /// relative amount over `patience` epochs. **`0` disables early
    /// stopping entirely** (the default), in which case `patience` is
    /// never consulted and every run goes the full `epochs`.
    pub early_stop_rel: f64,
    /// Early-stopping patience in epochs. Only meaningful when
    /// `early_stop_rel > 0`; ignored otherwise (see `early_stop_rel`).
    pub patience: usize,
    /// Which matmul kernel backend the run executes on (default: the
    /// process resolution of `EMA_KERNEL` — SIMD where available).
    /// `Scalar` pins the bit-identity oracle regardless of environment.
    pub kernel_backend: KernelBackend,
    /// Warm start: restore these parameters (bit-exact, through
    /// [`ParamStore::restore`]) over the model's seeded init before the
    /// first epoch — the cluster-then-personalize fine-tune path.
    /// **RNG contract:** the model's init draws come from its own
    /// constructor RNG (`ModelConfig::seed`), entirely separate from
    /// this config's dropout stream, so a warm-started run consumes
    /// *identical* training draw order to a cold run — the restore only
    /// overwrites values. With `epochs == 0` the run is a pure restore:
    /// no training RNG is created and zero draws are consumed. `Arc` so
    /// one cluster's parameters are shared across a shard's individuals
    /// without copying them.
    pub warm_start: Option<std::sync::Arc<ParamStore>>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 300,
            learning_rate: 0.01,
            grad_clip: 5.0,
            seed: 7,
            early_stop_rel: 0.0,
            patience: 25,
            kernel_backend: KernelBackend::default(),
            warm_start: None,
        }
    }
}

impl TrainConfig {
    /// A short schedule for tests and quick experiment presets.
    #[must_use]
    pub fn quick(epochs: usize, seed: u64) -> Self {
        Self {
            epochs,
            seed,
            early_stop_rel: 1e-4,
            ..Self::default()
        }
    }
}

/// What happened during training.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Training loss per epoch (length ≤ `epochs` with early stopping).
    pub losses: Vec<f64>,
    /// Global gradient L2 norm per epoch (same length as `losses`),
    /// measured before clipping.
    pub grad_norms: Vec<f64>,
    /// Number of epochs actually run.
    pub epochs_run: usize,
    /// Whether the early-stopping rule truncated the schedule.
    pub early_stopped: bool,
}

impl TrainReport {
    /// The final training loss.
    ///
    /// # Panics
    /// Panics if no epochs ran.
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        *self.losses.last().expect("at least one epoch")
    }

    /// The final training loss, or `default` when no epochs ran (a
    /// 0-epoch warm-start restore run has no training loss).
    #[must_use]
    pub fn final_loss_or(&self, default: f64) -> f64 {
        self.losses.last().copied().unwrap_or(default)
    }
}

/// Trains a model on an individual's windows with full-batch Adam:
/// every epoch, all windows are forwarded on one tape, the stacked
/// predictions are scored against the stacked targets with MSE, and one
/// optimizer step is taken ("each individual's data is processed in a
/// single batch", Sec. V-D). A one-model [`train_cohort`].
///
/// With `warm_start` set, its parameters are restored (bit-exact) over
/// the seeded init first; `epochs == 0` is then a pure restore run that
/// consumes zero RNG draws and returns an empty report.
///
/// # Panics
/// Panics on an empty window set, or on zero epochs without
/// warm-start parameters.
pub fn train_model<M: Forecaster>(
    model: &mut M,
    windows: &WindowedData,
    config: &TrainConfig,
) -> TrainReport {
    let mut reports = train_cohort(
        std::slice::from_mut(model),
        std::slice::from_ref(windows),
        std::slice::from_ref(config),
    );
    reports.pop().expect("one report per model")
}

/// Trains `models[b]` on `windows[b]` under `configs[b]` for every `b`,
/// one member after another on one `Tape` and one `Grads` workspace
/// (the training loop, `train_member`). The tape holds one member's graph at a time, so
/// its working set stays in cache at any cohort size, and a member's
/// result never depends on the rest of the cohort. All configs must
/// agree on the kernel backend (one thread-local pin covers the run).
///
/// # Panics
/// Panics on empty inputs, length mismatches, disagreeing kernel
/// backends, an empty window set, or zero epochs without warm-start
/// parameters.
pub fn train_cohort<M: Forecaster>(
    models: &mut [M],
    windows: &[WindowedData],
    configs: &[TrainConfig],
) -> Vec<TrainReport> {
    let n = models.len();
    assert!(n > 0, "cannot train an empty cohort");
    assert_eq!(n, windows.len(), "one window set per model");
    assert_eq!(n, configs.len(), "one config per model");
    for (b, c) in configs.iter().enumerate() {
        assert_eq!(
            c.kernel_backend, configs[0].kernel_backend,
            "individual {b}: cohort configs must share the kernel backend"
        );
    }
    // Pin the configured kernel backend for the whole run. The scope is
    // thread-local and training runs entirely on the calling thread, so
    // concurrent runs with different backends cannot perturb each other.
    let _kernel = configs[0].kernel_backend.scoped();
    let (mut tape, mut grads) = (Tape::new(), Grads::empty());
    let reports = models
        .iter_mut()
        .zip(windows)
        .zip(configs)
        .enumerate()
        .map(|(b, ((model, w), config))| train_member(b, model, w, config, &mut tape, &mut grads))
        .collect();
    // Attribute the run's kernel work to the current phase; under the
    // executor the job-level drain may get there first — take-semantics
    // make both safe.
    ema_obs::drain_kernel_counters();
    reports
}

/// Trains one model on its windows with full-batch Adam for its whole
/// schedule — the training loop. Every epoch forwards all windows
/// through [`Forecaster::predict_windows`] (one [`WindowBatch`] built
/// once), scores them against the targets with MSE, runs one backward
/// pass and takes one Adam step. The tape and gradient workspace are
/// the caller's, reused from member to member: `reset` before the
/// member, `reset_to` its target-leaf prefix between epochs, so
/// steady-state epochs allocate almost nothing. The member's Adam
/// state, RNG stream and early-stopping counters live only while it
/// trains.
///
/// A config with `warm_start` set restores its parameters into the
/// model before its first epoch; with `epochs == 0` that is a pure
/// restore that consumes zero training draws and returns an empty
/// report.
///
/// Obs: one `train_epoch` point per epoch (`individual` is `b`, the
/// member's position in its cohort or shard) and one `early_stop`
/// point when the member stops early.
///
/// # Panics
/// Panics on an empty window set, or on zero epochs without
/// warm-start parameters.
pub(crate) fn train_member(
    b: usize,
    model: &mut dyn Forecaster,
    windows: &WindowedData,
    config: &TrainConfig,
    tape: &mut Tape,
    grads: &mut Grads,
) -> TrainReport {
    assert!(
        !windows.is_empty(),
        "individual {b}: cannot train on zero windows"
    );
    assert!(
        config.epochs > 0 || config.warm_start.is_some(),
        "individual {b}: need at least one epoch (or warm-start parameters to restore)"
    );
    if let Some(params) = &config.warm_start {
        params
            .restore(model.params_mut())
            .expect("warm-start parameters must match the model architecture");
    }
    let mut report = TrainReport {
        losses: Vec::with_capacity(config.epochs),
        grad_norms: Vec::with_capacity(config.epochs),
        epochs_run: 0,
        early_stopped: false,
    };
    if config.epochs == 0 {
        return report;
    }
    let obs = ema_obs::recorder();
    // The target is constant: a leaf in a persistent tape prefix that
    // `reset_to` keeps alive. Vars do not survive reset, so parameters
    // rebind per epoch.
    tape.reset();
    let target = tape.leaf(windows.targets_matrix());
    let keep = tape.len();
    let batch = WindowBatch::from_windows(&windows.inputs);
    let mut rng = Rng64::seed_from(config.seed);
    let mut adam = Adam::new(OptimizerConfig {
        learning_rate: config.learning_rate,
        grad_clip: config.grad_clip,
    });
    let (mut best, mut since_best) = (f64::INFINITY, 0);
    for epoch in 0..config.epochs {
        tape.reset_to(keep);
        let binding = model.params().bind(tape);
        let out = model.predict_windows(tape, &binding, &batch, &mut ForwardCtx::train(&mut rng));
        let loss_var = tape.mse(out, target);
        tape.backward_into(loss_var, grads);
        let loss = tape.value(loss_var).data()[0];
        let grad_norm = adam.step(model.params_mut(), &binding, grads);
        report.losses.push(loss);
        report.grad_norms.push(grad_norm);
        point!(
            "train_epoch",
            individual = b,
            epoch = epoch,
            loss = loss,
            grad_norm = grad_norm,
            tape_nodes = tape.len()
        );
        obs.observe("train_loss", &LOSS_BUCKETS, loss);

        // Optional early stopping on stalled training loss; the stopping
        // epoch still takes its step.
        if config.early_stop_rel > 0.0 {
            if loss < best * (1.0 - config.early_stop_rel) {
                best = loss;
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= config.patience {
                    report.early_stopped = true;
                    point!(
                        "early_stop",
                        individual = b,
                        epoch = epoch,
                        best_loss = best.min(loss),
                        patience = config.patience,
                        rel_threshold = config.early_stop_rel
                    );
                    obs.inc_counter("early_stops", 1);
                    break;
                }
            }
        }
    }
    report.epochs_run = report.losses.len();
    obs.observe("epochs_run", &EPOCH_BUCKETS, report.epochs_run as f64);
    obs.observe(
        "grad_norm_final",
        &GRAD_NORM_BUCKETS,
        report.grad_norms[report.epochs_run - 1],
    );
    // Graph size of the member's last epoch: every epoch records the same
    // graph, so a gauge suffices.
    obs.set_gauge("tape_nodes", tape.len() as f64);
    report
}

/// Eval-mode predictions of every model over its own window set, one
/// eval forward per model on one reused tape: element `b` is
/// `models[b]`'s `[n_b, V]` prediction matrix.
///
/// # Panics
/// Panics on a length mismatch or an empty window set.
#[must_use]
pub fn predict_all<M: Forecaster>(models: &[M], windows: &[WindowedData]) -> Vec<Tensor> {
    assert_eq!(models.len(), windows.len(), "one window set per model");
    let mut tape = Tape::new();
    models
        .iter()
        .zip(windows)
        .map(|(model, w)| predict_member(model, w, &mut tape))
        .collect()
}

/// Eval-mode `[n, V]` predictions of one model over its windows, from
/// one [`Forecaster::predict_windows`] on `tape` (reset first). Eval
/// mode draws no randomness, so the rows are bit-identical to
/// eval-mode `Forecaster::predict_window` calls, one per window.
///
/// # Panics
/// Panics on an empty window set.
#[must_use]
pub(crate) fn predict_member(
    model: &dyn Forecaster,
    windows: &WindowedData,
    tape: &mut Tape,
) -> Tensor {
    tape.reset();
    let binding = model.params().bind(tape);
    let batch = WindowBatch::from_windows(&windows.inputs);
    // Eval mode draws nothing; the stream only fills the context.
    let mut rng = Rng64::seed_from(0);
    let out = model.predict_windows(tape, &binding, &batch, &mut ForwardCtx::eval(&mut rng));
    tape.value(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_data::make_windows;
    use ema_models::{LstmForecaster, ModelConfig, VarForecaster};

    fn toy_windows(seq: usize) -> WindowedData {
        // A predictable AR(1)-ish series: x_t = 0.8 x_{t-1}.
        let t = 40;
        let mut rows = vec![vec![1.0, -1.0, 0.5]];
        for i in 1..t {
            let prev: &Vec<f64> = &rows[i - 1];
            rows.push(prev.iter().map(|&x| 0.8 * x).collect());
        }
        make_windows(&Tensor::from_vec2(rows).unwrap(), seq)
    }

    #[test]
    fn lstm_training_reduces_loss() {
        let windows = toy_windows(2);
        let mut model = LstmForecaster::new(3, &ModelConfig::tiny(0));
        let report = train_model(&mut model, &windows, &TrainConfig::quick(80, 1));
        assert!(
            report.final_loss() < report.losses[0] * 0.5,
            "loss {} -> {}",
            report.losses[0],
            report.final_loss()
        );
    }

    #[test]
    fn early_stopping_truncates() {
        let windows = toy_windows(2);
        let mut model = LstmForecaster::new(3, &ModelConfig::tiny(0));
        let mut cfg = TrainConfig::quick(500, 2);
        cfg.early_stop_rel = 0.05; // aggressive: stop as soon as gains slow
        cfg.patience = 5;
        let report = train_model(&mut model, &windows, &cfg);
        assert!(report.epochs_run < 500, "early stopping never fired");
        assert!(report.early_stopped);
        assert_eq!(report.losses.len(), report.epochs_run);
        assert_eq!(report.grad_norms.len(), report.epochs_run);
        assert!(report.grad_norms.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn disabled_early_stop_ignores_patience() {
        // early_stop_rel = 0 (the default) must run the full schedule
        // no matter how small `patience` is.
        let windows = toy_windows(2);
        let mut model = LstmForecaster::new(3, &ModelConfig::tiny(0));
        let mut cfg = TrainConfig {
            epochs: 12,
            seed: 4,
            ..TrainConfig::default()
        };
        cfg.patience = 1;
        assert_eq!(cfg.early_stop_rel, 0.0);
        let report = train_model(&mut model, &windows, &cfg);
        assert_eq!(report.epochs_run, 12);
        assert!(!report.early_stopped);
    }

    #[test]
    fn predict_all_shape() {
        let windows = [toy_windows(3), toy_windows(3)];
        let models = [
            LstmForecaster::new(3, &ModelConfig::tiny(0)),
            LstmForecaster::new(3, &ModelConfig::tiny(1)),
        ];
        let preds = predict_all(&models, &windows);
        for (p, w) in preds.iter().zip(&windows) {
            assert_eq!(p.dims(), &[w.len(), 3]);
        }
    }

    #[test]
    #[should_panic(expected = "zero windows")]
    fn rejects_empty_windows() {
        let empty = WindowedData {
            inputs: vec![],
            targets: vec![],
            seq_len: 1,
        };
        let mut model = LstmForecaster::new(3, &ModelConfig::tiny(0));
        let _ = train_model(&mut model, &empty, &TrainConfig::default());
    }

    #[test]
    fn capture_restore_round_trip_preserves_predictions() {
        let mut model = LstmForecaster::new(4, &ModelConfig::tiny(1));
        let mut rng = Rng64::seed_from(2);
        let windows = make_windows(&Tensor::rand_normal(&[4, 4], 0.0, 1.0, &mut rng), 2);
        let predict = |model: &LstmForecaster| {
            predict_all(std::slice::from_ref(model), std::slice::from_ref(&windows))
                .pop()
                .expect("one prediction per model")
        };
        let before = predict(&model);

        let snapshot = model.params().clone();
        // Scramble the parameters, then restore.
        for id in model.params().ids() {
            let dims = model.params().value(id).dims().to_vec();
            *model.params_mut().value_mut(id) = Tensor::rand_normal(&dims, 0.0, 1.0, &mut rng);
        }
        let scrambled = predict(&model);
        assert_ne!(before.data(), scrambled.data());

        snapshot.restore(model.params_mut()).unwrap();
        let after = predict(&model);
        assert_eq!(before.data(), after.data());
    }

    #[test]
    fn restore_rejects_architecture_mismatch() {
        let small = LstmForecaster::new(3, &ModelConfig::tiny(4));
        let mut big = LstmForecaster::new(5, &ModelConfig::tiny(4));
        let err = small.params().restore(big.params_mut()).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");
    }

    #[test]
    fn restore_rejects_wrong_model_kind() {
        let lstm = LstmForecaster::new(4, &ModelConfig::tiny(5));
        let mut var = VarForecaster::new(4, 2, &ModelConfig::tiny(5));
        assert!(lstm.params().restore(var.params_mut()).is_err());
    }

    #[test]
    fn training_is_seed_deterministic() {
        let windows = toy_windows(2);
        let run = |seed| {
            let mut model = LstmForecaster::new(3, &ModelConfig::tiny(9));
            train_model(&mut model, &windows, &TrainConfig::quick(30, seed)).final_loss()
        };
        assert_eq!(run(5), run(5));
    }
}

//! Full-batch personalized training (paper Section V-D): one loop,
//! [`train_cohort`], trains one individual or a cohort of them.

use crate::checkpoint::Checkpoint;
use ema_autodiff::{Grads, Tape, Var};
use ema_data::WindowedData;
use ema_models::{CohortBatch, CohortCtx, CohortForecaster, WindowBatch};
use ema_nn::{global_grad_norm, Adam, Binding, Optimizer, OptimizerConfig};
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
    /// Warm start: restore these parameters (bit-exact) over the
    /// model's seeded init before the first epoch — the
    /// cluster-then-personalize fine-tune path. **RNG contract:** the
    /// model's init draws come from its own constructor RNG
    /// (`ModelConfig::seed`), entirely separate from this config's
    /// dropout stream, so a warm-started run consumes *identical*
    /// training draw order to a cold run — the restore only overwrites
    /// values. With `epochs == 0` the run is a pure restore: no
    /// training RNG is created and zero draws are consumed.
    /// `Arc` so one cluster checkpoint is shared across a shard's
    /// individuals without copying parameters.
    pub warm_start: Option<std::sync::Arc<Checkpoint>>,
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

    /// The first epoch's loss.
    ///
    /// # Panics
    /// Panics if no epochs ran.
    #[must_use]
    pub fn initial_loss(&self) -> f64 {
        self.losses[0]
    }

    /// The last epoch's pre-clip global gradient norm.
    ///
    /// # Panics
    /// Panics if no epochs ran.
    #[must_use]
    pub fn final_grad_norm(&self) -> f64 {
        *self.grad_norms.last().expect("at least one epoch")
    }
}

/// Trains a model on an individual's windows with full-batch Adam:
/// every epoch, all windows are forwarded on one tape, the stacked
/// predictions are scored against the stacked targets with MSE, and one
/// optimizer step is taken ("each individual's data is processed in a
/// single batch", Sec. V-D). A one-model [`train_cohort`].
///
/// With `warm_start` set, the checkpoint's parameters are restored
/// (bit-exact) over the seeded init first; `epochs == 0` is then a
/// pure restore run that consumes zero RNG draws and returns an empty
/// report.
///
/// # Panics
/// Panics on an empty window set, or on zero epochs without a
/// warm-start checkpoint.
pub fn train_model<M: CohortForecaster>(
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

/// One individual's target leaf and its training record.
struct Member {
    /// The target matrix's leaf in the persistent tape prefix.
    target: Var,
    losses: Vec<f64>,
    grad_norms: Vec<f64>,
    best: f64,
    since_best: usize,
    early_stopped: bool,
}

/// The cohort forward's input: the given members' windows, stacked.
/// The per-member window batches are transient, so a training group
/// holds one copy of its windows.
fn stack<'a>(windows: impl Iterator<Item = &'a WindowedData>) -> CohortBatch {
    let batches: Vec<WindowBatch> = windows
        .map(|w| WindowBatch::from_windows(&w.inputs))
        .collect();
    CohortBatch::from_batches(&batches.iter().collect::<Vec<_>>())
}

/// Trains `models[b]` on `windows[b]` under `configs[b]` for every `b`:
/// the training loop. Every epoch forwards the whole active group
/// through one [`CohortForecaster::predict_cohort`] graph, sums the
/// per-individual MSE losses into one scalar and runs one backward
/// pass, then each individual takes its own Adam step. The cohort
/// forward is bit-identical per individual to its windows run one at a
/// time (values, gradients and RNG draws; enforced by
/// `crates/models/tests/batched_equivalence.rs`), so every individual's
/// result is independent of who shares its group, one member or many.
///
/// Each loss node receives exactly the seed gradient `1.0` through the
/// pairwise add chain, and per-individual state (Adam moments, RNG
/// stream, early-stopping counters) stays per individual: one that
/// early-stops or ends its schedule leaves the active group and, per
/// the cohort RNG contract, stops drawing exactly as its standalone
/// run would.
///
/// All configs must agree on the kernel backend (one thread-local pin
/// covers the shared graph). A config with `warm_start` set restores
/// the checkpoint into its model before the first epoch; with
/// `epochs == 0` that is a pure restore — the individual never joins
/// the active group and consumes zero training draws.
///
/// Obs: one `train_epoch` point per active individual and epoch
/// (`individual` is the cohort position `b`) and one `early_stop`
/// point per early-stopped individual.
///
/// # Panics
/// Panics on empty inputs, length mismatches, an empty window set,
/// zero epochs without a warm-start checkpoint, or disagreeing kernel
/// backends.
pub fn train_cohort<M: CohortForecaster>(
    models: &mut [M],
    windows: &[WindowedData],
    configs: &[TrainConfig],
) -> Vec<TrainReport> {
    let n = models.len();
    assert!(n > 0, "cannot train an empty cohort");
    assert_eq!(n, windows.len(), "one window set per model");
    assert_eq!(n, configs.len(), "one config per model");
    for (b, (w, c)) in windows.iter().zip(configs).enumerate() {
        assert!(
            !w.is_empty(),
            "individual {b}: cannot train on zero windows"
        );
        assert!(
            c.epochs > 0 || c.warm_start.is_some(),
            "individual {b}: need at least one epoch (or a warm-start checkpoint to restore)"
        );
        assert_eq!(
            c.kernel_backend, configs[0].kernel_backend,
            "individual {b}: cohort configs must share the kernel backend"
        );
    }
    // Pin the configured kernel backend for the whole run. The scope is
    // thread-local and training runs entirely on the calling thread, so
    // concurrent runs with different backends cannot perturb each other.
    let _kernel = configs[0].kernel_backend.scoped();
    let obs = ema_obs::recorder();
    for (model, config) in models.iter_mut().zip(configs) {
        if let Some(ckpt) = &config.warm_start {
            ckpt.restore(model.params_mut())
                .expect("warm-start checkpoint must match the model architecture");
        }
    }

    // One tape and one gradient workspace for the whole run: reset
    // keeps the node storage (and the grouped-op arenas) between epochs
    // and recycles every tensor buffer through the pool, so
    // steady-state epochs allocate almost nothing. The targets are
    // constant: each is a leaf in a persistent tape prefix that
    // `reset_to` keeps alive. Vars do not survive reset, so parameters
    // rebind per epoch.
    let mut tape = Tape::new();
    let mut grads = Grads::empty();
    let mut members: Vec<Member> = windows
        .iter()
        .zip(configs)
        .map(|(w, c)| Member {
            target: tape.leaf(w.targets_matrix()),
            losses: Vec::with_capacity(c.epochs),
            grad_norms: Vec::with_capacity(c.epochs),
            best: f64::INFINITY,
            since_best: 0,
            early_stopped: false,
        })
        .collect();
    let keep = tape.len();
    // The active group: cohort positions still training, in stack
    // order. 0-epoch restores never join it and never seed an RNG.
    // `rngs`/`adams` are indexed by *active* position and compacted
    // alongside, so the cohort forward sees one contiguous RNG stream
    // per active individual.
    let mut active: Vec<usize> = (0..n).filter(|&i| configs[i].epochs > 0).collect();
    let mut rngs: Vec<Rng64> = active
        .iter()
        .map(|&i| Rng64::seed_from(configs[i].seed))
        .collect();
    let mut adams: Vec<Adam> = active
        .iter()
        .map(|&i| {
            Adam::new(OptimizerConfig {
                learning_rate: configs[i].learning_rate,
                grad_clip: configs[i].grad_clip,
            })
        })
        .collect();
    // The active members' stacked windows, rebuilt whenever the group
    // shrinks.
    let mut cohort: Option<CohortBatch> = None;
    let mut bindings: Vec<Binding> = Vec::with_capacity(active.len());
    let mut loss_vars: Vec<Var> = Vec::with_capacity(active.len());
    let mut epoch = 0usize;
    while !active.is_empty() {
        let batch = cohort.get_or_insert_with(|| stack(active.iter().map(|&i| &windows[i])));
        tape.reset_to(keep);
        bindings.clear();
        bindings.extend(active.iter().map(|&i| models[i].params().bind(&tape)));
        let out = {
            let group: Vec<&M> = active.iter().map(|&i| &models[i]).collect();
            let binding_refs: Vec<&Binding> = bindings.iter().collect();
            let mut ctx = CohortCtx::train(&mut rngs);
            M::predict_cohort(&group, &tape, &binding_refs, batch, &mut ctx)
        };
        // Per-individual MSE over each row block, summed pairwise: the
        // add chain hands every loss node the seed gradient 1.0, so
        // individual b's backward matches its standalone graph.
        loss_vars.clear();
        let mut total = None;
        for (pos, &i) in active.iter().enumerate() {
            let off = batch.offset(pos);
            let pred = tape.slice_rows(out, off, off + batch.group_wins()[pos]);
            let loss = tape.mse(pred, members[i].target);
            loss_vars.push(loss);
            total = Some(total.map_or(loss, |acc| tape.add(acc, loss)));
        }
        tape.backward_into(total.expect("non-empty active group"), &mut grads);

        // Step every active individual, then compact the active state in
        // place: a member that stays moves down to `kept`.
        let mut kept = 0;
        for pos in 0..active.len() {
            let i = active[pos];
            let (config, m) = (&configs[i], &mut members[i]);
            let loss = tape.value(loss_vars[pos]).data()[0];
            let grad_norm = global_grad_norm(&bindings[pos], &grads);
            adams[pos].step(models[i].params_mut(), &bindings[pos], &grads);
            m.losses.push(loss);
            m.grad_norms.push(grad_norm);
            point!(
                "train_epoch",
                individual = i,
                epoch = epoch,
                loss = loss,
                grad_norm = grad_norm,
                tape_nodes = tape.len()
            );
            obs.observe("train_loss", &LOSS_BUCKETS, loss);

            // Optional early stopping on stalled training loss; the
            // stopping epoch still takes its step.
            let mut stays = epoch + 1 < config.epochs;
            if config.early_stop_rel > 0.0 {
                if loss < m.best * (1.0 - config.early_stop_rel) {
                    m.best = loss;
                    m.since_best = 0;
                } else {
                    m.since_best += 1;
                    if m.since_best >= config.patience {
                        m.early_stopped = true;
                        stays = false;
                        point!(
                            "early_stop",
                            individual = i,
                            epoch = epoch,
                            best_loss = m.best.min(loss),
                            patience = config.patience,
                            rel_threshold = config.early_stop_rel
                        );
                        obs.inc_counter("early_stops", 1);
                    }
                }
            }
            if stays {
                active.swap(kept, pos);
                rngs.swap(kept, pos);
                adams.swap(kept, pos);
                kept += 1;
            } else {
                obs.observe("epochs_run", &EPOCH_BUCKETS, m.losses.len() as f64);
                obs.observe("grad_norm_final", &GRAD_NORM_BUCKETS, grad_norm);
            }
        }
        // Graph size per epoch: constant while the group is, so a gauge
        // suffices — a drift means a model is leaking nodes into the tape.
        obs.set_gauge("tape_nodes", tape.len() as f64);
        epoch += 1;
        if kept < active.len() {
            active.truncate(kept);
            rngs.truncate(kept);
            adams.truncate(kept);
            cohort = None;
        }
    }
    // Attribute the run's kernel work to the current phase; under the
    // executor the job-level drain may get there first — take-semantics
    // make both safe.
    ema_obs::drain_kernel_counters();
    members
        .into_iter()
        .map(|m| TrainReport {
            epochs_run: m.losses.len(),
            early_stopped: m.early_stopped,
            losses: m.losses,
            grad_norms: m.grad_norms,
        })
        .collect()
}

/// Eval-mode predictions of every model over its own window set, from
/// one [`CohortForecaster::predict_cohort`] over the group: element `b`
/// is `models[b]`'s `[n_b, V]` prediction matrix. Eval mode draws no
/// randomness, so the rows are bit-identical to per-window
/// `Forecaster::predict` calls.
///
/// # Panics
/// Panics on an empty group, a length mismatch or an empty window set.
#[must_use]
pub fn predict_all<M: CohortForecaster>(models: &[M], windows: &[WindowedData]) -> Vec<Tensor> {
    assert_eq!(models.len(), windows.len(), "one window set per model");
    let batch = stack(windows.iter());
    let tape = Tape::new();
    let bindings: Vec<Binding> = models.iter().map(|m| m.params().bind(&tape)).collect();
    let group: Vec<&M> = models.iter().collect();
    // Eval mode draws nothing; the streams only fill the context.
    let mut rngs: Vec<Rng64> = models.iter().map(|_| Rng64::seed_from(0)).collect();
    let out = M::predict_cohort(
        &group,
        &tape,
        &bindings.iter().collect::<Vec<_>>(),
        &batch,
        &mut CohortCtx::eval(&mut rngs),
    );
    let preds = tape.value(out);
    (0..models.len())
        .map(|b| preds.slice_rows(batch.offset(b), batch.offset(b + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_data::make_windows;
    use ema_models::{LstmForecaster, ModelConfig};

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
            report.final_loss() < report.initial_loss() * 0.5,
            "loss {} -> {}",
            report.initial_loss(),
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
        assert!(report.final_grad_norm().is_finite());
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
    fn training_is_seed_deterministic() {
        let windows = toy_windows(2);
        let run = |seed| {
            let mut model = LstmForecaster::new(3, &ModelConfig::tiny(9));
            train_model(&mut model, &windows, &TrainConfig::quick(30, seed)).final_loss()
        };
        assert_eq!(run(5), run(5));
    }
}

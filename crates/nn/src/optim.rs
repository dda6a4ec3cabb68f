//! Optimizers: Adam and SGD with learning-rate schedules, weight decay
//! and global-norm gradient clipping.

use crate::{Binding, ParamStore};
use ema_autodiff::Grads;
use ema_tensor::Tensor;

/// Learning-rate schedule applied on top of the base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiplies the rate by `factor` every `every` steps.
    StepDecay {
        /// Steps between decays.
        every: usize,
        /// Multiplicative decay factor in `(0, 1]`.
        factor: f64,
    },
}

impl LrSchedule {
    /// The effective learning rate at `step` (0-based) given `base`.
    #[must_use]
    pub fn rate_at(self, base: f64, step: usize) -> f64 {
        match self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every, factor } => {
                let decays = step / every.max(1);
                base * factor.powi(decays as i32)
            }
        }
    }
}

/// Shared optimizer hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Base learning rate (the paper uses `0.01`).
    pub learning_rate: f64,
    /// L2 weight-decay coefficient (0 disables).
    pub weight_decay: f64,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f64,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.01,
            weight_decay: 0.0,
            grad_clip: 5.0,
            schedule: LrSchedule::Constant,
        }
    }
}

impl OptimizerConfig {
    /// A default config with the given learning rate.
    #[must_use]
    pub fn with_learning_rate(lr: f64) -> Self {
        Self {
            learning_rate: lr,
            ..Self::default()
        }
    }
}

/// Common interface for gradient-descent optimizers.
pub trait Optimizer {
    /// Applies one update to every parameter in `store` using the
    /// gradients from the latest backward pass.
    fn step(&mut self, store: &mut ParamStore, binding: &Binding, grads: &Grads);

    /// Number of steps taken so far.
    fn steps(&self) -> usize;
}

/// Global L2 norm over every bound parameter's gradient — the quantity
/// global-norm clipping compares against, exposed so the training loop
/// can report it per epoch (obs telemetry, divergence diagnosis).
/// Absent gradients contribute zero without materializing zero tensors.
#[must_use]
pub fn global_grad_norm(_store: &ParamStore, binding: &Binding, grads: &Grads) -> f64 {
    let mut sq = 0.0;
    for (_, var) in binding.iter() {
        sq += grads.get(var).map_or(0.0, Tensor::sq_sum);
    }
    sq.sqrt()
}

/// Computes the global clip factor (`<= 1`) for a gradient set.
fn clip_factor(store: &ParamStore, binding: &Binding, grads: &Grads, clip: f64) -> f64 {
    if clip <= 0.0 {
        return 1.0;
    }
    let norm = global_grad_norm(store, binding, grads);
    if norm > clip {
        clip / norm
    } else {
        1.0
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction.
pub struct Adam {
    config: OptimizerConfig,
    beta1: f64,
    beta2: f64,
    eps: f64,
    step: usize,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999).
    #[must_use]
    pub fn new(config: OptimizerConfig) -> Self {
        Self {
            config,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        while self.m.len() < store.len() {
            let i = self.m.len();
            let dims = store
                .value(crate::params::param_id_from_index(i))
                .dims()
                .to_vec();
            self.m.push(Tensor::zeros(&dims));
            self.v.push(Tensor::zeros(&dims));
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, binding: &Binding, grads: &Grads) {
        self.ensure_state(store);
        self.step += 1;
        let lr = self
            .config
            .schedule
            .rate_at(self.config.learning_rate, self.step - 1);
        let factor = clip_factor(store, binding, grads, self.config.grad_clip);
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);

        let wd = self.config.weight_decay;
        for (id, var) in binding.iter() {
            // Clip factor and weight decay fold into the per-element
            // gradient read: no scaled/decayed gradient tensor is ever
            // materialized. The `factor < 1.0` / `wd > 0.0` guards keep
            // the arithmetic (and signed zeros) bit-identical to the
            // unclipped path.
            let grad = grads.get(var);
            let i = id.index();
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let param = store.value_mut(id);
            for j in 0..param.len() {
                let mut gj = grad.map_or(0.0, |g| g.data()[j]);
                if factor < 1.0 {
                    gj *= factor;
                }
                if wd > 0.0 {
                    gj += param.data()[j] * wd;
                }
                m.data_mut()[j] = self.beta1 * m.data()[j] + (1.0 - self.beta1) * gj;
                v.data_mut()[j] = self.beta2 * v.data()[j] + (1.0 - self.beta2) * gj * gj;
                let mhat = m.data()[j] / bc1;
                let vhat = v.data()[j] / bc2;
                param.data_mut()[j] -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn steps(&self) -> usize {
        self.step
    }
}

/// Plain stochastic gradient descent with optional momentum.
pub struct Sgd {
    config: OptimizerConfig,
    momentum: f64,
    step: usize,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer without momentum.
    #[must_use]
    pub fn new(config: OptimizerConfig) -> Self {
        Self::with_momentum(config, 0.0)
    }

    /// Creates an SGD optimizer with the given momentum coefficient.
    #[must_use]
    pub fn with_momentum(config: OptimizerConfig, momentum: f64) -> Self {
        Self {
            config,
            momentum,
            step: 0,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, binding: &Binding, grads: &Grads) {
        while self.velocity.len() < store.len() {
            let i = self.velocity.len();
            let dims = store
                .value(crate::params::param_id_from_index(i))
                .dims()
                .to_vec();
            self.velocity.push(Tensor::zeros(&dims));
        }
        self.step += 1;
        let lr = self
            .config
            .schedule
            .rate_at(self.config.learning_rate, self.step - 1);
        let factor = clip_factor(store, binding, grads, self.config.grad_clip);

        let wd = self.config.weight_decay;
        for (id, var) in binding.iter() {
            // Same inline clip/decay fold as Adam: allocation-free with
            // bit-identical arithmetic.
            let grad = grads.get(var);
            let i = id.index();
            let vel = &mut self.velocity[i];
            let param = store.value_mut(id);
            for j in 0..param.len() {
                let mut gj = grad.map_or(0.0, |g| g.data()[j]);
                if factor < 1.0 {
                    gj *= factor;
                }
                if wd > 0.0 {
                    gj += param.data()[j] * wd;
                }
                let v = self.momentum * vel.data()[j] + gj;
                vel.data_mut()[j] = v;
                param.data_mut()[j] -= lr * v;
            }
        }
    }

    fn steps(&self) -> usize {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_autodiff::Tape;
    use ema_tensor::Rng64;

    /// Minimises `(w - 3)²` and checks convergence.
    fn optimise(opt: &mut dyn Optimizer, iters: usize) -> f64 {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec1(vec![0.0]));
        for _ in 0..iters {
            let tape = Tape::new();
            let binding = store.bind(&tape);
            let target = tape.leaf(Tensor::from_vec1(vec![3.0]));
            let diff = tape.sub(binding.var(w), target);
            let loss = {
                let sq = tape.square(diff);
                tape.sum_all(sq)
            };
            let grads = tape.backward(loss);
            opt.step(&mut store, &binding, &grads);
        }
        store.value(w).data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.1));
        let w = optimise(&mut adam, 300);
        assert!((w - 3.0).abs() < 0.01, "Adam ended at {w}");
        assert_eq!(adam.steps(), 300);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(OptimizerConfig::with_learning_rate(0.1));
        let w = optimise(&mut sgd, 200);
        assert!((w - 3.0).abs() < 0.01, "SGD ended at {w}");
    }

    #[test]
    fn momentum_sgd_converges() {
        let mut sgd = Sgd::with_momentum(OptimizerConfig::with_learning_rate(0.05), 0.9);
        let w = optimise(&mut sgd, 200);
        assert!((w - 3.0).abs() < 0.05, "momentum SGD ended at {w}");
    }

    #[test]
    fn step_decay_reduces_rate() {
        let s = LrSchedule::StepDecay {
            every: 10,
            factor: 0.5,
        };
        assert_eq!(s.rate_at(1.0, 0), 1.0);
        assert_eq!(s.rate_at(1.0, 9), 1.0);
        assert_eq!(s.rate_at(1.0, 10), 0.5);
        assert_eq!(s.rate_at(1.0, 25), 0.25);
    }

    #[test]
    fn grad_clip_bounds_update() {
        // One step with a huge gradient: the clipped update magnitude
        // must respect lr * clip for SGD.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec1(vec![0.0]));
        let mut cfg = OptimizerConfig::with_learning_rate(1.0);
        cfg.grad_clip = 1.0;
        let mut sgd = Sgd::new(cfg);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let big = tape.scale(binding.var(w), 1.0);
        let shifted = tape.add_scalar(big, -1000.0);
        let loss = {
            let sq = tape.square(shifted);
            tape.sum_all(sq)
        }; // grad = 2(w - 1000) = -2000
        let grads = tape.backward(loss);
        sgd.step(&mut store, &binding, &grads);
        let delta = store.value(w).data()[0].abs();
        assert!(delta <= 1.0 + 1e-9, "update {delta} exceeded clip");
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec1(vec![10.0]));
        let mut cfg = OptimizerConfig::with_learning_rate(0.1);
        cfg.weight_decay = 1.0;
        cfg.grad_clip = 0.0;
        let mut sgd = Sgd::new(cfg);
        // Loss independent of w: only decay acts.
        let mut rng = Rng64::seed_from(0);
        let _ = &mut rng;
        for _ in 0..10 {
            let tape = Tape::new();
            let binding = store.bind(&tape);
            let c = tape.leaf(Tensor::from_vec1(vec![1.0]));
            let loss = tape.sum_all(c);
            let grads = tape.backward(loss);
            sgd.step(&mut store, &binding, &grads);
        }
        assert!(store.value(w).data()[0] < 10.0);
    }
}

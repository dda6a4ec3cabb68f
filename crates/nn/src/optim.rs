//! Adam with global-norm gradient clipping, the paper's optimizer.

use crate::{Binding, ParamStore};
use ema_autodiff::Grads;
use ema_tensor::Tensor;

/// Shared optimizer hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Learning rate (the paper uses `0.01`).
    pub learning_rate: f64,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.01,
            grad_clip: 5.0,
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
pub fn global_grad_norm(binding: &Binding, grads: &Grads) -> f64 {
    let mut sq = 0.0;
    for (_, var) in binding.iter() {
        sq += grads.get(var).map_or(0.0, Tensor::sq_sum);
    }
    sq.sqrt()
}

/// Computes the global clip factor (`<= 1`) for a gradient set.
fn clip_factor(binding: &Binding, grads: &Grads, clip: f64) -> f64 {
    if clip <= 0.0 {
        return 1.0;
    }
    let norm = global_grad_norm(binding, grads);
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
        let lr = self.config.learning_rate;
        let factor = clip_factor(binding, grads, self.config.grad_clip);
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);

        for (id, var) in binding.iter() {
            // The clip factor folds into the per-element gradient read:
            // no scaled gradient tensor is ever materialized. The
            // `factor < 1.0` guard keeps the arithmetic (and signed
            // zeros) bit-identical to the unclipped path.
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

#[cfg(test)]
mod tests {
    use super::*;
    use ema_autodiff::Tape;

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
    fn grad_clip_bounds_update() {
        // The factor Adam scales every gradient by: the clipped global
        // norm never exceeds the clip, whatever the gradient's scale,
        // and nothing is scaled when clipping is off or the norm is
        // already within the clip.
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(&[2]));
        for scale in [1e-3, 0.1, 0.2, 1.0, 7.0, 1e3, 1e9] {
            let tape = Tape::new();
            let binding = store.bind(&tape);
            let g = tape.leaf(Tensor::from_vec1(vec![3.0 * scale, 4.0 * scale]));
            let p = tape.mul(binding.var(w), g);
            let loss = tape.sum_all(p); // grad = g, norm 5·scale
            let grads = tape.backward(loss);
            let norm = global_grad_norm(&binding, &grads);
            for clip in [0.0, 1.0, 5.0] {
                let factor = clip_factor(&binding, &grads, clip);
                if clip == 0.0 || norm <= clip {
                    assert_eq!(factor, 1.0, "scale {scale}, clip {clip}");
                } else {
                    assert!(factor < 1.0, "scale {scale}, clip {clip}");
                    assert!(
                        factor * norm <= clip * (1.0 + f64::EPSILON),
                        "clipped norm {} exceeds clip {clip}",
                        factor * norm
                    );
                }
            }
        }
    }
}

//! Fully-connected (affine) layer.

use crate::{Binding, Initializer, ParamId, ParamStore};
use ema_autodiff::{Tape, Var};
use ema_tensor::Rng64;

/// An affine layer `y = x · Wᵀ + b` mapping `[n, in] -> [n, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix id, shape `[out, in]`.
    pub w: ParamId,
    /// Bias vector id, shape `[out]`.
    pub b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new layer with Xavier weights and zero bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng64,
    ) -> Self {
        Self::with_init(
            store,
            name,
            in_dim,
            out_dim,
            Initializer::XavierUniform,
            rng,
        )
    }

    /// Registers a new layer with a custom weight initializer.
    pub fn with_init(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        init: Initializer,
        rng: &mut Rng64,
    ) -> Self {
        let w = store.register(format!("{name}.w"), init.init(&[out_dim, in_dim], rng));
        let b = store.register(
            format!("{name}.b"),
            Initializer::Zeros.init(&[out_dim], rng),
        );
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to `x: [n, in]`, producing `[n, out]`.
    pub fn forward(&self, tape: &Tape, binding: &Binding, x: Var) -> Var {
        tape.linear(x, binding.var(self.w), binding.var(self.b))
    }

    /// Forward over a window batch: `x` stacks `wins` window blocks,
    /// all through this layer. Every row is bit-identical to
    /// [`Linear::forward`] on its window alone, and so is every
    /// parameter gradient (see `Tape::group_linear`).
    ///
    /// # Panics
    /// Panics when `wins` does not divide `x`'s rows or the widths
    /// differ.
    pub fn forward_grouped(&self, tape: &Tape, binding: &Binding, x: Var, wins: usize) -> Var {
        tape.group_linear(x, binding.var(self.w), binding.var(self.b), wins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Tensor;

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(0);
        let layer = Linear::new(&mut store, "l", 4, 7, &mut rng);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 7);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let x = tape.leaf(Tensor::ones(&[3, 4]));
        let y = layer.forward(&tape, &binding, x);
        assert_eq!(tape.dims(y), vec![3, 7]);
    }

    #[test]
    fn zero_weights_give_zero_bias_output() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(0);
        let layer = Linear::with_init(&mut store, "l", 2, 2, Initializer::Zeros, &mut rng);
        let tape = Tape::new();
        let binding = store.bind(&tape);
        let x = tape.leaf(Tensor::ones(&[1, 2]));
        let y = layer.forward(&tape, &binding, x);
        assert_eq!(tape.value(y).data(), &[0.0, 0.0]);
    }

    #[test]
    fn params_are_named() {
        let mut store = ParamStore::new();
        let mut rng = Rng64::seed_from(0);
        let layer = Linear::new(&mut store, "head", 2, 2, &mut rng);
        assert_eq!(store.name(layer.w), "head.w");
        assert_eq!(store.name(layer.b), "head.b");
    }
}

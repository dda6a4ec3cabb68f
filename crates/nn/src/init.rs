//! Weight initialisation strategies.

use ema_tensor::{Rng64, Tensor};

/// How a weight tensor is initialised at layer construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Initializer {
    /// All zeros — the default for biases.
    Zeros,
    /// Xavier/Glorot uniform: `U(±sqrt(6 / (fan_in + fan_out)))`.
    /// The default for weight matrices.
    XavierUniform,
    /// Normal with the given standard deviation.
    Normal(f64),
}

impl Initializer {
    /// Materialises a tensor of the given dims.
    ///
    /// # Panics
    /// Panics if `XavierUniform` is used with a non-rank-2 shape.
    #[must_use]
    pub fn init(self, dims: &[usize], rng: &mut Rng64) -> Tensor {
        match self {
            Initializer::Zeros => Tensor::zeros(dims),
            Initializer::XavierUniform => Tensor::xavier_uniform(dims, rng),
            Initializer::Normal(std) => Tensor::rand_normal(dims, 0.0, std, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_zero() {
        let mut rng = Rng64::seed_from(0);
        let t = Initializer::Zeros.init(&[3, 3], &mut rng);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn normal_std_is_sane() {
        let mut rng = Rng64::seed_from(2);
        let t = Initializer::Normal(2.0).init(&[10_000], &mut rng);
        assert!((t.std() - 2.0).abs() < 0.1);
    }
}

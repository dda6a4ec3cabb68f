//! Elementwise arithmetic, mapping and broadcast helpers.

use crate::{pool, Tensor};

impl Tensor {
    /// Applies `f` to every element, producing a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        let mut data = pool::take_uninit(self.len());
        for (o, &v) in data.iter_mut().zip(self.data()) {
            *o = f(v);
        }
        Tensor::from_shape_pooled(*self.shape(), data)
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[must_use]
    pub fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op requires matching shapes: {:?} vs {:?}",
            self.dims(),
            other.dims()
        );
        let mut data = pool::take_uninit(self.len());
        for ((o, &a), &b) in data.iter_mut().zip(self.data()).zip(other.data()) {
            *o = f(a, b);
        }
        Tensor::from_shape_pooled(*self.shape(), data)
    }

    /// Elementwise sum.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[must_use]
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise sum in place (`self += other`), with no allocation —
    /// the gradient-accumulation hot path of the backward pass.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op requires matching shapes: {:?} vs {:?}",
            self.dims(),
            other.dims()
        );
        for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += b;
        }
    }

    /// Elementwise difference.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[must_use]
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[must_use]
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[must_use]
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a / b)
    }

    /// Multiplies every element by a scalar.
    #[must_use]
    pub fn scale(&self, s: f64) -> Tensor {
        self.map(|v| v * s)
    }

    /// Elementwise negation.
    #[must_use]
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Elementwise absolute value.
    #[must_use]
    pub fn abs(&self) -> Tensor {
        self.map(f64::abs)
    }

    /// Elementwise square.
    #[must_use]
    pub fn square(&self) -> Tensor {
        self.map(|v| v * v)
    }

    /// Elementwise square root.
    #[must_use]
    pub fn sqrt(&self) -> Tensor {
        self.map(f64::sqrt)
    }

    /// Elementwise natural exponent.
    #[must_use]
    pub fn exp(&self) -> Tensor {
        self.map(f64::exp)
    }

    /// Elementwise natural logarithm.
    #[must_use]
    pub fn ln(&self) -> Tensor {
        self.map(f64::ln)
    }

    /// Elementwise hyperbolic tangent.
    #[must_use]
    pub fn tanh(&self) -> Tensor {
        self.map(f64::tanh)
    }

    /// Elementwise logistic sigmoid `1 / (1 + e^{-x})`.
    #[must_use]
    pub fn sigmoid(&self) -> Tensor {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Elementwise rectified linear unit `max(0, x)`.
    #[must_use]
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Clamps every element into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn clamp(&self, lo: f64, hi: f64) -> Tensor {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        self.map(|v| v.clamp(lo, hi))
    }

    /// Adds `row` (shape `[C]`) to every row of a `[R, C]` matrix —
    /// the bias-broadcast used throughout the NN layers.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2 and `row` is rank 1 with matching
    /// column count.
    #[must_use]
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "add_row_broadcast requires a matrix");
        assert_eq!(row.rank(), 1, "broadcast operand must be rank 1");
        let (r, c) = (self.dims()[0], self.dims()[1]);
        assert_eq!(
            row.len(),
            c,
            "row length {} does not match column count {c}",
            row.len()
        );
        let mut out = self.clone();
        for i in 0..r {
            for j in 0..c {
                out.data_mut()[i * c + j] += row.data()[j];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensors_close;

    fn t(v: Vec<f64>) -> Tensor {
        Tensor::from_vec1(v)
    }

    #[test]
    fn arithmetic_basics() {
        let a = t(vec![1.0, 2.0, 3.0]);
        let b = t(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.neg().data(), &[-1.0, -2.0, -3.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matching shapes")]
    fn add_rejects_shape_mismatch() {
        let _ = t(vec![1.0]).add(&t(vec![1.0, 2.0]));
    }

    #[test]
    fn activations() {
        let x = t(vec![-1.0, 0.0, 1.0]);
        assert_eq!(x.relu().data(), &[0.0, 0.0, 1.0]);
        let s = x.sigmoid();
        assert!((s.data()[1] - 0.5).abs() < 1e-12);
        assert!(s.data()[0] < 0.5 && s.data()[2] > 0.5);
        let th = x.tanh();
        assert!((th.data()[1]).abs() < 1e-12);
        assert!((th.data()[0] + th.data()[2]).abs() < 1e-12); // odd function
    }

    #[test]
    fn clamp_bounds() {
        let x = t(vec![-2.0, 0.5, 3.0]);
        assert_eq!(x.clamp(-1.0, 1.0).data(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn row_broadcasts() {
        let m = Tensor::from_vec2(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let r = t(vec![10.0, 20.0]);
        assert_eq!(m.add_row_broadcast(&r).data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn square_and_sqrt_inverse() {
        let a = t(vec![1.0, 4.0, 9.0]);
        assert_tensors_close(&a.sqrt().square(), &a, 1e-12);
    }

    #[test]
    fn exp_ln_inverse() {
        let a = t(vec![0.5, 1.0, 2.0]);
        assert_tensors_close(&a.ln().exp(), &a, 1e-12);
    }
}

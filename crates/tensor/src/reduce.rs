//! Reductions: global and per-axis sums, means, extrema and statistics.

use crate::{kernels, pool, Tensor};

impl Tensor {
    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    /// Sum of squared elements (the squared Frobenius/L2 norm).
    #[must_use]
    pub fn sq_sum(&self) -> f64 {
        self.data().iter().map(|&v| v * v).sum()
    }

    /// Population variance of all elements.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.data().iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / self.len() as f64
    }

    /// Population standard deviation of all elements.
    #[must_use]
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Maximum element (NaNs are ignored unless all elements are NaN).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.data()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element (NaNs are ignored unless all elements are NaN).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.data().iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Sums along `axis`, removing it from the shape.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    #[must_use]
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        let out_shape = self.shape().without_axis(axis);
        let mut out = pool::take_uninit(out_shape.volume());
        let dims = self.dims();
        let axis_len = dims[axis];
        // Each outer block is an `[axis_len, inner]` matrix whose column
        // sums are that block's outputs.
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let block = axis_len * inner;
        for o in 0..outer {
            kernels::col_sums_into(
                &self.data()[o * block..(o + 1) * block],
                &mut out[o * inner..(o + 1) * inner],
                axis_len,
                inner,
            );
        }
        Tensor::from_shape_pooled(out_shape, out)
    }

    /// Means along `axis`, removing it from the shape.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    #[must_use]
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        let n = self.dims()[axis] as f64;
        self.sum_axis(axis).scale(1.0 / n)
    }

    /// Row sums of a rank-2 tensor, as `[rows]`.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2.
    #[must_use]
    pub fn row_sums(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "row_sums requires rank 2");
        self.sum_axis(1)
    }

    /// Column sums of a rank-2 tensor, as `[cols]`.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2.
    #[must_use]
    pub fn col_sums(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "col_sums requires rank 2");
        self.sum_axis(0)
    }

    /// Mean squared difference to another tensor of the same shape —
    /// the paper's Eq. (1) applied to a single individual.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[must_use]
    pub fn mse(&self, other: &Tensor) -> f64 {
        self.sub(other).square().mean()
    }

    /// Softmax over the last axis of a rank-1 or rank-2 tensor, computed
    /// with the max-subtraction trick for numerical stability.
    ///
    /// # Panics
    /// Panics if rank exceeds 2.
    #[must_use]
    pub fn softmax_last(&self) -> Tensor {
        assert!(self.rank() <= 2, "softmax_last supports rank 1 or 2");
        let (rows, cols) = if self.rank() == 1 {
            (1, self.len())
        } else {
            (self.dims()[0], self.dims()[1])
        };
        let mut out = self.clone();
        for r in 0..rows {
            let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut z = 0.0;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                z += *v;
            }
            for v in row.iter_mut() {
                *v /= z;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensors_close;

    #[test]
    fn global_reductions() {
        let t = Tensor::from_vec1(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
        assert!((t.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn sum_axis_matrix() {
        let m = Tensor::from_vec2(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.sum_axis(0).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.sum_axis(1).data(), &[6.0, 15.0]);
        assert_eq!(m.row_sums().data(), &[6.0, 15.0]);
        assert_eq!(m.col_sums().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_axis_rank3_middle() {
        // shape [2, 3, 2]; summing axis 1 collapses the middle.
        let t = Tensor::from_vec(&[2, 3, 2], (0..12).map(f64::from).collect()).unwrap();
        let s = t.sum_axis(1);
        assert_eq!(s.dims(), &[2, 2]);
        // first block rows: [0,1],[2,3],[4,5] -> col sums [6, 9]
        assert_eq!(s.data(), &[6.0, 9.0, 24.0, 27.0]);
    }

    #[test]
    fn mean_axis_consistency() {
        let m = Tensor::from_vec2(vec![vec![2.0, 4.0], vec![6.0, 8.0]]).unwrap();
        assert_tensors_close(&m.mean_axis(0), &Tensor::from_vec1(vec![4.0, 6.0]), 1e-12);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let a = Tensor::from_vec1((0..10).map(|i| f64::from(i) / 9.0).collect());
        assert_eq!(a.mse(&a), 0.0);
        let b = a.map(|v| v + 2.0);
        assert!((a.mse(&b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Tensor::from_vec2(vec![vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]).unwrap();
        let s = m.softmax_last();
        for r in 0..2 {
            let total: f64 = (0..3).map(|c| s.at2(r, c)).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
        // monotone: larger logits -> larger probabilities
        assert!(s.at2(0, 2) > s.at2(0, 1) && s.at2(0, 1) > s.at2(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec1(vec![1.0, 2.0, 3.0]);
        let b = a.map(|v| v + 100.0);
        assert_tensors_close(&a.softmax_last(), &b.softmax_last(), 1e-12);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let a = Tensor::from_vec1(vec![1000.0, 1000.0]);
        let s = a.softmax_last();
        assert!((s.data()[0] - 0.5).abs() < 1e-12);
        assert!(s.all_finite());
    }
}

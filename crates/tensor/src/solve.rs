//! Dense linear solves and inversion (Gaussian elimination with partial
//! pivoting). Used by the VAR baseline (ridge least squares) and the
//! partial-correlation graph metric (precision matrix).

use crate::Tensor;

impl Tensor {
    /// Solves `A · X = B` for `X` where `self` is a square `[n, n]`
    /// matrix and `b` is `[n, m]`, via Gaussian elimination with
    /// partial pivoting.
    ///
    /// Returns `None` when `A` is (numerically) singular.
    ///
    /// # Panics
    /// Panics unless `self` is square rank 2 and `b` has matching rows.
    #[must_use]
    pub fn solve(&self, b: &Tensor) -> Option<Tensor> {
        assert_eq!(self.rank(), 2, "solve requires a matrix");
        let n = self.dims()[0];
        assert_eq!(n, self.dims()[1], "solve requires a square matrix");
        assert_eq!(b.rank(), 2, "rhs must be rank 2");
        assert_eq!(b.dims()[0], n, "rhs row count mismatch");
        let m = b.dims()[1];

        // Augmented working copies.
        let mut a = self.data().to_vec();
        let mut x = b.data().to_vec();

        for col in 0..n {
            // Partial pivot: largest |a[row][col]| for row >= col.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > best {
                    best = v;
                    pivot = row;
                }
            }
            if best < 1e-12 {
                return None; // singular
            }
            if pivot != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot * n + k);
                }
                for k in 0..m {
                    x.swap(col * m + k, pivot * m + k);
                }
            }
            // Eliminate below.
            let diag = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                for k in 0..m {
                    x[row * m + k] -= factor * x[col * m + k];
                }
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let diag = a[col * n + col];
            for k in 0..m {
                let mut acc = x[col * m + k];
                for j in (col + 1)..n {
                    acc -= a[col * n + j] * x[j * m + k];
                }
                x[col * m + k] = acc / diag;
            }
        }
        Some(Tensor::from_vec(&[n, m], x).expect("solve output shape"))
    }

    /// Matrix inverse via [`Tensor::solve`] against the identity.
    /// Returns `None` for singular matrices.
    ///
    /// # Panics
    /// Panics unless `self` is square rank 2.
    #[must_use]
    pub fn inverse(&self) -> Option<Tensor> {
        let n = self.dims()[0];
        self.solve(&Tensor::eye(n))
    }

    /// Ridge-regularised least squares: solves
    /// `argmin_W ‖X·W − Y‖² + λ‖W‖²` via the normal equations
    /// `(XᵀX + λI) W = Xᵀ Y`, for `X: [n, p]`, `Y: [n, q]` → `W: [p, q]`.
    ///
    /// Returns `None` only if the regularised Gram matrix is singular
    /// (impossible for `lambda > 0` in exact arithmetic).
    ///
    /// # Panics
    /// Panics on shape mismatch or negative `lambda`.
    #[must_use]
    pub fn ridge_least_squares(&self, y: &Tensor, lambda: f64) -> Option<Tensor> {
        assert_eq!(self.rank(), 2, "design matrix must be rank 2");
        assert_eq!(y.rank(), 2, "targets must be rank 2");
        assert_eq!(self.dims()[0], y.dims()[0], "row count mismatch");
        assert!(lambda >= 0.0, "negative ridge penalty {lambda}");
        let p = self.dims()[1];
        let xt = self.transpose();
        let mut gram = xt.matmul(self);
        for i in 0..p {
            let v = gram.at2(i, i) + lambda;
            gram.set2(i, i, v);
        }
        let xty = xt.matmul(y);
        gram.solve(&xty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_tensors_close, Rng64};

    #[test]
    fn solve_known_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let a = Tensor::from_vec2(vec![vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let b = Tensor::from_vec2(vec![vec![3.0], vec![5.0]]).unwrap();
        let x = a.solve(&b).unwrap();
        assert_tensors_close(
            &x,
            &Tensor::from_vec2(vec![vec![0.8], vec![1.4]]).unwrap(),
            1e-12,
        );
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero leading diagonal forces a row swap.
        let a = Tensor::from_vec2(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let b = Tensor::from_vec2(vec![vec![7.0], vec![9.0]]).unwrap();
        let x = a.solve(&b).unwrap();
        assert_eq!(x.data(), &[9.0, 7.0]);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = Tensor::from_vec2(vec![vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(a.inverse().is_none());
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let mut rng = Rng64::seed_from(5);
        for n in [1usize, 2, 5, 8] {
            // Diagonally-dominant matrices are well conditioned.
            let mut a = Tensor::rand_normal(&[n, n], 0.0, 1.0, &mut rng);
            for i in 0..n {
                let v = a.at2(i, i) + 3.0 * n as f64;
                a.set2(i, i, v);
            }
            let inv = a.inverse().expect("well-conditioned");
            assert_tensors_close(&a.matmul(&inv), &Tensor::eye(n), 1e-8);
            assert_tensors_close(&inv.matmul(&a), &Tensor::eye(n), 1e-8);
        }
    }

    #[test]
    fn solve_matches_inverse_multiplication() {
        let mut rng = Rng64::seed_from(6);
        let mut a = Tensor::rand_normal(&[4, 4], 0.0, 1.0, &mut rng);
        for i in 0..4 {
            let v = a.at2(i, i) + 10.0;
            a.set2(i, i, v);
        }
        let b = Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng);
        let x1 = a.solve(&b).unwrap();
        let x2 = a.inverse().unwrap().matmul(&b);
        assert_tensors_close(&x1, &x2, 1e-8);
    }

    #[test]
    fn ridge_recovers_linear_map() {
        // Y = X·W with noiseless data and tiny ridge -> W recovered.
        let mut rng = Rng64::seed_from(7);
        let x = Tensor::rand_normal(&[50, 3], 0.0, 1.0, &mut rng);
        let w_true =
            Tensor::from_vec2(vec![vec![1.0, -2.0], vec![0.5, 0.0], vec![-1.5, 3.0]]).unwrap();
        let y = x.matmul(&w_true);
        let w = x.ridge_least_squares(&y, 1e-9).unwrap();
        assert_tensors_close(&w, &w_true, 1e-6);
    }

    #[test]
    fn ridge_shrinks_with_large_lambda() {
        let mut rng = Rng64::seed_from(8);
        let x = Tensor::rand_normal(&[30, 2], 0.0, 1.0, &mut rng);
        let y = Tensor::rand_normal(&[30, 1], 0.0, 1.0, &mut rng);
        let w_small = x.ridge_least_squares(&y, 1e-6).unwrap();
        let w_large = x.ridge_least_squares(&y, 1e6).unwrap();
        assert!(w_large.norm() < w_small.norm() * 0.01);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn solve_rejects_non_square() {
        let a = Tensor::zeros(&[2, 3]);
        let _ = a.solve(&Tensor::zeros(&[2, 1]));
    }
}

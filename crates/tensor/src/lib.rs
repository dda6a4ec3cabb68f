//! # ema-tensor
//!
//! Dense, row-major `f64` tensor primitives for the `ema-gnn` workspace.
//!
//! The EMA forecasting problem operates at a small scale (26 variables,
//! ~140 time points, hidden sizes of 32), so this crate favours a simple,
//! exactly-reproducible CPU implementation over BLAS bindings: a tensor is
//! a contiguous `Vec<f64>` plus a [`Shape`]. All higher layers
//! (`ema-autodiff`, `ema-nn`, the models) build on the operations here.
//!
//! ## Conventions
//!
//! * Storage is **row-major** (C order, last axis fastest).
//! * Binary elementwise operations require *identical* shapes, except for
//!   the documented broadcast helpers ([`Tensor::add_row_broadcast`] and
//!   friends).
//! * Operations that can only fail through programmer error (shape
//!   mismatch) **panic** with a descriptive message, mirroring `ndarray`;
//!   fallible construction from external data returns [`TensorError`].
//!
//! ## Quick example
//!
//! ```
//! use ema_tensor::Tensor;
//!
//! let a = Tensor::from_vec2(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(missing_docs)]

pub mod backend;
mod display;
mod error;
pub mod kernels;
mod linalg;
mod ops;
pub mod pool;
mod random;
mod reduce;
mod shape;
#[cfg(target_arch = "x86_64")]
mod simd;
mod slicing;
mod tensor;

pub use backend::{
    kernel_counters, kernel_counting_enabled, set_kernel_backend, set_kernel_counting,
    take_kernel_counters, with_kernel_backend, KernelBackend, KernelCounters,
    KernelCountersSnapshot, KernelScope,
};
pub use error::TensorError;
pub use pool::{PoolStats, PooledBuf};
pub use random::{derive_stream_seed, Rng64};
pub use shape::Shape;
pub use tensor::Tensor;

/// Absolute tolerance used by the crate's approximate comparisons.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// Returns `true` when `a` and `b` are within `tol` of each other,
/// treating any pair of NaNs as equal (useful in tests).
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    (a - b).abs() <= tol
}

/// Asserts that two tensors have the same shape and element-wise match
/// within `tol`. Intended for tests across the workspace.
///
/// # Panics
/// Panics with a detailed message on the first mismatching element.
pub fn assert_tensors_close(a: &Tensor, b: &Tensor, tol: f64) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "shape mismatch: {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
    for (i, (&x, &y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert!(
            approx_eq(x, y, tol),
            "tensors differ at flat index {i}: {x} vs {y} (tol {tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_handles_nan_pairs() {
        assert!(approx_eq(f64::NAN, f64::NAN, 0.0));
        assert!(!approx_eq(f64::NAN, 1.0, 1.0));
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn assert_tensors_close_accepts_equal() {
        let a = Tensor::filled(&[2, 2], 1.5);
        let b = Tensor::filled(&[2, 2], 1.5);
        assert_tensors_close(&a, &b, 0.0);
    }
}

//! Raw slice-level matmul kernels: the one implementation of each
//! matrix product.
//!
//! The batched autodiff backward pass replays per-window gradient
//! pieces on contiguous row-block *slices* of larger tensors; going
//! through `Tensor` would force a copy per block. These free functions
//! run on `&[f64]` operands with explicit dimensions, and the `Tensor`
//! methods in `linalg.rs` (`matmul`, `matmul_tn`, `matmul_nt`, `addmm`)
//! check shapes and call them on a pooled output, so each pair is
//! **bit-identical** by construction; the kernel choice and the
//! contracts documented in `linalg.rs` apply to both (the pairs are
//! also property-tested in `crates/tensor/tests/properties.rs`).
//!
//! Every matmul kernel here calls the funnel in `linalg.rs`, which
//! writes `out = a·b` over whatever `out` held: callers may pass stale
//! pooled buffers from [`pool::take_uninit`], and no kernel zero-fills
//! its output first (only the row kernels, which accumulate in memory,
//! get a zeroed `out` from the funnel). `col_sums_into` overwrites its
//! output too.

use crate::linalg::{matmul_funnel, matmul_tn_funnel};
use crate::pool;

/// `out = a · b` for row-major `a: [m,k]`, `b: [k,n]`, `out: [m,n]`
/// ([`crate::Tensor::matmul`]).
///
/// # Panics
/// Panics when a slice length disagrees with its dimensions.
pub fn matmul_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_into lhs length");
    assert_eq!(b.len(), k * n, "matmul_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_into out length");
    matmul_funnel(a, b, out, m, k, n);
}

/// `out = aᵀ · b` for `a: [k,m]`, `b: [k,n]`, `out: [m,n]`
/// ([`crate::Tensor::matmul_tn`]).
///
/// # Panics
/// Panics when a slice length disagrees with its dimensions.
pub fn matmul_tn_into(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
    assert_eq!(a.len(), k * m, "matmul_tn_into lhs length");
    assert_eq!(b.len(), k * n, "matmul_tn_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_tn_into out length");
    matmul_tn_funnel(a, b, out, m, k, n);
}

/// `out = a · bᵀ` for `a: [m,k]`, `b: [n,k]`, `out: [m,n]`
/// ([`crate::Tensor::matmul_nt`]). bᵀ is repacked into a pooled
/// scratch buffer (no heap traffic after warm-up) so the product runs
/// on the shared ikj kernel: a row-dot-row loop would be a serial
/// dependency chain per output element, which cannot vectorize — the
/// O(k·n) repack is noise next to the O(m·k·n) vectorized product.
/// Accumulation order and the lhs zero skip are exactly those of
/// [`matmul_into`], so results stay bit-identical to the composed form.
///
/// # Panics
/// Panics when a slice length disagrees with its dimensions.
pub fn matmul_nt_into(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_nt_into lhs length");
    assert_eq!(b.len(), n * k, "matmul_nt_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_nt_into out length");
    let mut bt = pool::take_uninit(k * n);
    // `max(1)`: with `k == 0` the rhs is empty and yields no rows.
    for (j, brow) in b.chunks_exact(k.max(1)).enumerate() {
        for (p, &bv) in brow.iter().enumerate() {
            bt[p * n + j] = bv;
        }
    }
    matmul_funnel(a, &bt, out, m, k, n);
    pool::recycle(bt);
}

/// `out = a · wᵀ + bias` for `a: [m,k]`, `w: [n,k]`, `bias: [n]`,
/// `out: [m,n]` ([`crate::Tensor::addmm`]): [`matmul_nt_into`], then
/// the bias added *after* each output's accumulation completes (the
/// composed ordering).
///
/// # Panics
/// Panics when a slice length disagrees with its dimensions.
pub fn addmm_into(
    a: &[f64],
    w: &[f64],
    bias: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(bias.len(), n, "addmm_into bias length");
    matmul_nt_into(a, w, out, m, k, n);
    for orow in out.chunks_exact_mut(n) {
        for (o, &bv) in orow.iter_mut().zip(bias) {
            *o += bv;
        }
    }
}

/// `out[j] = Σ_i a[i,j]` for `a: [m,n]`, `out: [n]` — ascending-row
/// accumulation from `0.0` per column. Rows are walked in order into
/// the `out` accumulators, so each column keeps the strided column
/// walk's recurrence bit for bit while the adds run across columns.
/// The one implementation of [`crate::Tensor::sum_axis`] and
/// [`crate::Tensor::col_sums`].
///
/// # Panics
/// Panics when a slice length disagrees with its dimensions.
pub fn col_sums_into(a: &[f64], out: &mut [f64], m: usize, n: usize) {
    assert_eq!(a.len(), m * n, "col_sums_into input length");
    assert_eq!(out.len(), n, "col_sums_into out length");
    out.fill(0.0);
    // `max(1)`: with `n == 0` the input is empty and yields no rows.
    for row in a.chunks_exact(n.max(1)) {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rng64, Tensor};

    fn rand(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        Tensor::rand_normal(dims, 0.0, 1.0, &mut rng)
    }

    #[test]
    fn matmul_into_matches_tensor_twin() {
        let a = rand(&[4, 3], 1);
        let b = rand(&[3, 5], 2);
        let mut out = vec![9.9; 20];
        matmul_into(a.data(), b.data(), &mut out, 4, 3, 5);
        assert_eq!(out, a.matmul(&b).data());
    }

    #[test]
    fn matmul_tn_into_matches_tensor_twin() {
        let a = rand(&[4, 3], 3);
        let b = rand(&[4, 5], 4);
        let mut out = vec![9.9; 15];
        matmul_tn_into(a.data(), b.data(), &mut out, 4, 3, 5);
        assert_eq!(out, a.matmul_tn(&b).data());
    }

    #[test]
    fn matmul_nt_into_matches_tensor_twin() {
        let a = rand(&[4, 3], 5);
        let b = rand(&[5, 3], 6);
        let mut out = vec![9.9; 20];
        matmul_nt_into(a.data(), b.data(), &mut out, 4, 3, 5);
        assert_eq!(out, a.matmul_nt(&b).data());
    }

    #[test]
    fn addmm_into_matches_tensor_twin() {
        let x = rand(&[4, 3], 10);
        let w = rand(&[5, 3], 11);
        let bias = rand(&[5], 12);
        let mut out = vec![9.9; 20];
        addmm_into(x.data(), w.data(), bias.data(), &mut out, 4, 3, 5);
        assert_eq!(out, x.addmm(&w, &bias).data());
    }

    #[test]
    fn addmm_into_row_block_matches_sliced_tensor() {
        // One contiguous row block of a window stack must produce the
        // same bits as the addmm of that block alone.
        let stacked = rand(&[6, 3], 13); // three [2, 3] blocks
        let w = rand(&[4, 3], 14);
        let bias = rand(&[4], 15);
        for g in 0..3 {
            let block = &stacked.data()[g * 6..(g + 1) * 6];
            let mut out = vec![0.0; 8];
            addmm_into(block, w.data(), bias.data(), &mut out, 2, 3, 4);
            let reference = stacked.slice_rows(g * 2, (g + 1) * 2).addmm(&w, &bias);
            assert_eq!(out, reference.data());
        }
    }

    #[test]
    fn col_sums_into_matches_tensor_twin() {
        let a = rand(&[6, 4], 7);
        let mut out = vec![9.9; 4];
        col_sums_into(a.data(), &mut out, 6, 4);
        assert_eq!(out, a.col_sums().data());
    }

    #[test]
    fn row_block_slice_matches_sliced_tensor() {
        // The intended use: operate on one contiguous row block of a
        // stacked tensor without copying it out first.
        let stacked = rand(&[6, 3], 8); // three [2, 3] blocks
        let rhs = rand(&[3, 4], 9);
        for w in 0..3 {
            let block = &stacked.data()[w * 6..(w + 1) * 6];
            let mut out = vec![0.0; 8];
            matmul_into(block, rhs.data(), &mut out, 2, 3, 4);
            let reference = stacked.slice_rows(w * 2, (w + 1) * 2).matmul(&rhs);
            assert_eq!(out, reference.data());
        }
    }

    #[test]
    #[should_panic(expected = "lhs length")]
    fn matmul_into_checks_lengths() {
        let mut out = vec![0.0; 4];
        matmul_into(&[1.0; 5], &[1.0; 4], &mut out, 2, 2, 2);
    }
}

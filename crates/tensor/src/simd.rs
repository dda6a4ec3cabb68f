//! AVX2+FMA matmul kernels, x86_64 only: the register-blocked tile
//! kernel and the row-span twin of the scalar oracle
//! (`linalg::matmul_accumulate_scalar`).
//!
//! ## Lane-ordered accumulation contract
//!
//! Both kernels fuse every multiply-add (`vfmaddpd` / `f64::mul_add`,
//! one rounding instead of two) and let vector lanes hold *independent
//! output columns*, so no element's sum is ever split or reordered
//! across lanes. Whatever the tiling, each output element is the plain
//! recurrence
//!
//! ```text
//! acc := fma(a[i, p], b[p, j], acc)   for p = 0, 1, …, k-1, from +0.0
//! ```
//!
//! The row kernel ([`matmul_accumulate_simd`]) keeps the scalar
//! oracle's structure — i/j-only cache blocking, 32/16/8/4-wide spans
//! of one output row — accumulates into a zeroed `out` and skips
//! `a[i, p] == 0.0`. The tile kernel ([`matmul_tiles_simd`]) holds a
//! 6-row × 8-column output tile in twelve ymm accumulators (1–5-row,
//! 4-wide and masked 1–3-wide remainders) that start at `+0.0`, stores
//! each output element once without reading `out`, reads the lhs
//! through a (row stride, column stride) pair so a transposed lhs needs
//! no repack, and has no zero skip.
//! Dropping the skip is exact when every rhs element is finite: the
//! accumulator starts at +0.0 and, under round-to-nearest, a sum can
//! only be −0 when both addends are, so it never becomes −0 and
//! `fma(±0, b, acc) == acc` for finite `b`. Only `0 · ±∞` or `0 · NaN`
//! makes the skip observable, which is why the funnel in `linalg.rs`
//! sends a non-finite rhs to the row kernel. The results are
//!
//! * **self-deterministic** — byte-identical across runs, tile and span
//!   widths, kernels, blocked/unblocked paths and thread counts
//!   (property-tested in `crates/tensor/tests/backend_equivalence.rs`
//!   against a scalar `mul_add` reference implementing the recurrence
//!   verbatim, with the skip), and
//! * within strict relative tolerance of the scalar oracle — each FMA
//!   commits at most one half-ulp less rounding error than the
//!   separately rounded multiply+add, so element-wise
//!   `|simd − scalar| ≤ (k + 1)·ε·Σₚ|a[i,p]·b[p,j]|`.

use crate::linalg::{MM_BLOCK, MM_BLOCK_THRESHOLD};
use core::arch::x86_64::{
    __m256d, __m256i, _mm256_cmpgt_epi64, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_maskload_pd,
    _mm256_maskstore_pd, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setr_epi64x, _mm256_setzero_pd,
    _mm256_storeu_pd,
};

/// Accumulates `out[i, j..j+4·L] += Σ_p a[i, p] · b[p, j..j+4·L]` with
/// `L` 4-lane vector accumulators living in registers across the whole
/// `p` loop (L = 8/4/2/1 for the 32/16/8/4-wide spans).
///
/// # Safety
/// Caller must ensure AVX2+FMA are available, `b.len() ≥ (k-1)·n + j +
/// 4·L` for `k = a_row.len()`, and `out_row.len() ≥ j + 4·L`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn accum_tile<const L: usize>(
    a_row: &[f64],
    b: &[f64],
    out_row: &mut [f64],
    n: usize,
    j: usize,
) {
    debug_assert!(out_row.len() >= j + 4 * L);
    debug_assert!(b.len() + n >= a_row.len() * n + j + 4 * L);
    let out_ptr = out_row.as_mut_ptr().add(j);
    // SAFETY (closure): `out_ptr + 4·l + 3` stays within `out_row` by
    // the length precondition above.
    let mut acc: [__m256d; L] =
        core::array::from_fn(|l| unsafe { _mm256_loadu_pd(out_ptr.add(4 * l)) });
    let b_ptr = b.as_ptr().add(j);
    for (p, &aip) in a_row.iter().enumerate() {
        if aip == 0.0 {
            continue;
        }
        let av = _mm256_set1_pd(aip);
        let brow = b_ptr.add(p * n);
        for (l, acc_l) in acc.iter_mut().enumerate() {
            *acc_l = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow.add(4 * l)), *acc_l);
        }
    }
    for (l, acc_l) in acc.iter().enumerate() {
        _mm256_storeu_pd(out_ptr.add(4 * l), *acc_l);
    }
}

/// Vector twin of `linalg::accum_row_span`: decomposes one output row
/// span into 32/16/8/4-wide register tiles plus a fused-multiply-add
/// scalar tail, so every element of the span follows the lane-ordered
/// contract above.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and the slice geometry of
/// [`matmul_accumulate_simd`] holds with `jb ≤ j_end ≤ n`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn accum_row_span(
    a_row: &[f64],
    b: &[f64],
    out_row: &mut [f64],
    n: usize,
    jb: usize,
    j_end: usize,
) {
    let mut j = jb;
    while j + 32 <= j_end {
        accum_tile::<8>(a_row, b, out_row, n, j);
        j += 32;
    }
    if j + 16 <= j_end {
        accum_tile::<4>(a_row, b, out_row, n, j);
        j += 16;
    }
    if j + 8 <= j_end {
        accum_tile::<2>(a_row, b, out_row, n, j);
        j += 8;
    }
    if j + 4 <= j_end {
        accum_tile::<1>(a_row, b, out_row, n, j);
        j += 4;
    }
    if j < j_end {
        // Scalar tail: `mul_add` compiles to the scalar FMA instruction
        // inside this `target_feature(fma)` context, so tail elements
        // round exactly like lane elements.
        for (p, &aip) in a_row.iter().enumerate() {
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n + j..p * n + j_end];
            let orow = &mut out_row[j..j_end];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = aip.mul_add(bv, *o);
            }
        }
    }
}

/// The whole accumulation — blocking decision, i/j tiles, span
/// decomposition — inside one `target_feature` unit so the span and
/// tile helpers inline into fully vectorized loops.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available and the slice lengths
/// match the dimensions (`a: m·k`, `b: k·n`, `out: m·n`).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn matmul_accumulate_avx2(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    if m * n * k >= MM_BLOCK_THRESHOLD && n > MM_BLOCK {
        // Same i/j-only tiling as the scalar kernel: each element's p
        // loop still runs 0..k in one ascending pass.
        for ib in (0..m).step_by(MM_BLOCK) {
            let i_end = (ib + MM_BLOCK).min(m);
            for jb in (0..n).step_by(MM_BLOCK) {
                let j_end = (jb + MM_BLOCK).min(n);
                for i in ib..i_end {
                    let a_row = &a[i * k..(i + 1) * k];
                    let out_row = &mut out[i * n..(i + 1) * n];
                    accum_row_span(a_row, b, out_row, n, jb, j_end);
                }
            }
        }
        return;
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        accum_row_span(a_row, b, out_row, n, 0, n);
    }
}

/// AVX2+FMA twin of `linalg::matmul_accumulate_scalar`: accumulates
/// `out += a · b` for row-major `a [m, k]`, `b [k, n]` under the
/// lane-ordered contract documented in this module's header.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available on the running CPU
/// (`KernelBackend::active() == Simd` guarantees this); slice-length
/// mismatches panic like the scalar twin.
pub(crate) unsafe fn matmul_accumulate_simd(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "matmul lhs length");
    assert_eq!(b.len(), k * n, "matmul rhs length");
    assert_eq!(out.len(), m * n, "matmul out length");
    matmul_accumulate_avx2(a, b, out, m, k, n)
}

/// Rows per full register tile: 6 rows × two 4-lane vectors is twelve
/// accumulators, leaving room for the two rhs vectors and the lhs
/// broadcast in the sixteen ymm registers.
const MR: usize = 6;

/// Operand geometry of one tile-kernel call: lhs element `(i, p)` at
/// `a[i·rs + p·cs]`, rhs `(p, j)` at `b[p·n + j]`, output `(i, j)` at
/// `out[i·n + j]`.
struct Operands {
    a: *const f64,
    rs: usize,
    cs: usize,
    b: *const f64,
    out: *mut f64,
    k: usize,
    n: usize,
}

/// Loads four lanes at `ptr`, or only the lanes `mask` selects (the
/// rest read as zero and are never touched in memory).
///
/// # Safety
/// AVX2 must be available and every selected lane in bounds.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load<const MASKED: bool>(ptr: *const f64, mask: __m256i) -> __m256d {
    if MASKED {
        _mm256_maskload_pd(ptr, mask)
    } else {
        _mm256_loadu_pd(ptr)
    }
}

/// Stores four lanes at `ptr`, or only the lanes `mask` selects.
///
/// # Safety
/// AVX2 must be available and every selected lane in bounds.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store<const MASKED: bool>(ptr: *mut f64, mask: __m256i, v: __m256d) {
    if MASKED {
        _mm256_maskstore_pd(ptr, mask, v);
    } else {
        _mm256_storeu_pd(ptr, v);
    }
}

/// Writes the `R × 4·V` output tile at row `i`, column `j`: `R·V`
/// register accumulators start at `+0.0`, run the whole ascending `p`
/// loop and are stored once; `MASKED` tiles (V = 1) cover only the
/// lanes `mask` selects.
///
/// # Safety
/// AVX2+FMA must be available; rows `i..i + R` lie within the lhs
/// extent [`matmul_tiles_simd`] asserted, and the selected columns
/// `j..` lie within `n`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile<const R: usize, const V: usize, const MASKED: bool>(
    ops: &Operands,
    i: usize,
    j: usize,
    mask: __m256i,
) {
    let out = ops.out.add(i * ops.n + j);
    let mut acc = [[_mm256_setzero_pd(); V]; R];
    for p in 0..ops.k {
        // Offsets from p, not pointers bumped past the last p: every
        // pointer formed stays inside its operand.
        let b_p = ops.b.add(p * ops.n + j);
        let a_p = ops.a.add(i * ops.rs + p * ops.cs);
        let mut bv = [_mm256_setzero_pd(); V];
        for (v, lane) in bv.iter_mut().enumerate() {
            *lane = load::<MASKED>(b_p.add(4 * v), mask);
        }
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_pd(*a_p.add(r * ops.rs));
            for (lane, &bl) in row.iter_mut().zip(&bv) {
                *lane = _mm256_fmadd_pd(av, bl, *lane);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, &lane) in row.iter().enumerate() {
            store::<MASKED>(out.add(r * ops.n + 4 * v), mask, lane);
        }
    }
}

/// Sweeps the `R` output rows from `i` across all `n` columns: 8-wide
/// tiles, then one 4-wide and one masked 1–3-wide remainder.
///
/// # Safety
/// As for [`tile`], for the rows `i..i + R`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn row_block<const R: usize>(ops: &Operands, i: usize) {
    let all = _mm256_set1_epi64x(-1);
    let mut j = 0;
    while j + 8 <= ops.n {
        tile::<R, 2, false>(ops, i, j, all);
        j += 8;
    }
    if j + 4 <= ops.n {
        tile::<R, 1, false>(ops, i, j, all);
        j += 4;
    }
    if j < ops.n {
        // Lane l is selected (sign bit set) iff l < n − j.
        let width = _mm256_set1_epi64x((ops.n - j) as i64);
        let mask = _mm256_cmpgt_epi64(width, _mm256_setr_epi64x(0, 1, 2, 3));
        tile::<R, 1, true>(ops, i, j, mask);
    }
}

/// The whole tile sweep inside one `target_feature` unit, so the tile
/// helpers inline into straight-line register code.
///
/// # Safety
/// As for [`tile`], for every row `0..m`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tiles_avx2(ops: &Operands, m: usize) {
    let mut i = 0;
    while i + MR <= m {
        row_block::<MR>(ops, i);
        i += MR;
    }
    match m - i {
        0 => {}
        1 => row_block::<1>(ops, i),
        2 => row_block::<2>(ops, i),
        3 => row_block::<3>(ops, i),
        4 => row_block::<4>(ops, i),
        _ => row_block::<5>(ops, i),
    }
}

/// Register-blocked tile kernel: writes `out = a · b` for an lhs
/// `[m, k]` read through strides — element `(i, p)` at
/// `a[i·rs + p·cs]`, so `(k, 1)` is row-major and `(1, m)` reads a
/// row-major `[k, m]` as its transpose in place — and row-major
/// `b [k, n]`, `out [m, n]`. `out` is never read, so it may hold stale
/// values. No zero skip: the funnel in `linalg.rs` calls this only for
/// a finite `b` (see the module header).
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available on the running CPU
/// (`KernelBackend::active() == Simd` guarantees this). Operand extents
/// are asserted here, before any pointer read.
pub(crate) unsafe fn matmul_tiles_simd(
    a: &[f64],
    (rs, cs): (usize, usize),
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(Some(b.len()), k.checked_mul(n), "matmul rhs length");
    assert_eq!(Some(out.len()), m.checked_mul(n), "matmul out length");
    if m == 0 || k == 0 {
        // No lhs element is read; every empty sum is `+0.0`.
        out.fill(0.0);
        return;
    }
    let last = (m - 1)
        .checked_mul(rs)
        .zip((k - 1).checked_mul(cs))
        .and_then(|(row, col)| row.checked_add(col));
    assert!(
        last.is_some_and(|last| last < a.len()),
        "matmul lhs extent: [{m}, {k}] at strides ({rs}, {cs}) overruns {} elements",
        a.len()
    );
    let ops = Operands {
        a: a.as_ptr(),
        rs,
        cs,
        b: b.as_ptr(),
        out: out.as_mut_ptr(),
        k,
        n,
    };
    // SAFETY: the caller guarantees AVX2+FMA; the asserts above bound
    // every lhs read (`i·rs + p·cs ≤ last < a.len()`), every rhs read
    // (`p·n + j < k·n`) and every output access (`i·n + j < m·n`), and
    // masked lanes past `n` are never touched in memory.
    tiles_avx2(&ops, m)
}

#[cfg(test)]
mod tests {
    use crate::{KernelBackend, Rng64, Tensor};

    /// The SIMD contract's reference recurrence, verbatim: ascending-p
    /// fused multiply-add from `0.0`, skipping `lhs == 0.0`.
    fn naive_fma_matmul(a: &Tensor, b: &Tensor) -> Vec<f64> {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    let aip = a.data()[i * k + p];
                    if aip == 0.0 {
                        continue;
                    }
                    acc = aip.mul_add(b.data()[p * n + j], acc);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn simd_matmul_matches_fma_reference_bitwise() {
        if !KernelBackend::simd_available() {
            return;
        }
        let mut rng = Rng64::seed_from(11);
        // Tile kernel: 37 columns = four 8-wide tiles + a 4-wide + a
        // masked 1-wide; 9 rows = a 6-row tile + a 3-row remainder.
        let a = Tensor::rand_normal(&[9, 13], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[13, 37], 0.0, 1.0, &mut rng);
        let got = crate::backend::with_kernel_backend(KernelBackend::Simd, || a.matmul(&b));
        assert_eq!(got.data(), naive_fma_matmul(&a, &b).as_slice());
    }

    #[test]
    fn simd_blocked_path_matches_fma_reference_bitwise() {
        if !KernelBackend::simd_available() {
            return;
        }
        let mut rng = Rng64::seed_from(12);
        // Row kernel: 64·65·64 ≥ MM_BLOCK_THRESHOLD with n = 65 >
        // MM_BLOCK forces the blocked path; its j spans are 64 (32+32)
        // and 1 (tail).
        let a = Tensor::rand_normal(&[64, 64], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[64, 65], 0.0, 1.0, &mut rng);
        let got = crate::backend::with_kernel_backend(KernelBackend::Simd, || a.matmul(&b));
        assert_eq!(got.data(), naive_fma_matmul(&a, &b).as_slice());
    }
}

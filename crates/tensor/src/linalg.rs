//! Linear algebra: matrix products, transposition, stacking.
//!
//! ## The two kernel contracts
//!
//! Every matmul-family product — the slice kernels in
//! [`crate::kernels`] (the one implementation of each product), the
//! `Tensor` methods that check shapes and call them on a pooled output
//! ([`Tensor::matmul`], [`Tensor::matmul_tn`], [`Tensor::matmul_nt`],
//! [`Tensor::addmm`]), the cache-blocked path and every batched
//! autodiff op — funnels into one entry, [`matmul_funnel`] (or
//! [`matmul_tn_funnel`] for a transposed lhs), which writes
//! `out = a·b` over whatever `out` held and dispatches on the active
//! [`crate::KernelBackend`]. Both
//! backends share one *structural* invariant — each output element is
//! its own recurrence over its `k` products in ascending-`p` order
//! starting from `+0.0`, and tiling only ever groups whole recurrences
//! (i/j blocks, rows, columns, never `p`) — and differ in exactly one
//! rounding rule. The reference recurrences skip `lhs == 0.0`; that
//! skip is observable only with a non-finite rhs (see the SIMD kernel
//! choice below).
//!
//! 1. **Scalar — the bit-identity oracle.** Multiply and add round
//!    separately, matching the reference `transpose()` +
//!    naive-triple-loop composition *bit for bit*. Every committed
//!    experiment record was produced under this contract
//!    (property-tested in `crates/tensor/tests/properties.rs`).
//! 2. **SIMD (AVX2+FMA, x86_64, runtime-detected) — the hot path.**
//!    Every multiply-add is fused (one rounding). Vector lanes carry
//!    independent output columns, so no sum is split across lanes; the
//!    backend is *self-deterministic* (byte-identical across runs,
//!    tile widths, kernels, blocking and thread counts, pinned to a
//!    scalar `mul_add` reference in
//!    `crates/tensor/tests/backend_equivalence.rs`) and agrees with the
//!    scalar oracle element-wise to `(k + 1)·ε·Σₚ|a[i,p]·b[p,j]|` — see
//!    `simd.rs`.
//!
//! ## The SIMD kernel choice
//!
//! The funnel picks the SIMD kernel from the input alone. A finite rhs
//! with `n ≤ MM_BLOCK` columns takes the register-tile kernel, which
//! starts its accumulators at `+0.0` in registers, stores each output
//! element once, reads a transposed lhs in place and tests no lhs
//! element: with every
//! rhs element finite, `fma(±0, b, acc) == acc` for every accumulator
//! the recurrence can reach (it starts at `+0.0` and never becomes
//! `−0`), so the skip is unobservable. The skip is observable only when
//! an lhs zero meets a rhs `±∞` or NaN (`0 · ∞` is NaN), so a non-finite
//! rhs takes the row kernel, which keeps it. Wide products also take the
//! row kernel: over a mostly-zero lhs such as a masked adjacency, its
//! per-row skip pays off across every column span. The row kernels
//! accumulate in memory, so only they get a zero-filled `out` from the
//! funnel; the tile kernel never reads `out`.
//!
//! Because the repack-and-share idiom (`matmul_nt`/`addmm` run the same
//! kernel on a transposed rhs copy; `matmul_tn` reads its lhs in place
//! or from a transposed copy) preserves each element's recurrence, the
//! fused kernels stay bit-identical to their composed forms **within
//! whichever backend is active**; only cross-backend comparisons are
//! tolerance-based. Backend selection: `EMA_KERNEL` env knob /
//! [`crate::backend::set_kernel_backend`] / [`KernelBackend::scoped`] —
//! see `backend.rs`.

use crate::backend::KernelBackend;
use crate::{kernels, pool, Shape, Tensor};

/// Tile edge for the cache-blocked matmul path: output/operand row
/// chunks of 64 f64 (512 B) stay resident in L1 across the `p` loop.
pub(crate) const MM_BLOCK: usize = 64;

/// Products with at least this many multiply-adds take the blocked
/// path; below it the plain ikj loop wins on loop overhead.
pub(crate) const MM_BLOCK_THRESHOLD: usize = 1 << 18;

/// Register-tiled inner kernel: accumulates
/// `out[i, j..j + W] += Σ_p a[i, p] · b[p, j..j + W]` for one output
/// row span of compile-time width `W`. The fixed width lets the
/// accumulator live in vector registers across the whole `p` loop; a
/// dynamic-width span re-reads the output row from memory on every `p`
/// step, chaining each iteration on a store-to-load roundtrip.
///
/// `b_span` must be `b` offset by the span's starting column. The `p`
/// loop still runs 0..k in one ascending pass with the `== 0.0` skip,
/// so the bit-identity contract is untouched.
#[inline]
fn accum_tile<const W: usize>(a_row: &[f64], b_span: &[f64], out_tile: &mut [f64; W], n: usize) {
    let mut acc = *out_tile;
    for (p, &aip) in a_row.iter().enumerate() {
        if aip == 0.0 {
            continue;
        }
        let brow: &[f64; W] = b_span[p * n..p * n + W].try_into().expect("span width");
        for l in 0..W {
            acc[l] += aip * brow[l];
        }
    }
    *out_tile = acc;
}

/// Accumulates one output row span `out_row[jb..j_end]` by decomposing
/// it into fixed-width register tiles (32/16/8/4) plus a scalar tail.
fn accum_row_span(
    a_row: &[f64],
    b: &[f64],
    out_row: &mut [f64],
    n: usize,
    jb: usize,
    j_end: usize,
) {
    let mut j = jb;
    while j + 32 <= j_end {
        let tile: &mut [f64; 32] = (&mut out_row[j..j + 32]).try_into().expect("tile width");
        accum_tile::<32>(a_row, &b[j..], tile, n);
        j += 32;
    }
    if j + 16 <= j_end {
        let tile: &mut [f64; 16] = (&mut out_row[j..j + 16]).try_into().expect("tile width");
        accum_tile::<16>(a_row, &b[j..], tile, n);
        j += 16;
    }
    if j + 8 <= j_end {
        let tile: &mut [f64; 8] = (&mut out_row[j..j + 8]).try_into().expect("tile width");
        accum_tile::<8>(a_row, &b[j..], tile, n);
        j += 8;
    }
    if j + 4 <= j_end {
        let tile: &mut [f64; 4] = (&mut out_row[j..j + 4]).try_into().expect("tile width");
        accum_tile::<4>(a_row, &b[j..], tile, n);
        j += 4;
    }
    if j < j_end {
        for (p, &aip) in a_row.iter().enumerate() {
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n + j..p * n + j_end];
            let orow = &mut out_row[j..j_end];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    }
}

/// The product every matmul-family op runs: `out = a · b` for
/// row-major `a` `[m, k]` and `b` `[k, n]`, overwriting whatever `out`
/// held (a stale pooled buffer is fine). Dispatches on the thread's
/// active [`KernelBackend`] and, under SIMD, on the input (see the
/// kernel choice in this file's header).
pub(crate) fn matmul_funnel(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    funnel(a, false, b, out, m, k, n);
}

/// [`matmul_funnel`] with the lhs given transposed: `out = aᵀ · b` for
/// row-major `a` `[k, m]` and `b` `[k, n]`, bit-identical to running
/// [`matmul_funnel`] on an explicit transpose of `a` (the same kernel
/// choice and the same per-element recurrence).
pub(crate) fn matmul_tn_funnel(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    funnel(a, true, b, out, m, k, n);
}

/// The funnel body: picks the kernel from the backend and the input
/// (see "The SIMD kernel choice" above) and records the call with the
/// output traffic of the kernel it picked.
fn funnel(
    a: &[f64],
    lhs_transposed: bool,
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    let backend = KernelBackend::active();
    // Work accounting for the obs layer: a relaxed-flag check plus a
    // thread-local add, keyed by the backend and kernel that will
    // actually run. Never touches the operands, so it cannot perturb
    // numerics.
    #[cfg(target_arch = "x86_64")]
    if backend == KernelBackend::Simd && n <= MM_BLOCK && all_finite(b) {
        // The tile kernel writes each output element once.
        crate::backend::record_matmul(backend, m, k, n, 1);
        let strides = if lhs_transposed { (1, m) } else { (k, 1) };
        // SAFETY: `active()` returns `Simd` only when AVX2+FMA were
        // detected on the running CPU (`KernelBackend::simd_available`);
        // the kernel asserts the strided lhs extent itself.
        unsafe { crate::simd::matmul_tiles_simd(a, strides, b, out, m, k, n) };
        return;
    }
    // The row kernels accumulate into `out`, reading and writing it:
    // each recurrence starts from the `+0.0` written here.
    crate::backend::record_matmul(backend, m, k, n, 2);
    out.fill(0.0);
    if !lhs_transposed {
        accumulate_rows(backend, a, b, out, m, k, n);
        return;
    }
    // Repack aᵀ into a pooled scratch buffer: the row kernels walk the
    // lhs row by row, and reading `a[p * m + i]` in place would load one
    // cache line per element; the O(k·m) repack is noise next to the
    // O(m·k·n) product. Each repacked element is the value the kernel
    // reads after an explicit transpose, so accumulation order and the
    // zero skip stay bit-identical to the composed form.
    let mut at = pool::take_uninit(m * k);
    for (p, arow) in a.chunks_exact(m).enumerate() {
        for (i, &av) in arow.iter().enumerate() {
            at[i * k + p] = av;
        }
    }
    accumulate_rows(backend, &at, b, out, m, k, n);
    pool::recycle(at);
}

/// The row kernels: the scalar ikj oracle below or its AVX2+FMA twin
/// in `simd.rs`, both skipping `lhs == 0.0`.
fn accumulate_rows(
    backend: KernelBackend,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if backend == KernelBackend::Simd {
        // SAFETY: `active()` returns `Simd` only when AVX2+FMA were
        // detected on the running CPU (`KernelBackend::simd_available`).
        unsafe { crate::simd::matmul_accumulate_simd(a, b, out, m, k, n) };
        return;
    }
    matmul_accumulate_scalar(a, b, out, m, k, n);
}

/// True when no element of `b` is ±∞ or NaN. An all-ones exponent
/// field is the only one that carries into bit 63 when one is added to
/// it; the branch-free OR fold vectorizes.
#[cfg(target_arch = "x86_64")]
fn all_finite(b: &[f64]) -> bool {
    const EXPONENT: u64 = 0x7ff0_0000_0000_0000;
    const EXPONENT_ONE: u64 = 1 << 52;
    let carries = b
        .iter()
        .fold(0, |acc, v| acc | ((v.to_bits() & EXPONENT) + EXPONENT_ONE));
    carries >> 63 == 0
}

/// Scalar ikj kernel accumulating `out += a · b` — the bit-identity
/// oracle. Skips `a[i, p] == 0.0` (exact zeros are common after ReLU);
/// the skip is also what fixes the accumulation sequence the
/// bit-identity contract promises.
pub(crate) fn matmul_accumulate_scalar(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    if m * n * k >= MM_BLOCK_THRESHOLD && n > MM_BLOCK {
        // Tile i and j only: for each output element the p loop still
        // runs 0..k in one ascending pass, so blocking never reorders
        // an accumulation (tiling p would).
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

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`
    /// ([`kernels::matmul_into`] on a pooled output).
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 with compatible inner dims.
    #[must_use]
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(
            k, k2,
            "matmul inner dimension mismatch: [{m}, {k}] x [{k2}, {n}]"
        );
        let mut out = pool::take_uninit(m * n);
        kernels::matmul_into(self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_shape_pooled(Shape::of(&[m, n]), out)
    }

    /// Transpose-aware product `selfᵀ · other`: `[k, m] x [k, n] ->
    /// [m, n]` without materializing the transpose
    /// ([`kernels::matmul_tn_into`]). Bit-identical to
    /// `self.transpose().matmul(other)` — this is the `aᵀ·g` shape of
    /// the autodiff backward pass.
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 sharing their first dim.
    #[must_use]
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_tn lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_tn rhs must be rank 2");
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(
            k, k2,
            "matmul_tn leading dimension mismatch: [{k}, {m}]ᵀ x [{k2}, {n}]"
        );
        let mut out = pool::take_uninit(m * n);
        kernels::matmul_tn_into(self.data(), other.data(), &mut out, k, m, n);
        Tensor::from_shape_pooled(Shape::of(&[m, n]), out)
    }

    /// Transpose-aware product `self · otherᵀ`: `[m, k] x [n, k] ->
    /// [m, n]` without materializing the transpose
    /// ([`kernels::matmul_nt_into`]). Bit-identical to
    /// `self.matmul(&other.transpose())` — the `g·bᵀ` shape of the
    /// autodiff backward pass.
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 sharing their second dim.
    #[must_use]
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_nt lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_nt rhs must be rank 2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        assert_eq!(
            k, k2,
            "matmul_nt trailing dimension mismatch: [{m}, {k}] x [{n}, {k2}]ᵀ"
        );
        let mut out = pool::take_uninit(m * n);
        kernels::matmul_nt_into(self.data(), other.data(), &mut out, m, k, n);
        Tensor::from_shape_pooled(Shape::of(&[m, n]), out)
    }

    /// Fused linear-layer kernel `self · wᵀ + bias`:
    /// `[n, k] x [out, k]ᵀ + [out] -> [n, out]` in one pass, with no
    /// transpose and no intermediate product tensor
    /// ([`kernels::addmm_into`]). Bit-identical to
    /// `self.matmul(&w.transpose()).add_row_broadcast(bias)` — the dot
    /// product accumulates exactly like [`Tensor::matmul_nt`] and the
    /// bias is added after the full accumulation, matching the
    /// composed ordering.
    ///
    /// # Panics
    /// Panics on rank or dimension mismatches.
    #[must_use]
    pub fn addmm(&self, w: &Tensor, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "addmm input must be rank 2");
        assert_eq!(w.rank(), 2, "addmm weight must be rank 2");
        assert_eq!(bias.rank(), 1, "addmm bias must be rank 1");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (w.dims()[0], w.dims()[1]);
        assert_eq!(
            k, k2,
            "addmm trailing dimension mismatch: [{m}, {k}] x [{n}, {k2}]ᵀ"
        );
        assert_eq!(
            bias.len(),
            n,
            "addmm bias length {} does not match output width {n}",
            bias.len()
        );
        let mut out = pool::take_uninit(m * n);
        kernels::addmm_into(self.data(), w.data(), bias.data(), &mut out, m, k, n);
        Tensor::from_shape_pooled(Shape::of(&[m, n]), out)
    }

    /// Matrix–vector product: `[m, k] x [k] -> [m]`.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2, `v` rank 1, with matching inner dim.
    #[must_use]
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec lhs must be rank 2");
        assert_eq!(v.rank(), 1, "matvec rhs must be rank 1");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        assert_eq!(k, v.len(), "matvec inner dimension mismatch");
        let a = self.data();
        let x = v.data();
        let mut out = pool::take_uninit(m);
        for (i, o) in out.iter_mut().enumerate() {
            let row = &a[i * k..(i + 1) * k];
            *o = row.iter().zip(x.iter()).map(|(&p, &q)| p * q).sum();
        }
        Tensor::from_shape_pooled(Shape::of(&[m]), out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2.
    #[must_use]
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let a = self.data();
        let mut out = pool::take_uninit(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_shape_pooled(Shape::of(&[n, m]), out)
    }

    /// Dot product of two rank-1 tensors.
    ///
    /// # Panics
    /// Panics unless both are rank 1 of equal length.
    #[must_use]
    pub fn dot(&self, other: &Tensor) -> f64 {
        assert_eq!(self.rank(), 1, "dot lhs must be rank 1");
        assert_eq!(other.rank(), 1, "dot rhs must be rank 1");
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data()
            .iter()
            .zip(other.data().iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Outer product of two rank-1 tensors: `[m] x [n] -> [m, n]`.
    ///
    /// # Panics
    /// Panics unless both are rank 1.
    #[must_use]
    pub fn outer(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 1, "outer lhs must be rank 1");
        assert_eq!(other.rank(), 1, "outer rhs must be rank 1");
        let (m, n) = (self.len(), other.len());
        let mut out = pool::take_uninit(m * n);
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = self.data()[i] * other.data()[j];
            }
        }
        Tensor::from_shape_pooled(Shape::of(&[m, n]), out)
    }

    /// Frobenius / L2 norm over all elements.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.data().iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Trace of a square rank-2 tensor.
    ///
    /// # Panics
    /// Panics unless `self` is a square matrix.
    #[must_use]
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rank(), 2, "trace requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        assert_eq!(m, n, "trace requires a square matrix");
        (0..n).map(|i| self.data()[i * n + i]).sum()
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2 and `i` in bounds.
    #[must_use]
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "row requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        assert!(i < m, "row index {i} out of bounds for {m} rows");
        Tensor::pooled_copy(Shape::of(&[n]), &self.data()[i * n..(i + 1) * n])
    }

    /// Extracts column `j` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Panics
    /// Panics unless `self` is rank 2 and `j` in bounds.
    #[must_use]
    pub fn col(&self, j: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "col requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        assert!(j < n, "column index {j} out of bounds for {n} columns");
        let mut out = pool::take_uninit(m);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data()[i * n + j];
        }
        Tensor::from_shape_pooled(Shape::of(&[m]), out)
    }

    /// Stacks rank-1 tensors of equal length into a `[rows.len(), len]`
    /// matrix.
    ///
    /// # Panics
    /// Panics if `rows` is empty or lengths differ.
    #[must_use]
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let n = rows[0].len();
        let mut data = pool::take_uninit(rows.len() * n);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.rank(), 1, "stack_rows expects rank-1 tensors");
            assert_eq!(r.len(), n, "row {i} has mismatched length");
            data[i * n..(i + 1) * n].copy_from_slice(r.data());
        }
        Tensor::from_shape_pooled(Shape::of(&[rows.len(), n]), data)
    }

    /// Concatenates two matrices horizontally: `[m, a]` ++ `[m, b]` →
    /// `[m, a + b]`.
    ///
    /// # Panics
    /// Panics unless both are rank 2 with equal row counts.
    #[must_use]
    pub fn hcat(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "hcat lhs must be rank 2");
        assert_eq!(other.rank(), 2, "hcat rhs must be rank 2");
        let (m, a) = (self.dims()[0], self.dims()[1]);
        let (m2, b) = (other.dims()[0], other.dims()[1]);
        assert_eq!(m, m2, "hcat row count mismatch");
        let w = a + b;
        let mut data = pool::take_uninit(m * w);
        for i in 0..m {
            data[i * w..i * w + a].copy_from_slice(&self.data()[i * a..(i + 1) * a]);
            data[i * w + a..(i + 1) * w].copy_from_slice(&other.data()[i * b..(i + 1) * b]);
        }
        Tensor::from_shape_pooled(Shape::of(&[m, w]), data)
    }

    /// Concatenates two matrices vertically: `[a, n]` ++ `[b, n]` →
    /// `[a + b, n]`.
    ///
    /// # Panics
    /// Panics unless both are rank 2 with equal column counts.
    #[must_use]
    pub fn vcat(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "vcat lhs must be rank 2");
        assert_eq!(other.rank(), 2, "vcat rhs must be rank 2");
        let (a, n) = (self.dims()[0], self.dims()[1]);
        let (b, n2) = (other.dims()[0], other.dims()[1]);
        assert_eq!(n, n2, "vcat column count mismatch");
        let mut data = pool::take_uninit((a + b) * n);
        data[..a * n].copy_from_slice(self.data());
        data[a * n..].copy_from_slice(other.data());
        Tensor::from_shape_pooled(Shape::of(&[a + b, n]), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_tensors_close;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec2(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Tensor::from_vec2(vec![vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(&[3, 3], (0..9).map(f64::from).collect()).unwrap();
        assert_tensors_close(&a.matmul(&Tensor::eye(3)), &a, 1e-12);
        assert_tensors_close(&Tensor::eye(3).matmul(&a), &a, 1e-12);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0; 6]).unwrap();
        let b = Tensor::from_vec(&[3, 4], vec![2.0; 12]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 4]);
        assert!(c.data().iter().all(|&v| v == 6.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_checks_inner_dim() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(&[3, 2], (0..6).map(f64::from).collect()).unwrap();
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|v| f64::from(v) * 0.5).collect()).unwrap();
        let fused = a.matmul_tn(&b);
        let reference = a.transpose().matmul(&b);
        assert_eq!(fused.dims(), &[2, 4]);
        assert_eq!(fused.data(), reference.data());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec(&[2, 3], (0..6).map(f64::from).collect()).unwrap();
        let b = Tensor::from_vec(&[4, 3], (0..12).map(|v| f64::from(v) * 0.5).collect()).unwrap();
        let fused = a.matmul_nt(&b);
        let reference = a.matmul(&b.transpose());
        assert_eq!(fused.dims(), &[2, 4]);
        assert_eq!(fused.data(), reference.data());
    }

    #[test]
    #[should_panic(expected = "leading dimension mismatch")]
    fn matmul_tn_checks_dims() {
        let _ = Tensor::zeros(&[2, 3]).matmul_tn(&Tensor::zeros(&[3, 2]));
    }

    #[test]
    #[should_panic(expected = "trailing dimension mismatch")]
    fn matmul_nt_checks_dims() {
        let _ = Tensor::zeros(&[2, 3]).matmul_nt(&Tensor::zeros(&[3, 2]));
    }

    #[test]
    fn blocked_path_matches_naive() {
        // Large enough to cross MM_BLOCK_THRESHOLD with n > MM_BLOCK.
        // The naive reference below implements the *scalar* contract,
        // so pin the oracle backend regardless of `EMA_KERNEL`.
        let _scalar = KernelBackend::Scalar.scoped();
        let m = 72;
        let k = 72;
        let n = 72;
        let mut rng = crate::Rng64::seed_from(5);
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let blocked = a.matmul(&b);
        // Naive reference: ascending-p accumulation per element.
        let (ad, bd) = (a.data(), b.data());
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    let aip = ad[i * k + p];
                    if aip == 0.0 {
                        continue;
                    }
                    acc += aip * bd[p * n + j];
                }
                assert_eq!(blocked.data()[i * n + j], acc, "({i}, {j})");
            }
        }
    }

    #[test]
    fn addmm_matches_composed_ops() {
        let mut rng = crate::Rng64::seed_from(7);
        let x = Tensor::rand_normal(&[5, 3], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng);
        let bias = Tensor::rand_normal(&[4], 0.0, 1.0, &mut rng);
        let fused = x.addmm(&w, &bias);
        let reference = x.matmul(&w.transpose()).add_row_broadcast(&bias);
        assert_eq!(fused.dims(), &[5, 4]);
        assert_eq!(fused.data(), reference.data());
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn addmm_checks_bias_length() {
        let _ = Tensor::zeros(&[2, 3]).addmm(&Tensor::zeros(&[4, 3]), &Tensor::zeros(&[3]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_vec2(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = Tensor::from_vec1(vec![5.0, 6.0]);
        let mv = a.matvec(&v);
        let mm = a.matmul(&v.reshaped(&[2, 1]));
        assert_eq!(mv.data(), mm.data());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(&[2, 3], (0..6).map(f64::from).collect()).unwrap();
        assert_tensors_close(&a.transpose().transpose(), &a, 0.0);
        assert_eq!(a.transpose().dims(), &[3, 2]);
        assert_eq!(a.transpose().at2(2, 1), a.at2(1, 2));
    }

    #[test]
    fn dot_and_outer() {
        let u = Tensor::from_vec1(vec![1.0, 2.0]);
        let v = Tensor::from_vec1(vec![3.0, 4.0]);
        assert_eq!(u.dot(&v), 11.0);
        let o = u.outer(&v);
        assert_eq!(o.dims(), &[2, 2]);
        assert_eq!(o.data(), &[3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn trace_and_norm() {
        let a = Tensor::from_vec2(vec![vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert_eq!(a.trace(), 7.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn rows_cols_and_stack() {
        let a = Tensor::from_vec2(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1).data(), &[3.0, 4.0]);
        assert_eq!(a.col(0).data(), &[1.0, 3.0]);
        let restacked = Tensor::stack_rows(&[a.row(0), a.row(1)]);
        assert_tensors_close(&restacked, &a, 0.0);
    }

    #[test]
    fn hcat_vcat() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[2, 1]);
        let h = a.hcat(&b);
        assert_eq!(h.dims(), &[2, 3]);
        assert_eq!(h.at2(0, 2), 0.0);
        let c = Tensor::zeros(&[1, 2]);
        let v = a.vcat(&c);
        assert_eq!(v.dims(), &[3, 2]);
        assert_eq!(v.at2(2, 0), 0.0);
    }
}

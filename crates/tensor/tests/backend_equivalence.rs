//! Kernel-backend equivalence suite: the SIMD (AVX2+FMA) kernels vs the
//! scalar bit-identity oracle.
//!
//! Three layers of guarantee, matching the two-contract story in the
//! `linalg.rs` header:
//!
//! 1. **SIMD is bit-exactly the lane-ordered FMA recurrence** — every
//!    element is `acc = fma(a[i,p], b[p,j], acc)` ascending in `p` from
//!    `+0.0`, skipping `a[i,p] == 0.0` — on both kernels the funnel picks
//!    from: the register-tile kernel (finite rhs, `n ≤ MM_BLOCK`: every
//!    1–6-row tile and the 8-wide, 4-wide and masked 1–3-wide column
//!    tiles, with a transposed lhs read in place) and the row kernel
//!    (wider products and the cache-blocked i/j path). The tile kernel
//!    has no zero skip, which is exact for a finite rhs; a rhs holding
//!    ±∞ or NaN where an lhs zero meets it is the one input that makes
//!    the skip observable, and it must take the row kernel.
//! 2. **SIMD agrees with the scalar oracle to strict tolerance**: each
//!    FMA replaces a separately rounded multiply+add, so element-wise
//!    `|simd − scalar| ≤ (k + 1)·ε·Σₚ|a[i,p]·b[p,j]|`.
//! 3. **SIMD is self-deterministic**: byte-identical across repeated
//!    runs and across threads.
//!
//! Every property degrades to a scalar-vs-scalar tautology on machines
//! without AVX2+FMA (`active()` normalizes `Simd` → `Scalar`), so the
//! suite is portable; the interesting assertions fire wherever the
//! SIMD kernel can actually run.

mod common;

use common::assert_slice_kernels_match;
use ema_check::{gen, prop_assert, prop_tests};
use ema_tensor::{with_kernel_backend, KernelBackend, Rng64, Tensor};

/// Column counts that force every column decomposition of both SIMD
/// kernels: the tile kernel's 8-wide, 4-wide and masked 1–3-wide tiles
/// and mixes thereof up to `MM_BLOCK` = 64, and past it the row kernel's
/// 32/16/8/4-wide spans and scalar tails.
const FORCED_WIDTHS: [usize; 17] = [1, 2, 3, 4, 5, 7, 8, 12, 16, 20, 32, 36, 52, 61, 64, 69, 92];

/// Random matrix with ~25% exact zeros so the `lhs == 0.0` skip is
/// exercised on both backends.
fn sparse(rng: &mut Rng64, rows: usize, cols: usize) -> Tensor {
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| {
            if rng.uniform() < 0.25 {
                0.0
            } else {
                gen::f64_in(rng, -3.0, 3.0)
            }
        })
        .collect();
    Tensor::from_vec(&[rows, cols], data).unwrap()
}

/// The SIMD contract's reference recurrence, verbatim: ascending-`p`
/// fused multiply-add from `0.0`, skipping `lhs == 0.0`. Scalar code —
/// shares nothing with the vector kernel but the specification.
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

/// Element-wise bound on |simd − scalar|: `(k + 1)·ε·Σₚ|a[i,p]·b[p,j]|`
/// (k roundings on each side plus one for the final difference).
fn agreement_bound(a: &Tensor, b: &Tensor) -> Vec<f64> {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let scale = (k as f64 + 1.0) * f64::EPSILON;
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut mag = 0.0f64;
            for p in 0..k {
                mag += (a.data()[i * k + p] * b.data()[p * n + j]).abs();
            }
            out[i * n + j] = scale * mag;
        }
    }
    out
}

fn assert_backends_agree(a: &Tensor, b: &Tensor, context: &str) {
    let scalar = with_kernel_backend(KernelBackend::Scalar, || a.matmul(b));
    let simd = with_kernel_backend(KernelBackend::Simd, || a.matmul(b));
    let bound = agreement_bound(a, b);
    for (i, ((&s, &v), &tol)) in scalar
        .data()
        .iter()
        .zip(simd.data().iter())
        .zip(bound.iter())
        .enumerate()
    {
        assert!(
            (s - v).abs() <= tol,
            "{context}: backends disagree at flat index {i}: scalar {s} vs simd {v} \
             (bound {tol}, diff {})",
            (s - v).abs()
        );
    }
}

fn assert_simd_matches_fma_reference(a: &Tensor, b: &Tensor, context: &str) {
    let simd = with_kernel_backend(KernelBackend::Simd, || a.matmul(b));
    let reference = naive_fma_matmul(a, b);
    if KernelBackend::simd_available() {
        assert!(
            simd.data() == reference.as_slice(),
            "{context}: SIMD kernel diverged bitwise from the lane-ordered FMA reference"
        );
        let dims = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let _simd = KernelBackend::Simd.scoped();
        assert_slice_kernels_match(a.data(), b.data(), dims, &reference, context);
    }
}

/// Generator: shapes that sweep every register-tile width and, with
/// 1–17 rows, two full 6-row tiles and every row remainder, with enough
/// `k` to accumulate rounding differences worth bounding.
fn tile_sweep_pair(rng: &mut Rng64) -> (Tensor, Tensor) {
    let m = gen::usize_in(rng, 1, 18);
    let k = gen::usize_in(rng, 1, 24);
    let n = FORCED_WIDTHS[gen::usize_in(rng, 0, FORCED_WIDTHS.len())];
    let a = sparse(rng, m, k);
    let b = sparse(rng, k, n);
    (a, b)
}

/// Generator: a tile-sweep pair whose rhs holds ±∞ and NaN entries in
/// rows that meet exact-zero lhs entries — at least one such meeting
/// per case, where skipping `0 · ±∞` or `0 · NaN` decides the result.
fn non_finite_pair(rng: &mut Rng64) -> (Tensor, Tensor) {
    const NON_FINITE: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let (a, b) = tile_sweep_pair(rng);
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let mut ad = a.data().to_vec();
    let mut bd = b.data().to_vec();
    let forced = gen::usize_in(rng, 0, k);
    ad[gen::usize_in(rng, 0, m) * k + forced] = 0.0;
    for p in 0..k {
        let meets_zero = (0..m).any(|i| ad[i * k + p] == 0.0);
        if p == forced || (meets_zero && rng.uniform() < 0.5) {
            let j = gen::usize_in(rng, 0, n);
            bd[p * n + j] = NON_FINITE[gen::usize_in(rng, 0, NON_FINITE.len())];
        }
    }
    (
        Tensor::from_vec(&[m, k], ad).unwrap(),
        Tensor::from_vec(&[k, n], bd).unwrap(),
    )
}

/// NaN exactly where `reference` has NaN (payloads and signs of NaN are
/// not part of the contract), every other element bit for bit.
fn assert_matches_with_nans(got: &[f64], reference: &[f64], context: &str) {
    assert_eq!(got.len(), reference.len(), "{context}: length");
    for (i, (&g, &r)) in got.iter().zip(reference).enumerate() {
        let same = if r.is_nan() {
            g.is_nan()
        } else {
            g.to_bits() == r.to_bits()
        };
        assert!(
            same,
            "{context}: flat index {i} is {g}, the FMA reference has {r}"
        );
    }
}

prop_tests! {
    // ---- contract layer 1: SIMD == lane-ordered FMA recurrence -----

    // Widths up to `MM_BLOCK` take the tile kernel, wider ones the row
    // kernel. An empty sum (k = 0) must write `+0.0` on either.
    fn simd_matches_fma_reference_across_tile_widths((a, b) in tile_sweep_pair) {
        assert_simd_matches_fma_reference(&a, &b, "tile sweep");
        let (m, n) = (a.dims()[0], b.dims()[1]);
        let _simd = KernelBackend::Simd.scoped();
        assert_slice_kernels_match(&[], &[], (m, 0, n), &vec![0.0; m * n], "k = 0");
    }

    // Blocked path: volume ≥ MM_BLOCK_THRESHOLD with n > MM_BLOCK.
    // Heavy — a few cases cover both block-boundary layouts.
    @cases(4)
    fn simd_matches_fma_reference_on_blocked_path(seed in gen::u64_below(1_000_000)) {
        let mut rng = Rng64::seed_from(seed);
        for (m, k, n) in [(64usize, 64usize, 65usize), (40, 80, 100)] {
            let a = sparse(&mut rng, m, k);
            let b = sparse(&mut rng, k, n);
            assert_simd_matches_fma_reference(&a, &b, "blocked path");
        }
    }

    // A non-finite rhs is the only input where the zero skip shows:
    // `matmul`, `matmul_tn` (transposed lhs) and the four slice kernels
    // must keep it, whatever the width.
    fn simd_keeps_zero_skip_on_non_finite_rhs((a, b) in non_finite_pair) {
        if KernelBackend::simd_available() {
            let _simd = KernelBackend::Simd.scoped();
            let reference = naive_fma_matmul(&a, &b);
            let dims = (a.dims()[0], a.dims()[1], b.dims()[1]);
            let at = a.transpose();
            assert_matches_with_nans(a.matmul(&b).data(), &reference, "matmul");
            assert_matches_with_nans(at.matmul_tn(&b).data(), &reference, "matmul_tn");
            assert_slice_kernels_match(a.data(), b.data(), dims, &reference, "non-finite rhs");
        }
    }

    // ---- contract layer 2: cross-backend agreement bound -----------

    fn simd_within_bound_of_scalar_across_tile_widths((a, b) in tile_sweep_pair) {
        assert_backends_agree(&a, &b, "tile sweep");
    }

    @cases(4)
    fn simd_within_bound_of_scalar_on_blocked_path(seed in gen::u64_below(1_000_000)) {
        let mut rng = Rng64::seed_from(seed);
        for (m, k, n) in [(64usize, 64usize, 65usize), (40, 80, 100)] {
            let a = sparse(&mut rng, m, k);
            let b = sparse(&mut rng, k, n);
            assert_backends_agree(&a, &b, "blocked path");
        }
    }

    // Fused kernels repack operands but keep per-element accumulation
    // sequences, so fused == composed holds *bitwise within* the SIMD
    // backend too (the cross-backend diff is the only tolerance seam).
    fn simd_fused_kernels_match_composed_bitwise((a, b) in tile_sweep_pair) {
        let _simd = KernelBackend::Simd.scoped();
        let tn = a.transpose();
        prop_assert!(
            tn.matmul_tn(&b).data() == tn.transpose().matmul(&b).data(),
            "matmul_tn diverged from composed form under SIMD"
        );
        let bt = b.transpose();
        prop_assert!(
            a.matmul_nt(&bt).data() == a.matmul(&bt.transpose()).data(),
            "matmul_nt diverged from composed form under SIMD"
        );
    }

    // ---- contract layer 3: SIMD self-determinism -------------------

    fn simd_is_deterministic_across_runs((a, b) in tile_sweep_pair) {
        let _simd = KernelBackend::Simd.scoped();
        let first = a.matmul(&b);
        for _ in 0..3 {
            let again = a.matmul(&b);
            prop_assert!(
                bits(first.data()) == bits(again.data()),
                "SIMD matmul not byte-identical across repeated runs"
            );
        }
    }

    @cases(16)
    fn simd_is_deterministic_across_threads(seed in gen::u64_below(1_000_000)) {
        let mut rng = Rng64::seed_from(seed);
        let (a, b) = tile_sweep_pair(&mut rng);
        let main_thread = with_kernel_backend(KernelBackend::Simd, || a.matmul(&b));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (a, b) = (a.clone(), b.clone());
                std::thread::spawn(move || {
                    with_kernel_backend(KernelBackend::Simd, || a.matmul(&b))
                })
            })
            .collect();
        for worker in workers {
            let got = worker.join().expect("worker thread panicked");
            prop_assert!(
                bits(main_thread.data()) == bits(got.data()),
                "SIMD matmul not byte-identical across threads"
            );
        }
    }
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|v| v.to_bits()).collect()
}

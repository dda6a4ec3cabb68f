//! Property-based tests for tensor algebra laws, on the in-house
//! `ema-check` harness (seeded, deterministic, 256 cases per property).

mod common;

use common::assert_slice_kernels_match;
use ema_check::{gen, prop_assert, prop_tests};
use ema_tensor::{assert_tensors_close, KernelBackend, Rng64, Tensor};

/// Both kernel backends. `Simd` silently runs the scalar kernel on
/// machines without AVX2+FMA (`KernelBackend::active` normalizes), so
/// iterating this list is portable.
const BACKENDS: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Simd];

/// Generator: a rank-1 tensor with 1..=31 finite elements.
fn vec_tensor(rng: &mut Rng64) -> Tensor {
    Tensor::from_vec1(gen::vec_f64(rng, -1e3, 1e3, 1, 32))
}

/// Generator: two same-length rank-1 tensors.
fn vec_pair(rng: &mut Rng64) -> (Tensor, Tensor) {
    let n = gen::usize_in(rng, 1, 32);
    (
        Tensor::from_vec1(gen::vec_f64_len(rng, -1e3, 1e3, n)),
        Tensor::from_vec1(gen::vec_f64_len(rng, -1e3, 1e3, n)),
    )
}

/// Generator: a matrix with dims in `[1, max)`.
fn matrix(max: usize) -> impl Fn(&mut Rng64) -> Tensor {
    move |rng| {
        let m = gen::usize_in(rng, 1, max);
        let n = gen::usize_in(rng, 1, max);
        Tensor::from_vec(&[m, n], gen::vec_f64_len(rng, -1e2, 1e2, m * n)).unwrap()
    }
}

/// An `[r, c]` matrix with roughly a quarter of its entries exactly
/// `0.0`, so matmul's zero-skip branch is exercised on both sides.
fn sparse_matrix(rng: &mut Rng64, r: usize, c: usize) -> Tensor {
    let mut v = gen::vec_f64_len(rng, -1e2, 1e2, r * c);
    for x in &mut v {
        if gen::usize_in(rng, 0, 4) == 0 {
            *x = 0.0;
        }
    }
    Tensor::from_vec(&[r, c], v).unwrap()
}

/// Generator: a matmul-compatible sparse pair `a [m, k]`, `b [k, n]`.
fn matmul_pair(rng: &mut Rng64) -> (Tensor, Tensor) {
    let m = gen::usize_in(rng, 1, 10);
    let k = gen::usize_in(rng, 1, 10);
    let n = gen::usize_in(rng, 1, 10);
    (sparse_matrix(rng, m, k), sparse_matrix(rng, k, n))
}

/// Generator: a `matmul_tn`-compatible pair `a [k, m]`, `b [k, n]`.
fn tn_pair(rng: &mut Rng64) -> (Tensor, Tensor) {
    let k = gen::usize_in(rng, 1, 10);
    let m = gen::usize_in(rng, 1, 10);
    let n = gen::usize_in(rng, 1, 10);
    (sparse_matrix(rng, k, m), sparse_matrix(rng, k, n))
}

/// Generator: a `matmul_nt`-compatible pair `a [m, k]`, `b [n, k]`.
fn nt_pair(rng: &mut Rng64) -> (Tensor, Tensor) {
    let m = gen::usize_in(rng, 1, 10);
    let k = gen::usize_in(rng, 1, 10);
    let n = gen::usize_in(rng, 1, 10);
    (sparse_matrix(rng, m, k), sparse_matrix(rng, n, k))
}

/// Generator: an addmm triple `x [m, k]`, `w [n, k]`, `bias [n]`.
fn addmm_triple(rng: &mut Rng64) -> (Tensor, Tensor, Tensor) {
    let m = gen::usize_in(rng, 1, 10);
    let k = gen::usize_in(rng, 1, 10);
    let n = gen::usize_in(rng, 1, 10);
    (
        sparse_matrix(rng, m, k),
        sparse_matrix(rng, n, k),
        Tensor::from_vec1(gen::vec_f64_len(rng, -1e2, 1e2, n)),
    )
}

/// Entries the column-sum property mixes in: both zeros, both
/// infinities and NaN.
const SPECIALS: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// Generator: an `[m, n]` matrix (`m` in `1..12`, `n` in `1..20`) with
/// about one entry in eight drawn from [`SPECIALS`].
fn matrix_with_specials(rng: &mut Rng64) -> Tensor {
    let m = gen::usize_in(rng, 1, 12);
    let n = gen::usize_in(rng, 1, 20);
    let mut v = gen::vec_f64_len(rng, -1e2, 1e2, m * n);
    for x in &mut v {
        if gen::usize_in(rng, 0, 8) == 0 {
            *x = SPECIALS[gen::usize_in(rng, 0, SPECIALS.len())];
        }
    }
    Tensor::from_vec(&[m, n], v).unwrap()
}

/// Strided reference sums: `out[o, i] = Σ_a data[o, a, i]`, one
/// ascending recurrence from `0.0` per output, walked down its axis.
fn strided_sums(data: &[f64], outer: usize, axis_len: usize, inner: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(outer * inner);
    for o in 0..outer {
        for i in 0..inner {
            let mut acc = 0.0;
            for a in 0..axis_len {
                acc += data[(o * axis_len + a) * inner + i];
            }
            out.push(acc);
        }
    }
    out
}

/// Bit for bit, except that NaN matches any NaN (payloads and signs of
/// NaN are not part of the contract).
fn same_bits_or_nan(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
}

/// Reference matmul: the naive i-j-p triple loop implementing the
/// kernel contract from `linalg.rs` verbatim — each output accumulates
/// its k products in ascending-p order from `0.0`, skipping
/// `lhs[i, p] == 0.0` — so every optimized kernel (plain ikj, tiled,
/// `matmul_tn`, `matmul_nt`, `addmm`) must match it *bit for bit*.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    assert_eq!(k, b.dims()[0]);
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                let aip = a.data()[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                acc += aip * b.data()[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(&[m, n], out).unwrap()
}

/// Exact equality: same dims, same f64 bit patterns (data is finite, so
/// `==` on the slices is the bit comparison we want).
fn assert_bit_identical(x: &Tensor, y: &Tensor) {
    assert_eq!(x.dims(), y.dims(), "shape mismatch");
    assert!(
        x.data() == y.data(),
        "kernel results differ bit-wise:\n  lhs: {:?}\n  rhs: {:?}",
        x.data(),
        y.data()
    );
}

prop_tests! {
    fn add_commutes((a, b) in vec_pair) {
        assert_tensors_close(&a.add(&b), &b.add(&a), 1e-9);
    }

    fn mul_commutes((a, b) in vec_pair) {
        assert_tensors_close(&a.mul(&b), &b.mul(&a), 1e-9);
    }

    fn add_identity(a in vec_tensor) {
        let z = Tensor::zeros(a.dims());
        assert_tensors_close(&a.add(&z), &a, 0.0);
    }

    fn sub_self_is_zero(a in vec_tensor) {
        let z = Tensor::zeros(a.dims());
        assert_tensors_close(&a.sub(&a), &z, 0.0);
    }

    fn scale_distributes((a, b) in vec_pair) {
        let s = 3.5;
        assert_tensors_close(&a.add(&b).scale(s), &a.scale(s).add(&b.scale(s)), 1e-6);
    }

    fn double_negation(a in vec_tensor) {
        assert_tensors_close(&a.neg().neg(), &a, 0.0);
    }

    fn transpose_involution(m in matrix(12)) {
        assert_tensors_close(&m.transpose().transpose(), &m, 0.0);
    }

    fn matmul_identity(m in matrix(12)) {
        let n = m.dims()[1];
        assert_tensors_close(&m.matmul(&Tensor::eye(n)), &m, 1e-9);
    }

    fn matmul_transpose_rule(m in matrix(8)) {
        // (A Aᵀ)ᵀ == A Aᵀ  (product with own transpose is symmetric)
        let p = m.matmul(&m.transpose());
        assert_tensors_close(&p.transpose(), &p, 1e-6);
    }

    fn dot_cauchy_schwarz((a, b) in vec_pair) {
        let lhs = a.dot(&b).abs();
        let rhs = a.norm() * b.norm();
        prop_assert!(lhs <= rhs + 1e-6 * rhs.max(1.0));
    }

    fn sum_axis_total_matches(m in matrix(10)) {
        let total = m.sum();
        prop_assert!((m.sum_axis(0).sum() - total).abs() < 1e-6);
        prop_assert!((m.sum_axis(1).sum() - total).abs() < 1e-6);
    }

    // Row-walked column sums keep each column's strided recurrence bit
    // for bit, through signed zeros, infinities and NaN: the slice
    // kernel from a NaN-filled output, and `sum_axis` over the first,
    // last and a middle axis.
    fn col_sums_match_strided_reference(a in matrix_with_specials) {
        let (m, n) = (a.dims()[0], a.dims()[1]);
        let cols = strided_sums(a.data(), 1, m, n);
        let mut out = vec![f64::NAN; n];
        ema_tensor::kernels::col_sums_into(a.data(), &mut out, m, n);
        prop_assert!(same_bits_or_nan(&out, &cols), "col_sums_into {out:?} vs {cols:?}");
        prop_assert!(same_bits_or_nan(a.sum_axis(0).data(), &cols), "sum_axis(0)");
        let rows = strided_sums(a.data(), m, n, 1);
        prop_assert!(same_bits_or_nan(a.sum_axis(1).data(), &rows), "sum_axis(1)");
        let twice = [a.data(), a.data()].concat();
        let stacked = Tensor::from_vec(&[2, m, n], twice.clone()).unwrap();
        let middle = strided_sums(&twice, 2, m, n);
        prop_assert!(same_bits_or_nan(stacked.sum_axis(1).data(), &middle), "sum_axis(1) of rank 3");
    }

    fn softmax_rows_normalised(m in matrix(10)) {
        let s = m.softmax_last();
        for r in 0..s.dims()[0] {
            let row_sum: f64 = s.row(r).sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-9);
        }
        prop_assert!(s.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    fn mse_nonnegative_and_symmetric((a, b) in vec_pair) {
        let ab = a.mse(&b);
        let ba = b.mse(&a);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-9 * ab.max(1.0));
    }

    fn reshape_preserves_sum(m in matrix(10)) {
        let flat = m.flatten();
        prop_assert!((flat.sum() - m.sum()).abs() < 1e-9);
    }

    fn hcat_slice_round_trip(m in matrix(8)) {
        let n = m.dims()[1];
        if n >= 2 {
            let split = n / 2; // 1 <= split < n
            let left = m.slice_cols(0, split.max(1));
            let right = m.slice_cols(split.max(1), n);
            assert_tensors_close(&left.hcat(&right), &m, 0.0);
        }
    }

    fn clamp_is_bounded(a in vec_tensor) {
        let c = a.clamp(-1.0, 1.0);
        prop_assert!(c.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    fn rand_uniform_within_bounds(seed in gen::u64_below(1000)) {
        let mut rng = Rng64::seed_from(seed);
        let t = Tensor::rand_uniform(&[4, 4], -2.0, 3.0, &mut rng);
        prop_assert!(t.data().iter().all(|&v| (-2.0..3.0).contains(&v)));
    }

    fn add_assign_matches_add((a, b) in vec_pair) {
        let functional = a.add(&b);
        let mut in_place = a.clone();
        in_place.add_assign(&b);
        assert_tensors_close(&in_place, &functional, 0.0);
    }

    // Parallel-cohort seeding contract: sibling streams must never
    // share output prefixes. 10^4 draws per stream keeps the whole
    // 256-case suite fast while making any overlap overwhelmingly
    // visible (xoshiro256++ streams that touch stay in lockstep).
    @cases(8)
    fn split_streams_pairwise_non_overlapping(seed in gen::u64_below(1_000_000)) {
        const DRAWS: usize = 10_000;
        let parent = Rng64::seed_from(seed);
        let streams: Vec<Vec<u64>> = (0..4)
            .map(|id| {
                let mut child = parent.split(id);
                (0..DRAWS).map(|_| child.next_u64()).collect()
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        for (id, draws) in streams.iter().enumerate() {
            for &v in draws {
                prop_assert!(seen.insert(v), "stream {id} overlaps a sibling on {v:#x}");
            }
        }
    }

    @cases(32)
    fn split_is_independent_of_split_order(seed in gen::u64_below(1_000_000)) {
        let mut noisy = Rng64::seed_from(seed);
        let clean = Rng64::seed_from(seed);
        // Interleave draws and splits in one order...
        let _ = noisy.next_u64();
        let _ = noisy.split(9);
        let mut a = noisy.split(2);
        // ...and take the same stream id fresh in another.
        let mut b = clean.split(2);
        for _ in 0..64 {
            prop_assert!(a.next_u64() == b.next_u64());
        }
    }

    // ---- kernel bit-identity contract (see linalg.rs header) -------
    // The transpose-aware and fused kernels exist so the autodiff
    // backward pass stops materializing transposes; determinism
    // requires they produce *bit-identical* results to the composed
    // forms they replace, across random shapes and sparsity. The naive
    // reference implements the *scalar* oracle's rounding, so these
    // properties pin `KernelBackend::Scalar` — they are what keeps the
    // oracle unchanged while the SIMD backend evolves (cross-backend
    // agreement lives in `backend_equivalence.rs`).

    fn matmul_matches_naive_reference((a, b) in matmul_pair) {
        let _scalar = KernelBackend::Scalar.scoped();
        assert_bit_identical(&a.matmul(&b), &naive_matmul(&a, &b));
    }

    fn matmul_tn_matches_transpose_then_matmul((a, b) in tn_pair) {
        // The fused-equals-composed half of the contract holds within
        // *either* backend (reading the lhs transposed, in place or from
        // a repack, preserves each element's accumulation sequence); the
        // naive half is scalar-only.
        for backend in BACKENDS {
            let _scope = backend.scoped();
            assert_bit_identical(&a.matmul_tn(&b), &a.transpose().matmul(&b));
        }
        let _scalar = KernelBackend::Scalar.scoped();
        assert_bit_identical(&a.matmul_tn(&b), &naive_matmul(&a.transpose(), &b));
    }

    fn matmul_nt_matches_matmul_of_transpose((a, b) in nt_pair) {
        for backend in BACKENDS {
            let _scope = backend.scoped();
            assert_bit_identical(&a.matmul_nt(&b), &a.matmul(&b.transpose()));
        }
        let _scalar = KernelBackend::Scalar.scoped();
        assert_bit_identical(&a.matmul_nt(&b), &naive_matmul(&a, &b.transpose()));
    }

    fn addmm_matches_composed_pipeline((x, w, bias) in addmm_triple) {
        for backend in BACKENDS {
            let _scope = backend.scoped();
            let fused = x.addmm(&w, &bias);
            let composed = x.matmul(&w.transpose()).add_row_broadcast(&bias);
            assert_bit_identical(&fused, &composed);
        }
        let _scalar = KernelBackend::Scalar.scoped();
        assert_bit_identical(
            &x.addmm(&w, &bias),
            &naive_matmul(&x, &w.transpose()).add_row_broadcast(&bias),
        );
    }

    // 64·65·64 multiply-adds with n = 65 > 64 forces the cache-blocked
    // tile path; tiling i/j only must leave every accumulation order
    // untouched. Few cases — each one is a quarter-million flops.
    @cases(4)
    fn blocked_matmul_matches_naive_reference(seed in gen::u64_below(1_000_000)) {
        let _scalar = KernelBackend::Scalar.scoped();
        let mut rng = Rng64::seed_from(seed);
        let a = sparse_matrix(&mut rng, 64, 64);
        let b = sparse_matrix(&mut rng, 64, 65);
        assert_bit_identical(&a.matmul(&b), &naive_matmul(&a, &b));
    }

    // Widths that decompose into every register-tile size of the inner
    // kernel (32/16/8/4 + scalar tail); the random-dims generators top
    // out at 10 columns and would never reach the wide tiles.
    @cases(8)
    fn wide_matmul_matches_naive_reference(seed in gen::u64_below(1_000_000)) {
        let _scalar = KernelBackend::Scalar.scoped();
        let mut rng = Rng64::seed_from(seed);
        for n in [13usize, 28, 52] {
            let a = sparse_matrix(&mut rng, 5, 9);
            let b = sparse_matrix(&mut rng, 9, n);
            assert_bit_identical(&a.matmul(&b), &naive_matmul(&a, &b));
        }
    }

    // Slice-level kernels (`ema_tensor::kernels`) under both backends:
    // the `Tensor` methods call them on stale pooled buffers and the
    // batched autodiff backward pass replays gradient pieces through
    // them, so from a NaN-filled output they must overwrite every
    // element and match the `Tensor` results. The twins share the
    // write-only funnel, so the scalar oracle also checks all four
    // kernels against the naive reference: as drawn, widened past
    // `MM_BLOCK` with a non-finite rhs, and with k = 0.
    fn kernel_slice_twins_match_tensor_ops((a, b) in tn_pair) {
        let (k, m) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        {
            let _scalar = KernelBackend::Scalar.scoped();
            let at = a.transpose();
            let reference = naive_matmul(&at, &b);
            assert_slice_kernels_match(at.data(), b.data(), (m, k, n), reference.data(), "drawn");
            // 64 = MM_BLOCK. An lhs zero meets the ∞: the skip keeps
            // that element finite.
            let wide = n + 64;
            let mut lhs = at.clone();
            lhs.data_mut()[0] = 0.0;
            let mut rhs: Vec<f64> = (0..k * wide)
                .map(|i| b.data()[(i / wide) * n + (i % wide) % n])
                .collect();
            rhs[wide - 1] = f64::INFINITY;
            rhs[(k - 1) * wide] = f64::NAN;
            let rhs = Tensor::from_vec(&[k, wide], rhs).unwrap();
            let reference = naive_matmul(&lhs, &rhs);
            assert_slice_kernels_match(lhs.data(), rhs.data(), (m, k, wide), reference.data(), "row path");
            assert_slice_kernels_match(&[], &[], (m, 0, n), &vec![0.0; m * n], "k = 0");
        }
        for backend in BACKENDS {
            let _scope = backend.scoped();
            let mut out = vec![f64::NAN; m * n];
            ema_tensor::kernels::matmul_tn_into(a.data(), b.data(), &mut out, k, m, n);
            prop_assert!(
                out == a.matmul_tn(&b).data(),
                "matmul_tn_into diverged from Tensor twin on {:?}",
                backend
            );
            let at = a.transpose();
            let mut out2 = vec![f64::NAN; m * n];
            ema_tensor::kernels::matmul_into(at.data(), b.data(), &mut out2, m, k, n);
            prop_assert!(
                out2 == at.matmul(&b).data(),
                "matmul_into diverged from Tensor twin on {:?}",
                backend
            );
            let bt = b.transpose();
            let mut out3 = vec![f64::NAN; m * n];
            ema_tensor::kernels::matmul_nt_into(at.data(), bt.data(), &mut out3, m, k, n);
            prop_assert!(
                out3 == at.matmul_nt(&bt).data(),
                "matmul_nt_into diverged from Tensor twin on {:?}",
                backend
            );
        }
    }
}

//! Helpers shared by the tensor crate's property suites.

use ema_tensor::kernels;

/// Row-major transpose of an `[rows, cols]` slice.
fn transpose(data: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    (0..rows * cols)
        .map(|i| data[(i % rows) * cols + i / rows])
        .collect()
}

/// The four slice kernels on `a [m, k]`, `b [k, n]` under the active
/// backend, each from a NaN-filled output: `matmul_into`,
/// `matmul_tn_into` on `aᵀ`, `matmul_nt_into` on `bᵀ` and `addmm_into`
/// on `bᵀ` plus a bias. Each must write every element: the product
/// must equal `reference` (plus the bias, added after the product, for
/// `addmm_into`) bit for bit, NaN where the reference has NaN (payloads
/// and signs of NaN are not part of the contract). The `Tensor` twins
/// share the same write-only funnel, so only a reference can catch an
/// output element left stale.
pub fn assert_slice_kernels_match(
    a: &[f64],
    b: &[f64],
    (m, k, n): (usize, usize, usize),
    reference: &[f64],
    context: &str,
) {
    let (at, bt) = (transpose(a, m, k), transpose(b, k, n));
    let bias: Vec<f64> = (0..n).map(|j| 0.5 - j as f64 * 0.125).collect();
    let with_bias: Vec<f64> = reference
        .iter()
        .enumerate()
        .map(|(i, &r)| r + bias[i % n])
        .collect();
    let run = |kernel: &dyn Fn(&mut [f64])| {
        let mut out = vec![f64::NAN; m * n];
        kernel(&mut out);
        out
    };
    let outputs = [
        (
            "matmul_into",
            run(&|o| kernels::matmul_into(a, b, o, m, k, n)),
        ),
        (
            "matmul_tn_into",
            run(&|o| kernels::matmul_tn_into(&at, b, o, k, m, n)),
        ),
        (
            "matmul_nt_into",
            run(&|o| kernels::matmul_nt_into(a, &bt, o, m, k, n)),
        ),
        (
            "addmm_into",
            run(&|o| kernels::addmm_into(a, &bt, &bias, o, m, k, n)),
        ),
    ];
    for (name, got) in &outputs {
        let want = if *name == "addmm_into" {
            &with_bias
        } else {
            reference
        };
        let same = got
            .iter()
            .zip(want.iter())
            .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()));
        assert!(
            same && got.len() == want.len(),
            "{context}: {name} wrote {got:?}, the reference has {want:?}"
        );
    }
}

//! Chebyshev polynomial stacks for spectral graph convolutions (ASTGCN).

use crate::normalize::scaled_laplacian;
use crate::AdjacencyMatrix;
use ema_tensor::Tensor;

/// Computes the Chebyshev polynomial stack `T_0(L̃) … T_{K−1}(L̃)` by the
/// recurrence `T_k = 2 L̃ T_{k−1} − T_{k−2}`, with `T_0 = I`, `T_1 = L̃`.
///
/// # Panics
/// Panics if `k == 0` or `l_tilde` is not square.
#[must_use]
pub fn chebyshev_polynomials(l_tilde: &Tensor, k: usize) -> Vec<Tensor> {
    assert!(k > 0, "need at least one Chebyshev term");
    assert_eq!(l_tilde.rank(), 2, "L̃ must be a matrix");
    let n = l_tilde.dims()[0];
    assert_eq!(n, l_tilde.dims()[1], "L̃ must be square");

    let mut out = Vec::with_capacity(k);
    out.push(Tensor::eye(n));
    if k >= 2 {
        out.push(l_tilde.clone());
    }
    for i in 2..k {
        let next = l_tilde.matmul(&out[i - 1]).scale(2.0).sub(&out[i - 2]);
        out.push(next);
    }
    out
}

/// Builds the Chebyshev stack of order `k` directly from an adjacency
/// matrix via its scaled Laplacian (ASTGCN uses `k = 3`).
#[must_use]
pub fn chebyshev_from_adjacency(adj: &AdjacencyMatrix, k: usize) -> Vec<Tensor> {
    chebyshev_polynomials(&scaled_laplacian(adj), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::spectral_radius;
    use ema_tensor::assert_tensors_close;

    fn sample_l() -> Tensor {
        // A symmetric matrix with spectrum within [-1, 1].
        Tensor::from_vec2(vec![
            vec![0.2, 0.3, 0.0],
            vec![0.3, -0.1, 0.2],
            vec![0.0, 0.2, 0.4],
        ])
        .unwrap()
    }

    #[test]
    fn first_two_terms_are_identity_and_l() {
        let l = sample_l();
        let ts = chebyshev_polynomials(&l, 3);
        assert_eq!(ts.len(), 3);
        assert_tensors_close(&ts[0], &Tensor::eye(3), 0.0);
        assert_tensors_close(&ts[1], &l, 0.0);
    }

    #[test]
    fn recurrence_matches_direct_expansion() {
        // T_2 = 2 L² − I
        let l = sample_l();
        let ts = chebyshev_polynomials(&l, 3);
        let t2 = l.matmul(&l).scale(2.0).sub(&Tensor::eye(3));
        assert_tensors_close(&ts[2], &t2, 1e-12);
    }

    #[test]
    fn single_term_stack() {
        let ts = chebyshev_polynomials(&sample_l(), 1);
        assert_eq!(ts.len(), 1);
        assert_tensors_close(&ts[0], &Tensor::eye(3), 0.0);
    }

    #[test]
    fn stack_from_adjacency_stays_bounded() {
        let mut a = AdjacencyMatrix::empty(4);
        a.set_weight(0, 1, 1.0);
        a.set_weight(1, 0, 1.0);
        a.set_weight(2, 3, 1.0);
        a.set_weight(3, 2, 1.0);
        let ts = chebyshev_from_adjacency(&a, 4);
        assert_eq!(ts.len(), 4);
        // Chebyshev polynomials of a matrix with spectrum in [-1, 1]
        // also have spectrum in [-1, 1].
        for t in &ts {
            assert!(t.all_finite());
            let r = spectral_radius(t, 200);
            assert!(r <= 1.0 + 1e-6, "‖T_k‖ = {r} > 1");
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_stack() {
        let _ = chebyshev_polynomials(&sample_l(), 0);
    }
}

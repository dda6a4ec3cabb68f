//! Adjacency normalisations used inside the GNN models.

use crate::AdjacencyMatrix;
use ema_tensor::Tensor;

/// Symmetric GCN normalisation with self loops:
/// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` where `D̃` is the degree matrix of
/// `A + I`. This is the propagation matrix of Kipf & Welling GCNs and
/// the one used by A3TGCN's graph convolutions.
#[must_use]
pub fn gcn_norm(adj: &AdjacencyMatrix) -> Tensor {
    let n = adj.num_nodes();
    let a_tilde = adj.weights().add(&Tensor::eye(n));
    let deg = a_tilde.row_sums();
    let d_inv_sqrt: Vec<f64> = deg
        .data()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let mut out = a_tilde;
    for i in 0..n {
        for j in 0..n {
            let v = out.at2(i, j) * d_inv_sqrt[i] * d_inv_sqrt[j];
            out.set2(i, j, v);
        }
    }
    out
}

/// Row-stochastic normalisation with self loops: `D̃^{-1} (A + I)`.
/// Guarantees every row sums to exactly 1.
#[must_use]
pub fn row_norm_self_loops(adj: &AdjacencyMatrix) -> Tensor {
    let n = adj.num_nodes();
    let a_tilde = adj.weights().add(&Tensor::eye(n));
    let deg = a_tilde.row_sums();
    let mut out = a_tilde;
    for i in 0..n {
        let d = deg.data()[i];
        for j in 0..n {
            let v = out.at2(i, j) / d;
            out.set2(i, j, v);
        }
    }
    out
}

/// The normalised Laplacian `L = I − D^{-1/2} A D^{-1/2}` of the
/// symmetrised graph; eigenvalues lie in `[0, 2]`.
#[must_use]
pub fn normalized_laplacian(adj: &AdjacencyMatrix) -> Tensor {
    let sym = adj.symmetrized();
    let n = sym.num_nodes();
    let deg = sym.out_degrees();
    let d_inv_sqrt: Vec<f64> = deg
        .data()
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let mut out = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in 0..n {
            let a = sym.weight(i, j) * d_inv_sqrt[i] * d_inv_sqrt[j];
            let v = if i == j {
                // Isolated nodes keep a unit diagonal (I term).
                1.0 - a
            } else {
                -a
            };
            out.set2(i, j, v);
        }
    }
    out
}

/// Estimates the largest eigenvalue of a symmetric matrix by power
/// iteration.
///
/// # Panics
/// Panics unless `m` is square rank 2.
#[must_use]
pub fn spectral_radius(m: &Tensor, iters: usize) -> f64 {
    assert_eq!(m.rank(), 2, "spectral_radius requires a matrix");
    let n = m.dims()[0];
    assert_eq!(n, m.dims()[1], "spectral_radius requires square input");
    let mut v = Tensor::filled(&[n], 1.0 / (n as f64).sqrt());
    let mut lambda = 0.0;
    for _ in 0..iters {
        let w = m.matvec(&v);
        let norm = w.norm();
        if norm < 1e-300 {
            return 0.0;
        }
        v = w.scale(1.0 / norm);
        lambda = v.dot(&m.matvec(&v));
    }
    lambda.abs()
}

/// The scaled Laplacian `L̃ = 2 L / λ_max − I` used by Chebyshev
/// convolutions; eigenvalues lie in `[−1, 1]`.
///
/// Uses the exact bound `λ_max = 2` of the normalized Laplacian (the
/// Kipf & Welling approximation) rather than a power-iteration
/// estimate: an *under*-estimated `λ_max` would push the scaled
/// spectrum outside `[−1, 1]` and make the Chebyshev recurrence blow
/// up, whereas the fixed bound merely compresses it slightly.
#[must_use]
pub fn scaled_laplacian(adj: &AdjacencyMatrix) -> Tensor {
    let l = normalized_laplacian(adj);
    let n = l.dims()[0];
    l.sub(&Tensor::eye(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> AdjacencyMatrix {
        // 0 — 1 — 2 (unit weights, symmetric)
        let mut a = AdjacencyMatrix::empty(3);
        a.set_weight(0, 1, 1.0);
        a.set_weight(1, 0, 1.0);
        a.set_weight(1, 2, 1.0);
        a.set_weight(2, 1, 1.0);
        a
    }

    #[test]
    fn gcn_norm_is_symmetric_for_symmetric_input() {
        let g = gcn_norm(&path_graph());
        for i in 0..3 {
            for j in 0..3 {
                assert!((g.at2(i, j) - g.at2(j, i)).abs() < 1e-12);
            }
        }
        // Known value: node 0 has degree 2 (self loop + edge);
        // Â[0][0] = 1/2.
        assert!((g.at2(0, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gcn_norm_spectral_radius_at_most_one() {
        let g = gcn_norm(&path_graph());
        let r = spectral_radius(&g, 200);
        assert!(r <= 1.0 + 1e-9, "spectral radius {r} > 1");
    }

    #[test]
    fn row_norm_self_loops_always_stochastic() {
        let a = AdjacencyMatrix::empty(4); // even isolated nodes
        let r = row_norm_self_loops(&a);
        for i in 0..4 {
            assert!((r.row(i).sum() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_laplacian_diagonal_is_one_for_connected() {
        let l = normalized_laplacian(&path_graph());
        for i in 0..3 {
            assert!((l.at2(i, i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_laplacian_eigenvalues_in_range() {
        let l = normalized_laplacian(&path_graph());
        let r = spectral_radius(&l, 200);
        assert!(r <= 2.0 + 1e-9, "λmax {r} > 2");
    }

    #[test]
    fn spectral_radius_of_diagonal() {
        let m = Tensor::from_vec2(vec![vec![3.0, 0.0], vec![0.0, -5.0]]).unwrap();
        let r = spectral_radius(&m, 100);
        assert!((r - 5.0).abs() < 1e-6);
    }

    #[test]
    fn scaled_laplacian_bounded() {
        let sl = scaled_laplacian(&path_graph());
        let r = spectral_radius(&sl, 200);
        assert!(r <= 1.0 + 1e-6, "scaled λmax {r} > 1");
    }

    #[test]
    fn empty_graph_normalisations_are_finite() {
        let a = AdjacencyMatrix::empty(3);
        assert!(gcn_norm(&a).all_finite());
        assert!(normalized_laplacian(&a).all_finite());
        assert!(scaled_laplacian(&a).all_finite());
    }
}

//! Partial-correlation graphs — the Gaussian-graphical-model (GGM)
//! structure used throughout network psychometrics (Epskamp et al.,
//! 2018), covering the paper's future-work call for alternative
//! distance metrics.
//!
//! The partial correlation between variables `i` and `j` conditions on
//! all remaining variables and is read off the precision matrix
//! `Θ = Σ⁻¹`: `ρ_{ij·rest} = −Θ_ij / sqrt(Θ_ii · Θ_jj)`.

use crate::correlation::correlation_matrix;
use ema_graph::AdjacencyMatrix;
use ema_tensor::Tensor;

/// Computes the partial-correlation matrix of a `[T, V]` dataset from a
/// ridge-regularised correlation matrix (`Σ + λI`), which keeps the
/// inversion stable for short EMA series. Diagonal is 1.
///
/// # Panics
/// Panics unless `data` is rank 2 with at least two variables, or if
/// `lambda < 0`.
#[must_use]
pub fn partial_correlation_matrix(data: &Tensor, lambda: f64) -> Tensor {
    assert!(lambda >= 0.0, "negative ridge penalty {lambda}");
    let v = data.dims()[1];
    assert!(v >= 2, "partial correlation needs >= 2 variables");
    let mut sigma = correlation_matrix(data);
    for i in 0..v {
        let val = sigma.at2(i, i) + lambda;
        sigma.set2(i, i, val);
    }
    let theta = sigma
        .inverse()
        .expect("ridge-regularised correlation matrix is invertible");
    let mut out = Tensor::eye(v);
    for i in 0..v {
        for j in 0..v {
            if i != j {
                let denom = (theta.at2(i, i) * theta.at2(j, j)).sqrt();
                out.set2(i, j, -theta.at2(i, j) / denom);
            }
        }
    }
    out
}

/// Builds the partial-correlation graph of a `[T, V]` dataset: edge
/// weight `|ρ_{ij·rest}|` with the default ridge `λ = 0.05`.
#[must_use]
pub fn partial_correlation_graph(data: &Tensor) -> AdjacencyMatrix {
    partial_correlation_graph_with(data, 0.05)
}

/// [`partial_correlation_graph`] with an explicit ridge penalty.
#[must_use]
pub fn partial_correlation_graph_with(data: &Tensor, lambda: f64) -> AdjacencyMatrix {
    AdjacencyMatrix::new(partial_correlation_matrix(data, lambda).abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Rng64;

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let mut rng = Rng64::seed_from(1);
        let data = Tensor::rand_normal(&[80, 5], 0.0, 1.0, &mut rng);
        let p = partial_correlation_matrix(&data, 0.05);
        for i in 0..5 {
            assert_eq!(p.at2(i, i), 1.0);
            for j in 0..5 {
                assert!((p.at2(i, j) - p.at2(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn values_are_bounded() {
        let mut rng = Rng64::seed_from(2);
        let data = Tensor::rand_normal(&[60, 6], 0.0, 1.0, &mut rng);
        let p = partial_correlation_matrix(&data, 0.05);
        assert!(p.data().iter().all(|&v| v.abs() <= 1.0 + 1e-9));
    }

    #[test]
    fn conditioning_removes_indirect_dependence() {
        // Chain x → y → z: x and z correlate marginally, but their
        // partial correlation given y should be much smaller.
        let mut rng = Rng64::seed_from(3);
        let n = 4000;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.normal();
            let y = 0.9 * x + 0.3 * rng.normal();
            let z = 0.9 * y + 0.3 * rng.normal();
            rows.push(vec![x, y, z]);
        }
        let data = Tensor::from_vec2(rows).unwrap();
        let marginal = crate::correlation::correlation_matrix(&data);
        let partial = partial_correlation_matrix(&data, 1e-4);
        let marg_xz = marginal.at2(0, 2).abs();
        let part_xz = partial.at2(0, 2).abs();
        assert!(
            marg_xz > 0.5,
            "chain should correlate marginally: {marg_xz}"
        );
        assert!(
            part_xz < marg_xz * 0.4,
            "conditioning failed: partial {part_xz} vs marginal {marg_xz}"
        );
    }

    #[test]
    fn direct_dependence_survives_conditioning() {
        let mut rng = Rng64::seed_from(4);
        let n = 4000;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let x = rng.normal();
            let w = rng.normal();
            let y = 0.7 * x + 0.7 * w + 0.3 * rng.normal();
            rows.push(vec![x, w, y]);
        }
        let data = Tensor::from_vec2(rows).unwrap();
        let partial = partial_correlation_matrix(&data, 1e-4);
        assert!(partial.at2(0, 2).abs() > 0.5, "direct edge x→y lost");
    }

    #[test]
    fn graph_construction_is_valid() {
        let mut rng = Rng64::seed_from(5);
        let data = Tensor::rand_normal(&[70, 8], 0.0, 1.0, &mut rng);
        let g = partial_correlation_graph(&data);
        assert_eq!(g.num_nodes(), 8);
        assert!(g.is_symmetric());
        assert!(g.weights().all_finite());
    }
}

//! Correlation-based similarity graphs (the paper's CORR metric).

use ema_graph::stats::pearson;
use ema_graph::AdjacencyMatrix;
use ema_tensor::Tensor;

/// Pairwise correlation matrix (signed) between the columns of a
/// `[T, V]` data matrix; diagonal is 1.
#[must_use]
pub fn correlation_matrix(data: &Tensor) -> Tensor {
    assert_eq!(data.rank(), 2, "data must be [T, V]");
    let v = data.dims()[1];
    let cols: Vec<Tensor> = (0..v).map(|j| data.col(j)).collect();
    let mut out = Tensor::eye(v);
    for i in 0..v {
        for j in (i + 1)..v {
            let r = pearson(cols[i].data(), cols[j].data());
            out.set2(i, j, r);
            out.set2(j, i, r);
        }
    }
    out
}

/// Builds the CORR similarity graph of a `[T, V]` individual dataset:
/// edge weight = |Pearson correlation|, as negative and positive
/// dependencies are equally informative for message passing.
#[must_use]
pub fn correlation_graph(data: &Tensor) -> AdjacencyMatrix {
    AdjacencyMatrix::new(correlation_matrix(data).abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Rng64;

    #[test]
    fn perfectly_correlated_columns() {
        let data = Tensor::from_vec2(vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let g = correlation_graph(&data);
        assert!((g.weight(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anticorrelation_counts_as_similarity() {
        let data = Tensor::from_vec2(vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]]).unwrap();
        let g = correlation_graph(&data);
        assert!((g.weight(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_matrix_diagonal_is_one() {
        let mut rng = Rng64::seed_from(1);
        let data = Tensor::rand_normal(&[50, 5], 0.0, 1.0, &mut rng);
        let c = correlation_matrix(&data);
        for i in 0..5 {
            assert_eq!(c.at2(i, i), 1.0);
        }
        assert!(c.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn constant_column_correlates_zero() {
        let data = Tensor::from_vec2(vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]]).unwrap();
        let g = correlation_graph(&data);
        assert_eq!(g.weight(0, 1), 0.0);
    }
}

//! Correlation-based similarity graphs (the paper's CORR metric).

use ema_graph::stats::pearson;
use ema_graph::AdjacencyMatrix;
use ema_tensor::Tensor;

/// Pearson correlation between two equal-length series (0 on zero
/// variance).
///
/// # Panics
/// Panics if lengths differ.
#[must_use]
pub fn pearson_correlation(x: &[f64], y: &[f64]) -> f64 {
    pearson(x, y)
}

/// Maximum-magnitude lagged cross-correlation over lags
/// `−max_lag ..= max_lag`, returning the signed value whose magnitude is
/// largest. Lag 0 reduces to plain Pearson correlation.
///
/// # Panics
/// Panics if lengths differ or `max_lag` leaves fewer than 3 overlapping
/// points.
#[must_use]
pub fn cross_correlation(x: &[f64], y: &[f64], max_lag: usize) -> f64 {
    assert_eq!(x.len(), y.len(), "series length mismatch");
    let n = x.len();
    assert!(
        n > max_lag + 2,
        "max_lag {max_lag} too large for series of length {n}"
    );
    let mut best = 0.0f64;
    for lag in 0..=max_lag {
        // x leads y by `lag`.
        let r1 = pearson(&x[..n - lag], &y[lag..]);
        // y leads x by `lag`.
        let r2 = pearson(&x[lag..], &y[..n - lag]);
        for r in [r1, r2] {
            if r.abs() > best.abs() {
                best = r;
            }
        }
    }
    best
}

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

/// CORR graph using lagged cross-correlation magnitudes with the given
/// maximum lag.
#[must_use]
pub fn cross_correlation_graph(data: &Tensor, max_lag: usize) -> AdjacencyMatrix {
    assert_eq!(data.rank(), 2, "data must be [T, V]");
    let v = data.dims()[1];
    let cols: Vec<Tensor> = (0..v).map(|j| data.col(j)).collect();
    let mut out = AdjacencyMatrix::empty(v);
    for i in 0..v {
        for j in (i + 1)..v {
            let r = cross_correlation(cols[i].data(), cols[j].data(), max_lag).abs();
            out.set_weight(i, j, r);
            out.set_weight(j, i, r);
        }
    }
    out
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
    fn cross_correlation_recovers_lagged_dependence() {
        // y_t = x_{t-3} + tiny noise; plain correlation is weak but
        // lagged correlation is strong.
        let mut rng = Rng64::seed_from(2);
        let x: Vec<f64> = (0..120).map(|_| rng.normal()).collect();
        let mut y = vec![0.0; 120];
        for t in 3..120 {
            y[t] = x[t - 3] + 0.01 * rng.normal();
        }
        let plain = pearson_correlation(&x, &y).abs();
        let lagged = cross_correlation(&x, &y, 5).abs();
        assert!(lagged > 0.9, "lagged correlation {lagged} too weak");
        assert!(lagged > plain + 0.3);
    }

    #[test]
    fn cross_correlation_zero_lag_equals_pearson() {
        let mut rng = Rng64::seed_from(3);
        let x: Vec<f64> = (0..60).map(|_| rng.normal()).collect();
        let y: Vec<f64> = (0..60).map(|_| rng.normal()).collect();
        assert_eq!(cross_correlation(&x, &y, 0), pearson_correlation(&x, &y));
    }

    #[test]
    fn cross_correlation_graph_is_symmetric() {
        let mut rng = Rng64::seed_from(4);
        let data = Tensor::rand_normal(&[60, 6], 0.0, 1.0, &mut rng);
        let g = cross_correlation_graph(&data, 4);
        assert!(g.is_symmetric());
    }

    #[test]
    fn constant_column_correlates_zero() {
        let data = Tensor::from_vec2(vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]]).unwrap();
        let g = correlation_graph(&data);
        assert_eq!(g.weight(0, 1), 0.0);
    }
}

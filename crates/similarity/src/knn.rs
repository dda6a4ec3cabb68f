//! k-nearest-neighbour similarity graphs.

use crate::euclidean::{gaussian_affinity, pairwise_distances};
use ema_graph::AdjacencyMatrix;
use ema_tensor::{pool::PooledBuf, Tensor};

/// Builds the kNN graph of a `[T, V]` individual dataset: for each
/// variable, keep the Gaussian affinities of its `k` nearest (smallest
/// Euclidean distance) neighbours, then symmetrise by union — an edge
/// survives if *either* endpoint selected it, the usual kNN-graph
/// convention (Bintsi et al., 2023).
///
/// # Panics
/// Panics if `k == 0` or `k >= V`.
#[must_use]
pub fn knn_graph(data: &Tensor, k: usize) -> AdjacencyMatrix {
    let v = data.dims()[1];
    assert!(k > 0, "k must be positive");
    assert!(k < v, "k = {k} must be below the number of variables {v}");
    let distances = pairwise_distances(data);
    let affinity = gaussian_affinity(&distances);

    // Pooled/hoisted scratch: the V×V keep mask (0.0/1.0 flags) rides
    // the buffer pool and one candidate vec is reused across all V
    // rows, so repeated graph builds on one thread stop allocating
    // per row.
    let mut keep = PooledBuf::zeroed(v * v);
    let mut neighbours: Vec<(usize, f64)> = Vec::with_capacity(v.saturating_sub(1));
    for i in 0..v {
        neighbours.clear();
        neighbours.extend((0..v).filter(|&j| j != i).map(|j| (j, distances.at2(i, j))));
        neighbours.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        for &(j, _) in neighbours.iter().take(k) {
            keep[i * v + j] = 1.0;
            keep[j * v + i] = 1.0; // union symmetrisation
        }
    }

    let mut out = AdjacencyMatrix::empty(v);
    for i in 0..v {
        for j in 0..v {
            if keep[i * v + j] != 0.0 {
                out.set_weight(i, j, affinity.at2(i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::Rng64;

    fn random_data(t: usize, v: usize, seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        Tensor::rand_normal(&[t, v], 0.0, 1.0, &mut rng)
    }

    #[test]
    fn knn_graph_is_symmetric() {
        let g = knn_graph(&random_data(30, 8, 1), 3);
        assert!(g.is_symmetric());
    }

    #[test]
    fn every_node_has_at_least_k_neighbours() {
        let k = 3;
        let g = knn_graph(&random_data(30, 10, 2), k);
        for i in 0..10 {
            let deg = (0..10).filter(|&j| g.weight(i, j) > 0.0).count();
            assert!(deg >= k, "node {i} has only {deg} neighbours");
        }
    }

    #[test]
    fn knn_is_sparser_than_complete() {
        let g = knn_graph(&random_data(30, 12, 3), 2);
        assert!(g.density() < 1.0);
        assert!(g.num_edges() >= 2 * 12); // at least k per node, directed
    }

    #[test]
    fn nearest_neighbour_is_kept() {
        // Columns 0 and 1 nearly identical → mutual nearest neighbours.
        let mut data = random_data(20, 5, 4);
        for t in 0..20 {
            let v0 = data.at2(t, 0);
            data.set2(t, 1, v0 + 0.001);
        }
        let g = knn_graph(&data, 1);
        assert!(g.weight(0, 1) > 0.0);
        assert!(g.weight(1, 0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "below the number of variables")]
    fn rejects_k_too_large() {
        let _ = knn_graph(&random_data(10, 4, 5), 4);
    }
}

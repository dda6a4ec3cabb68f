//! Random graph generation — the paper's RAND control condition.

use crate::AdjacencyMatrix;
use ema_tensor::Rng64;

/// A random graph with *exactly* `edges` directed edges and uniform
/// random weights in `(0, 1]` — the paper's random control "with the
/// same amount of connected edges" as the similarity graphs.
///
/// # Panics
/// Panics if `edges` exceeds `n · (n − 1)`.
#[must_use]
pub fn random_with_edge_count(n: usize, edges: usize, rng: &mut Rng64) -> AdjacencyMatrix {
    let possible = n * (n - 1);
    assert!(
        edges <= possible,
        "cannot place {edges} edges in a graph with {possible} slots"
    );
    // Enumerate all off-diagonal slots and pick a random subset via a
    // partial Fisher–Yates permutation.
    let mut slots: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .collect();
    let mut a = AdjacencyMatrix::empty(n);
    let total = slots.len();
    for e in 0..edges {
        let pick = e + rng.index(total - e);
        slots.swap(e, pick);
        let (i, j) = slots[e];
        // Uniform in (0, 1]: avoid zero weights which would not count
        // as edges.
        a.set_weight(i, j, 1.0 - rng.uniform() * (1.0 - f64::EPSILON));
    }
    a
}

/// A random graph matching the density (edge count) of a reference
/// graph, as used in Experiment B's RAND rows.
#[must_use]
pub fn random_like(reference: &AdjacencyMatrix, rng: &mut Rng64) -> AdjacencyMatrix {
    random_with_edge_count(reference.num_nodes(), reference.num_edges(), rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count() {
        let mut rng = Rng64::seed_from(3);
        for edges in [0, 1, 10, 50, 90] {
            let a = random_with_edge_count(10, edges, &mut rng);
            assert_eq!(a.num_edges(), edges);
        }
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn rejects_too_many_edges() {
        let mut rng = Rng64::seed_from(4);
        let _ = random_with_edge_count(3, 7, &mut rng);
    }

    #[test]
    fn random_like_matches_reference_density() {
        let mut rng = Rng64::seed_from(5);
        let mut reference = AdjacencyMatrix::empty(12);
        for i in 0..12 {
            reference.set_weight(i, (i + 1) % 12, 1.0);
            reference.set_weight(i, (i + 3) % 12, 0.5);
        }
        let r = random_like(&reference, &mut rng);
        assert_eq!(r.num_edges(), reference.num_edges());
        assert_eq!(r.num_nodes(), 12);
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        let a = random_with_edge_count(8, 20, &mut Rng64::seed_from(7));
        let b = random_with_edge_count(8, 20, &mut Rng64::seed_from(7));
        assert_eq!(a.weights().data(), b.weights().data());
    }
}

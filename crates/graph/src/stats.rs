//! Comparison statistics between graphs (Experiment C's graph-similarity
//! analysis).

use crate::AdjacencyMatrix;

/// Pearson correlation between the off-diagonal weights of two graphs
/// over the same node set. The paper reports "88% correlation" between
/// an MTGNN-learned graph and the corresponding static graph with this
/// statistic.
///
/// Returns 0 when either graph has zero weight variance.
///
/// # Panics
/// Panics if node counts differ.
#[must_use]
pub fn edge_weight_correlation(a: &AdjacencyMatrix, b: &AdjacencyMatrix) -> f64 {
    assert_eq!(a.num_nodes(), b.num_nodes(), "graphs must share a node set");
    let n = a.num_nodes();
    let mut xs = Vec::with_capacity(n * (n - 1));
    let mut ys = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                xs.push(a.weight(i, j));
                ys.push(b.weight(i, j));
            }
        }
    }
    pearson(&xs, &ys)
}

/// Jaccard similarity of the edge *sets* (ignoring weights).
///
/// # Panics
/// Panics if node counts differ.
#[must_use]
pub fn edge_set_jaccard(a: &AdjacencyMatrix, b: &AdjacencyMatrix) -> f64 {
    assert_eq!(a.num_nodes(), b.num_nodes(), "graphs must share a node set");
    let n = a.num_nodes();
    let mut inter = 0usize;
    let mut union = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let ea = a.weight(i, j) > 0.0;
            let eb = b.weight(i, j) > 0.0;
            if ea && eb {
                inter += 1;
            }
            if ea || eb {
                union += 1;
            }
        }
    }
    if union == 0 {
        1.0 // two empty graphs are identical
    } else {
        inter as f64 / union as f64
    }
}

/// Summary statistics over a graph's weighted out-degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeSummary {
    /// Minimum weighted out-degree.
    pub min: f64,
    /// Maximum weighted out-degree.
    pub max: f64,
    /// Mean weighted out-degree.
    pub mean: f64,
    /// Population standard deviation of out-degrees.
    pub std: f64,
}

/// Computes the degree summary of a graph.
#[must_use]
pub fn degree_summary(a: &AdjacencyMatrix) -> DegreeSummary {
    let deg = a.out_degrees();
    DegreeSummary {
        min: deg.min(),
        max: deg.max(),
        mean: deg.mean(),
        std: deg.std(),
    }
}

/// Pearson correlation of two equal-length slices; 0 on zero variance.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    let n = xs.len() as f64;
    if xs.is_empty() {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ema_tensor::{Rng64, Tensor};

    fn random_graph(seed: u64) -> AdjacencyMatrix {
        let mut rng = Rng64::seed_from(seed);
        AdjacencyMatrix::new(Tensor::rand_uniform(&[8, 8], 0.0, 1.0, &mut rng))
    }

    #[test]
    fn self_correlation_is_one() {
        let a = random_graph(1);
        assert!((edge_weight_correlation(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_copy_correlates_perfectly() {
        let a = random_graph(2);
        let b = AdjacencyMatrix::new(a.weights().scale(3.0));
        assert!((edge_weight_correlation(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_graphs_correlate_weakly() {
        let a = random_graph(3);
        let b = random_graph(4);
        let r = edge_weight_correlation(&a, &b).abs();
        assert!(r < 0.4, "independent graphs correlated at {r}");
    }

    #[test]
    fn jaccard_extremes() {
        let a = random_graph(5);
        assert!((edge_set_jaccard(&a, &a) - 1.0).abs() < 1e-12);
        let empty = AdjacencyMatrix::empty(8);
        assert_eq!(edge_set_jaccard(&a, &empty), 0.0);
        assert_eq!(edge_set_jaccard(&empty, &empty), 1.0);
    }

    #[test]
    fn degree_summary_of_star() {
        // Node 0 points to everyone.
        let mut a = AdjacencyMatrix::empty(4);
        for j in 1..4 {
            a.set_weight(0, j, 1.0);
        }
        let s = degree_summary(&a);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.min, 0.0);
        assert!((s.mean - 0.75).abs() < 1e-12);
    }

    #[test]
    fn pearson_known_values() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0); // zero variance
    }
}

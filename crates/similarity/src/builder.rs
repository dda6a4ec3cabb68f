//! Unified graph construction from an individual's MTS data.

use crate::{correlation, dtw, euclidean, knn};
use ema_graph::{random, AdjacencyMatrix};
use ema_tensor::{Rng64, Tensor};

/// The graph construction strategies evaluated by the paper (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphMetric {
    /// Euclidean distance with Gaussian affinity (EUC).
    Euclidean,
    /// k-nearest-neighbour restriction of EUC (kNN); the field is `k`.
    Knn(usize),
    /// Dynamic Time Warping with a Sakoe–Chiba band (DTW).
    Dtw,
    /// Absolute Pearson correlation (CORR).
    Correlation,
    /// Random graph matched to ~50% density (the RAND control); the
    /// field is the RNG seed so scenarios stay reproducible.
    Random(u64),
}

impl GraphMetric {
    /// The paper's label for the metric.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GraphMetric::Euclidean => "EUC",
            GraphMetric::Knn(_) => "kNN",
            GraphMetric::Dtw => "DTW",
            GraphMetric::Correlation => "CORR",
            GraphMetric::Random(_) => "RAND",
        }
    }

    /// The four static metrics compared throughout the paper, with the
    /// default `k = 5` for kNN.
    #[must_use]
    pub fn paper_metrics() -> [GraphMetric; 4] {
        [
            GraphMetric::Euclidean,
            GraphMetric::Knn(5),
            GraphMetric::Dtw,
            GraphMetric::Correlation,
        ]
    }
}

/// Builds the similarity graph of an individual's `[T, V]` data under
/// the chosen metric. Graphs must be built from *training* data only to
/// avoid test leakage (the pipeline enforces this).
///
/// # Panics
/// Panics on malformed data (rank != 2) or invalid metric parameters.
#[must_use]
pub fn build_graph(data: &Tensor, metric: GraphMetric) -> AdjacencyMatrix {
    assert_eq!(data.rank(), 2, "individual data must be [T, V]");
    match metric {
        GraphMetric::Euclidean => euclidean::euclidean_graph(data),
        GraphMetric::Knn(k) => knn::knn_graph(data, k),
        GraphMetric::Dtw => dtw::dtw_graph(data),
        GraphMetric::Correlation => correlation::correlation_graph(data),
        GraphMetric::Random(seed) => {
            let v = data.dims()[1];
            let mut rng = Rng64::seed_from(seed);
            let edges = v * (v - 1) / 2;
            random::random_with_edge_count(v, edges, &mut rng).symmetrized()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(seed: u64) -> Tensor {
        let mut rng = Rng64::seed_from(seed);
        Tensor::rand_normal(&[60, 8], 0.0, 1.0, &mut rng)
    }

    #[test]
    fn all_metrics_produce_valid_graphs() {
        let data = sample_data(1);
        for metric in [
            GraphMetric::Euclidean,
            GraphMetric::Knn(3),
            GraphMetric::Dtw,
            GraphMetric::Correlation,
            GraphMetric::Random(7),
        ] {
            let g = build_graph(&data, metric);
            assert_eq!(g.num_nodes(), 8, "{} node count", metric.label());
            assert!(g.weights().all_finite(), "{} not finite", metric.label());
            assert!(g.num_edges() > 0, "{} produced no edges", metric.label());
        }
    }

    #[test]
    fn static_metrics_are_deterministic() {
        let data = sample_data(2);
        for metric in GraphMetric::paper_metrics() {
            let a = build_graph(&data, metric);
            let b = build_graph(&data, metric);
            assert_eq!(
                a.weights().data(),
                b.weights().data(),
                "{} not deterministic",
                metric.label()
            );
        }
    }

    #[test]
    fn random_metric_is_seed_reproducible() {
        let data = sample_data(3);
        let a = build_graph(&data, GraphMetric::Random(42));
        let b = build_graph(&data, GraphMetric::Random(42));
        let c = build_graph(&data, GraphMetric::Random(43));
        assert_eq!(a.weights().data(), b.weights().data());
        assert_ne!(a.weights().data(), c.weights().data());
    }

    #[test]
    fn random_graph_ignores_data_content() {
        let a = build_graph(&sample_data(4), GraphMetric::Random(1));
        let b = build_graph(&sample_data(5), GraphMetric::Random(1));
        assert_eq!(a.weights().data(), b.weights().data());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(GraphMetric::Euclidean.label(), "EUC");
        assert_eq!(GraphMetric::Knn(5).label(), "kNN");
        assert_eq!(GraphMetric::Dtw.label(), "DTW");
        assert_eq!(GraphMetric::Correlation.label(), "CORR");
        assert_eq!(GraphMetric::Random(0).label(), "RAND");
    }
}

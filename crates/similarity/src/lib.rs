//! # ema-similarity
//!
//! Similarity and distance metrics between EMA variable time series, and
//! the construction of individual similarity graphs from multivariate
//! time-series data — the paper's Section III-D.
//!
//! An individual's data is a `[T, V]` tensor (time × variables). Each of
//! the `V` variables is a graph node; edge weights quantify how similar
//! two variables' trajectories are under one of four metrics:
//!
//! * **EUC** — Euclidean distance between trajectories
//!   ([`euclidean`]), converted to an affinity by a Gaussian kernel;
//! * **kNN** — the Euclidean affinity graph keeping only each node's
//!   `k` nearest neighbours ([`knn`]);
//! * **DTW** — Dynamic Time Warping alignment cost ([`dtw`]), for
//!   variables that respond to events with different lags;
//! * **CORR** — absolute Pearson correlation ([`correlation`]).
//!
//! [`GraphMetric`] enumerates the paper's metrics and
//! [`build_graph`] produces the corresponding [`ema_graph::AdjacencyMatrix`].

#![warn(missing_docs)]

mod builder;
pub mod correlation;
pub mod dtw;
pub mod euclidean;
pub mod kmedoids;
pub mod knn;

pub use builder::{build_graph, GraphMetric};
pub use kmedoids::{
    argmin_distance, flatten_series, k_medoids, pairwise_series_distances, series_distance,
    KMedoidsResult,
};

//! Seeded, deterministic K-medoids (PAM) clustering over precomputed
//! distance matrices, plus the per-*individual* time-series distance
//! that feeds it.
//!
//! The similarity metrics elsewhere in this crate compare *variables*
//! within one individual's `[T, V]` study. Cluster-then-personalize
//! training instead needs a distance between *individuals*: each
//! individual's training split is flattened into one long series
//! ([`flatten_series`], column-major so each variable's trajectory
//! stays contiguous) and compared with length-normalised banded DTW
//! ([`series_distance`]). Only the training split is ever flattened —
//! cluster assignment must not leak test data.
//!
//! [`k_medoids`] is classic PAM with a seeded init and a greedy
//! best-improving swap loop. Determinism contract: the same
//! `(distances, k, seed)` always yields the same result — the init
//! draws exactly `n` RNG values via [`Rng64::permutation`], candidate
//! swaps are scanned in ascending `(medoid position, candidate)` order,
//! only *strictly* better swaps are accepted (first of equals wins),
//! and medoids are sorted before final assignment. Nothing depends on
//! thread count: clustering is a single-threaded preprocessing step.

use crate::dtw::dtw_distance_banded;
use ema_tensor::{Rng64, Tensor};

/// The Sakoe–Chiba band of [`series_distance`]: roughly one EMA day at
/// 8 beeps/day, as in [`crate::dtw::dtw_graph`]; auto-widened to at
/// least the length difference of the two series.
const SERIES_DTW_BAND: usize = 10;

/// Flattens a `[T, V]` individual dataset into one series, column-major
/// (variable 0's full trajectory, then variable 1's, …) so each
/// variable's temporal shape survives concatenation.
///
/// # Panics
/// Panics if `data` is not rank 2.
#[must_use]
pub fn flatten_series(data: &Tensor) -> Vec<f64> {
    assert_eq!(data.rank(), 2, "data must be [T, V]");
    let (t, v) = (data.dims()[0], data.dims()[1]);
    let mut out = Vec::with_capacity(t * v);
    for j in 0..v {
        for i in 0..t {
            out.push(data.at2(i, j));
        }
    }
    out
}

/// Distance between two flattened series: DTW within a Sakoe–Chiba
/// band of 10 steps (`SERIES_DTW_BAND`), normalised by the summed
/// lengths so individuals with different study lengths stay comparable.
///
/// # Panics
/// Panics if either series is empty.
#[must_use]
pub fn series_distance(x: &[f64], y: &[f64]) -> f64 {
    assert!(!x.is_empty() && !y.is_empty(), "empty series");
    dtw_distance_banded(x, y, SERIES_DTW_BAND) / (x.len() + y.len()) as f64
}

/// Pairwise `[N, N]` distance matrix between flattened individual
/// series (symmetric, zero diagonal).
///
/// # Panics
/// Panics if any series is empty.
#[must_use]
pub fn pairwise_series_distances(series: &[Vec<f64>]) -> Tensor {
    let n = series.len();
    let mut out = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = series_distance(&series[i], &series[j]);
            out.set2(i, j, d);
            out.set2(j, i, d);
        }
    }
    out
}

/// Result of a [`k_medoids`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMedoidsResult {
    /// Medoid point indices, ascending. `medoids[c]` is cluster `c`'s
    /// representative.
    pub medoids: Vec<usize>,
    /// `assignments[p]` is the cluster index of point `p` — the argmin
    /// over medoids of `dist(p, medoid)`, ties to the lowest cluster.
    pub assignments: Vec<usize>,
    /// Final objective: Σₚ minₘ dist(p, m).
    pub objective: f64,
    /// Objective after init and after each accepted swap — strictly
    /// decreasing by construction.
    pub objective_trace: Vec<f64>,
}

/// Seeded, deterministic K-medoids (PAM) over a precomputed `[N, N]`
/// distance matrix.
///
/// Init picks `k` distinct medoids from a seeded permutation; the swap
/// phase repeatedly applies the single best strictly-improving
/// (medoid, non-medoid) swap until none exists. See the module docs
/// for the determinism contract.
///
/// # Panics
/// Panics if `distances` is not square, `k` is 0 or exceeds N, or any
/// distance is non-finite.
#[must_use]
pub fn k_medoids(distances: &Tensor, k: usize, seed: u64) -> KMedoidsResult {
    assert_eq!(distances.rank(), 2, "distances must be [N, N]");
    let n = distances.dims()[0];
    assert_eq!(distances.dims()[1], n, "distances must be square");
    assert!(k >= 1, "k must be positive");
    assert!(k <= n, "k = {k} must not exceed the number of points {n}");
    assert!(
        distances.data().iter().all(|d| d.is_finite()),
        "distances must be finite"
    );

    let mut rng = Rng64::seed_from(seed);
    let perm = rng.permutation(n);
    let mut medoids: Vec<usize> = perm[..k].to_vec();
    medoids.sort_unstable();

    let objective_of = |meds: &[usize]| -> f64 {
        (0..n)
            .map(|p| {
                meds.iter()
                    .map(|&m| distances.at2(p, m))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };

    let mut objective = objective_of(&medoids);
    let mut objective_trace = vec![objective];
    loop {
        // Best strictly-improving swap this round, scanned in ascending
        // (position, candidate) order with strict `<` so the first of
        // any equal-gain pair wins — deterministic tie-breaking.
        let mut best: Option<(usize, usize, f64)> = None;
        for pos in 0..k {
            for cand in 0..n {
                if medoids.contains(&cand) {
                    continue;
                }
                let old = medoids[pos];
                medoids[pos] = cand;
                let obj = objective_of(&medoids);
                medoids[pos] = old;
                let beats = match best {
                    Some((_, _, b)) => obj < b,
                    None => obj < objective,
                };
                if beats {
                    best = Some((pos, cand, obj));
                }
            }
        }
        match best {
            Some((pos, cand, obj)) => {
                medoids[pos] = cand;
                objective = obj;
                objective_trace.push(obj);
            }
            None => break,
        }
    }
    medoids.sort_unstable();

    let assignments = (0..n)
        .map(|p| argmin_distance(medoids.iter().map(|&m| distances.at2(p, m))))
        .collect();
    KMedoidsResult {
        medoids,
        assignments,
        objective,
        objective_trace,
    }
}

/// Index of the smallest value, ties to the lowest index — the
/// cluster-assignment rule shared by [`k_medoids`] and warm-start
/// fine-tuning (which assigns streamed individuals to the nearest
/// medoid series at train time).
///
/// # Panics
/// Panics if the iterator is empty.
#[must_use]
pub fn argmin_distance(dists: impl Iterator<Item = f64>) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (i, d) in dists.enumerate() {
        let beats = match best {
            Some((_, b)) => d < b,
            None => true,
        };
        if beats {
            best = Some((i, d));
        }
    }
    best.expect("argmin of empty iterator").0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_distances() -> Tensor {
        // Points 0..3 mutually close, 3..6 mutually close, blobs far.
        let mut d = Tensor::zeros(&[6, 6]);
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                let same = (i < 3) == (j < 3);
                d.set2(i, j, if same { 1.0 } else { 10.0 });
            }
        }
        d
    }

    #[test]
    fn recovers_two_blobs() {
        let r = k_medoids(&two_blob_distances(), 2, 7);
        assert!(r.medoids[0] < 3 && r.medoids[1] >= 3);
        assert_eq!(&r.assignments[..3], &[0, 0, 0]);
        assert_eq!(&r.assignments[3..], &[1, 1, 1]);
        assert_eq!(r.objective, 4.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let d = two_blob_distances();
        assert_eq!(k_medoids(&d, 2, 42), k_medoids(&d, 2, 42));
    }

    #[test]
    fn k_equals_n_is_identity_partition() {
        let d = two_blob_distances();
        let r = k_medoids(&d, 6, 3);
        assert_eq!(r.medoids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.assignments, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.objective, 0.0);
    }

    #[test]
    fn objective_trace_is_non_increasing() {
        let d = two_blob_distances();
        let r = k_medoids(&d, 2, 123);
        for w in r.objective_trace.windows(2) {
            assert!(w[1] <= w[0], "trace increased: {:?}", r.objective_trace);
        }
    }

    #[test]
    fn flatten_is_column_major() {
        let data = Tensor::from_vec2(vec![vec![1.0, 10.0], vec![2.0, 20.0]]).unwrap();
        assert_eq!(flatten_series(&data), vec![1.0, 2.0, 10.0, 20.0]);
    }

    #[test]
    fn series_distance_zero_on_identical() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(series_distance(&x, &x), 0.0);
    }

    #[test]
    fn pairwise_matrix_is_symmetric_zero_diag() {
        let series = vec![
            vec![1.0, 2.0, 3.0],
            vec![1.5, 2.5, 3.5, 4.0],
            vec![-3.0, 0.0, 3.0],
        ];
        let d = pairwise_series_distances(&series);
        for i in 0..3 {
            assert_eq!(d.at2(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(d.at2(i, j), d.at2(j, i));
            }
        }
    }

    #[test]
    fn argmin_breaks_ties_low() {
        assert_eq!(argmin_distance([2.0, 1.0, 1.0, 3.0].into_iter()), 1);
    }
}

//! Dynamic Time Warping (DTW) alignment distance.
//!
//! DTW aligns two series that may respond to the same events with
//! different lags or speeds — exactly the situation with emotion and
//! symptom variables in EMA data. The implementation offers the full
//! quadratic DP and a Sakoe–Chiba band restriction.

use crate::euclidean::gaussian_affinity;
use ema_graph::AdjacencyMatrix;
use ema_tensor::{pool::PooledBuf, Tensor};

/// DTW distance between two series with absolute-difference local cost
/// and the standard (symmetric1) step pattern.
///
/// # Panics
/// Panics if either series is empty.
#[must_use]
pub fn dtw_distance(x: &[f64], y: &[f64]) -> f64 {
    dtw_distance_banded(x, y, usize::MAX)
}

/// DTW distance restricted to a Sakoe–Chiba band of half-width `band`
/// around the (rescaled) diagonal. `band = usize::MAX` disables the
/// restriction. A tighter band is faster and regularises pathological
/// warpings; the band is automatically widened to at least
/// `|len(x) − len(y)|` so a path always exists.
///
/// # Panics
/// Panics if either series is empty.
#[must_use]
pub fn dtw_distance_banded(x: &[f64], y: &[f64], band: usize) -> f64 {
    // Pooled DP rows: recycled on drop, so repeated distance calls on
    // one thread stop allocating after the first.
    let mut prev = PooledBuf::uninit(y.len() + 1);
    let mut curr = PooledBuf::uninit(y.len() + 1);
    dtw_banded_with(x, y, band, &mut prev, &mut curr)
}

/// The banded DP core on caller-provided rolling rows (each
/// `len(y) + 1` long; contents may be stale — both rows are fully
/// initialised here). Lets [`pairwise_dtw`] reuse one pair of pooled
/// buffers across all V²/2 column pairs.
fn dtw_banded_with(x: &[f64], y: &[f64], band: usize, prev: &mut [f64], curr: &mut [f64]) -> f64 {
    assert!(!x.is_empty() && !y.is_empty(), "empty series");
    let (n, m) = (x.len(), y.len());
    assert!(
        prev.len() == m + 1 && curr.len() == m + 1,
        "DP rows must be len(y) + 1"
    );
    let band = band.max(n.abs_diff(m));
    const INF: f64 = f64::INFINITY;

    // Rolling 2-row DP over the (n+1) x (m+1) accumulated-cost matrix.
    let mut prev = &mut *prev;
    let mut curr = &mut *curr;
    prev.fill(INF);
    prev[0] = 0.0;
    for i in 1..=n {
        curr.fill(INF);
        // Band bounds for row i (1-based), centred on the scaled diagonal.
        let centre = if n > 1 {
            ((i - 1) * (m - 1)) / (n - 1).max(1) + 1
        } else {
            1
        };
        let lo = centre.saturating_sub(band).max(1);
        let hi = centre.saturating_add(band).min(m);
        for j in lo..=hi {
            let cost = (x[i - 1] - y[j - 1]).abs();
            let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
            if best < INF {
                curr[j] = cost + best;
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[m];
    assert!(
        d.is_finite(),
        "DTW band too narrow for series of lengths {n} and {m}"
    );
    d
}

/// Pairwise DTW distance matrix between the columns of a `[T, V]` data
/// matrix, using a Sakoe–Chiba band of `band` steps (`usize::MAX` for
/// unrestricted).
#[must_use]
pub fn pairwise_dtw(data: &Tensor, band: usize) -> Tensor {
    assert_eq!(data.rank(), 2, "data must be [T, V]");
    let (t, v) = (data.dims()[0], data.dims()[1]);
    let cols: Vec<Tensor> = (0..v).map(|j| data.col(j)).collect();
    // One pair of pooled DP rows shared by every column pair (all
    // columns have length T), instead of two fresh vecs per pair.
    let mut prev = PooledBuf::uninit(t + 1);
    let mut curr = PooledBuf::uninit(t + 1);
    let mut out = Tensor::zeros(&[v, v]);
    for i in 0..v {
        for j in (i + 1)..v {
            let d = dtw_banded_with(cols[i].data(), cols[j].data(), band, &mut prev, &mut curr);
            out.set2(i, j, d);
            out.set2(j, i, d);
        }
    }
    out
}

/// Builds the DTW similarity graph of a `[T, V]` individual dataset:
/// banded pairwise DTW → Gaussian affinities. The default band of 10
/// steps (roughly one EMA day at 8 beeps/day) bounds how far alignment
/// may stretch.
#[must_use]
pub fn dtw_graph(data: &Tensor) -> AdjacencyMatrix {
    dtw_graph_with_band(data, 10)
}

/// [`dtw_graph`] with an explicit Sakoe–Chiba band.
#[must_use]
pub fn dtw_graph_with_band(data: &Tensor, band: usize) -> AdjacencyMatrix {
    AdjacencyMatrix::new(gaussian_affinity(&pairwise_dtw(data, band)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_series_have_zero_distance() {
        let x = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw_distance(&x, &x), 0.0);
    }

    #[test]
    fn dtw_is_symmetric() {
        let x = [1.0, 3.0, 2.0, 5.0];
        let y = [2.0, 1.0, 4.0];
        assert_eq!(dtw_distance(&x, &y), dtw_distance(&y, &x));
    }

    #[test]
    fn dtw_aligns_shifted_series() {
        // y is x delayed by 2 steps; DTW should be much smaller than the
        // pointwise (Euclidean-style) cost.
        let x: Vec<f64> = (0..30).map(|t| ((t as f64) * 0.5).sin()).collect();
        let mut y = vec![x[0]; 2];
        y.extend_from_slice(&x[..28]);
        let dtw = dtw_distance(&x, &y);
        let pointwise: f64 = x.iter().zip(y.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(
            dtw < pointwise * 0.35,
            "DTW {dtw} not much below pointwise {pointwise}"
        );
    }

    #[test]
    fn dtw_handles_unequal_lengths() {
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 0.5, 1.0, 1.5, 2.0];
        let d = dtw_distance(&x, &y);
        assert!(d.is_finite());
        assert!(d < 2.0);
    }

    #[test]
    fn band_upper_bounds_full_dtw() {
        let x: Vec<f64> = (0..40).map(|t| (t as f64 * 0.3).cos()).collect();
        let y: Vec<f64> = (0..40).map(|t| (t as f64 * 0.31 + 1.0).cos()).collect();
        let full = dtw_distance(&x, &y);
        let banded = dtw_distance_banded(&x, &y, 3);
        assert!(
            banded >= full - 1e-12,
            "band {banded} below unrestricted {full}"
        );
    }

    #[test]
    fn wide_band_equals_full() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        let y = [2.0, 4.0, 1.0, 9.0, 2.0];
        assert_eq!(dtw_distance(&x, &y), dtw_distance_banded(&x, &y, 100));
    }

    #[test]
    fn pairwise_dtw_matrix_properties() {
        let data = Tensor::from_vec2(vec![
            vec![1.0, 1.0, 9.0],
            vec![2.0, 2.2, -5.0],
            vec![3.0, 2.9, 7.0],
        ])
        .unwrap();
        let d = pairwise_dtw(&data, usize::MAX);
        for i in 0..3 {
            assert_eq!(d.at2(i, i), 0.0);
        }
        assert!(d.at2(0, 1) < d.at2(0, 2));
    }

    #[test]
    fn dtw_graph_symmetric_and_bounded() {
        let mut rng = ema_tensor::Rng64::seed_from(9);
        let data = Tensor::rand_normal(&[40, 6], 0.0, 1.0, &mut rng);
        let g = dtw_graph(&data);
        assert!(g.is_symmetric());
        assert!(g.weights().data().iter().all(|&w| (0.0..=1.0).contains(&w)));
    }
}

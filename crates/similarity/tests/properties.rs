//! Property-based tests of the similarity metrics and graph builders.

use ema_check::{gen, prop_assert, prop_assert_eq, prop_tests};
use ema_graph::stats::pearson;
use ema_similarity::dtw::{dtw_distance, dtw_distance_banded};
use ema_similarity::euclidean::{euclidean_distance, gaussian_affinity, pairwise_distances};
use ema_similarity::kmedoids::{k_medoids, pairwise_series_distances};
use ema_similarity::knn::knn_graph;
use ema_similarity::{build_graph, GraphMetric};
use ema_tensor::{Rng64, Tensor};

fn series(n: usize) -> impl Fn(&mut Rng64) -> Vec<f64> {
    move |rng| gen::vec_f64_len(rng, -10.0, 10.0, n)
}

/// Random symmetric distance matrix (zero diagonal, non-negative) plus
/// a k in 1..=N and an independent clustering seed.
fn dist_k_seed(rng: &mut Rng64) -> (Tensor, usize, u64) {
    let n = gen::usize_in(rng, 2, 9);
    let mut d = Tensor::zeros(&[n, n]);
    for i in 0..n {
        for j in (i + 1)..n {
            let v = gen::f64_in(rng, 0.0, 10.0);
            d.set2(i, j, v);
            d.set2(j, i, v);
        }
    }
    let k = gen::usize_in(rng, 1, n);
    let seed = rng.next_u64();
    (d, k, seed)
}

fn mts(rng: &mut Rng64) -> Tensor {
    let t = gen::usize_in(rng, 10, 30);
    let v = gen::usize_in(rng, 3, 8);
    Tensor::from_vec(&[t, v], gen::vec_f64_len(rng, -5.0, 5.0, t * v)).unwrap()
}

prop_tests! {
    fn dtw_identity_and_symmetry(
        (x, y) in |rng: &mut Rng64| (series(20)(rng), series(20)(rng)),
    ) {
        prop_assert_eq!(dtw_distance(&x, &x), 0.0);
        prop_assert_eq!(dtw_distance(&x, &y), dtw_distance(&y, &x));
        prop_assert!(dtw_distance(&x, &y) >= 0.0);
    }

    fn dtw_lower_bounds_pointwise_cost(
        (x, y) in |rng: &mut Rng64| (series(15)(rng), series(15)(rng)),
    ) {
        // DTW relaxes alignment, so it never exceeds the lockstep cost.
        let lockstep: f64 = x.iter().zip(y.iter()).map(|(a, b)| (a - b).abs()).sum();
        prop_assert!(dtw_distance(&x, &y) <= lockstep + 1e-9);
    }

    fn dtw_band_is_monotone(
        (x, y) in |rng: &mut Rng64| (series(20)(rng), series(20)(rng)),
    ) {
        // Wider bands can only lower (or keep) the distance.
        let d2 = dtw_distance_banded(&x, &y, 2);
        let d5 = dtw_distance_banded(&x, &y, 5);
        let dfull = dtw_distance(&x, &y);
        prop_assert!(d5 <= d2 + 1e-9);
        prop_assert!(dfull <= d5 + 1e-9);
    }

    fn euclidean_triangle_inequality(
        (x, y, z) in |rng: &mut Rng64| (series(10)(rng), series(10)(rng), series(10)(rng)),
    ) {
        let xy = euclidean_distance(&x, &y);
        let yz = euclidean_distance(&y, &z);
        let xz = euclidean_distance(&x, &z);
        prop_assert!(xz <= xy + yz + 1e-9);
    }

    fn correlation_is_bounded_and_scale_invariant(
        (x, y) in |rng: &mut Rng64| (series(12)(rng), series(12)(rng)),
    ) {
        let r = pearson(&x, &y);
        prop_assert!(r.abs() <= 1.0 + 1e-12);
        // Positive affine transforms leave correlation unchanged.
        let y2: Vec<f64> = y.iter().map(|v| 3.0 * v + 7.0).collect();
        let r2 = pearson(&x, &y2);
        prop_assert!((r - r2).abs() < 1e-7, "{r} vs {r2}");
    }

    fn affinities_live_in_unit_interval(data in mts) {
        let a = gaussian_affinity(&pairwise_distances(&data));
        prop_assert!(a.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    fn knn_union_symmetry_and_degree(data in mts) {
        let v = data.dims()[1];
        let k = 2.min(v - 1).max(1);
        let g = knn_graph(&data, k);
        prop_assert!(g.is_symmetric());
        for i in 0..v {
            let deg = (0..v).filter(|&j| g.weight(i, j) > 0.0).count();
            prop_assert!(deg >= k, "node {i} has degree {deg} < k {k}");
        }
    }

    fn kmedoids_assignment_is_argmin_over_medoids((d, k, seed) in dist_k_seed) {
        let n = d.dims()[0];
        let r = k_medoids(&d, k, seed);
        prop_assert_eq!(r.medoids.len(), k);
        prop_assert_eq!(r.assignments.len(), n);
        for p in 0..n {
            let own = d.at2(p, r.medoids[r.assignments[p]]);
            for (c, &m) in r.medoids.iter().enumerate() {
                let dm = d.at2(p, m);
                prop_assert!(own <= dm, "point {p}: assigned dist {own} > medoid {c} dist {dm}");
                // Ties break to the lowest cluster index.
                if dm == own {
                    prop_assert!(r.assignments[p] <= c);
                }
            }
        }
        // The reported objective is the sum of assigned distances.
        let sum: f64 = (0..n).map(|p| d.at2(p, r.medoids[r.assignments[p]])).sum();
        prop_assert_eq!(r.objective, sum);
    }

    fn kmedoids_objective_non_increasing_and_deterministic((d, k, seed) in dist_k_seed) {
        let r = k_medoids(&d, k, seed);
        for w in r.objective_trace.windows(2) {
            prop_assert!(w[1] <= w[0], "objective rose across a swap: {:?}", r.objective_trace);
        }
        prop_assert_eq!(r.objective, *r.objective_trace.last().unwrap());
        // Same (distances, k, seed) → bit-identical result on re-run.
        prop_assert_eq!(k_medoids(&d, k, seed), r);
    }

    fn kmedoids_k1_is_nomothetic_and_kn_is_idiographic((d, _k, seed) in dist_k_seed) {
        let n = d.dims()[0];
        // k = 1: one cluster holding everyone, medoid minimising the
        // total distance (ties to the lowest index).
        let r1 = k_medoids(&d, 1, seed);
        prop_assert!(r1.assignments.iter().all(|&c| c == 0));
        let total = |m: usize| -> f64 { (0..n).map(|p| d.at2(p, m)).sum() };
        let best = total(r1.medoids[0]);
        for m in 0..n {
            prop_assert!(best <= total(m));
        }
        // k = N: every point is its own medoid and cluster.
        let rn = k_medoids(&d, n, seed);
        prop_assert_eq!(rn.medoids, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(rn.assignments, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(rn.objective, 0.0);
    }

    fn kmedoids_over_series_distances_is_well_formed(
        (series, k, seed) in |rng: &mut Rng64| {
            let n = gen::usize_in(rng, 2, 6);
            let series: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let len = gen::usize_in(rng, 5, 20);
                    gen::vec_f64_len(rng, -5.0, 5.0, len)
                })
                .collect();
            let k = gen::usize_in(rng, 1, n);
            (series, k, rng.next_u64())
        },
    ) {
        let d = pairwise_series_distances(&series);
        prop_assert!(d.data().iter().all(|v| v.is_finite() && *v >= 0.0));
        let r = k_medoids(&d, k, seed);
        prop_assert_eq!(r.medoids.len(), k);
        prop_assert!(r.assignments.iter().all(|&c| c < k));
    }

    fn every_builder_metric_is_well_formed(data in mts) {
        for metric in [
            GraphMetric::Euclidean,
            GraphMetric::Dtw,
            GraphMetric::Correlation,
        ] {
            let g = build_graph(&data, metric);
            prop_assert_eq!(g.num_nodes(), data.dims()[1]);
            prop_assert!(g.weights().all_finite(), "{} not finite", metric.label());
            prop_assert!(g.is_symmetric(), "{} asymmetric", metric.label());
            // No self loops by construction.
            for i in 0..g.num_nodes() {
                prop_assert_eq!(g.weight(i, i), 0.0);
            }
        }
    }
}

//! Property-based tests of graph transformations.

use ema_check::{gen, prop_assert, prop_assert_eq, prop_tests};
use ema_graph::chebyshev::chebyshev_from_adjacency;
use ema_graph::normalize::{gcn_norm, normalized_laplacian, row_norm_self_loops, spectral_radius};
use ema_graph::random::random_with_edge_count;
use ema_graph::sparsify::{sparsify_to_density, top_k_per_row};
use ema_graph::stats::edge_weight_correlation;
use ema_graph::AdjacencyMatrix;
use ema_tensor::{Rng64, Tensor};

fn graph(rng: &mut Rng64) -> AdjacencyMatrix {
    let n = gen::usize_in(rng, 3, 10);
    let mut inner = Rng64::seed_from(gen::u64_below(10_000)(rng));
    AdjacencyMatrix::new(Tensor::rand_uniform(&[n, n], 0.0, 1.0, &mut inner))
}

fn symmetric_graph(rng: &mut Rng64) -> AdjacencyMatrix {
    graph(rng).symmetrized()
}

prop_tests! {
    fn sparsify_edge_counts_never_exceed_target(
        (g, frac) in |rng: &mut Rng64| (graph(rng), gen::f64_in(rng, 0.05, 1.0)),
    ) {
        let n = g.num_nodes();
        let keep = ((n * (n - 1)) as f64 * frac).round().max(1.0) as usize;
        let s = sparsify_to_density(&g, frac);
        prop_assert!(s.num_edges() <= keep.max(g.num_edges().min(keep)));
        prop_assert!(s.num_edges() <= g.num_edges());
    }

    fn sparser_gdt_is_nested_in_denser(g in graph) {
        // Every edge kept at 20% must also be kept at 40%.
        let s20 = sparsify_to_density(&g, 0.2);
        let s40 = sparsify_to_density(&g, 0.4);
        for (i, j, w) in s20.edges() {
            prop_assert!(
                (s40.weight(i, j) - w).abs() < 1e-12,
                "edge ({i},{j}) lost when loosening the threshold"
            );
        }
    }

    fn sparsify_keeps_heaviest_edges(g in graph) {
        let s = sparsify_to_density(&g, 0.25);
        let kept_min = s
            .edges()
            .iter()
            .map(|&(_, _, w)| w)
            .fold(f64::INFINITY, f64::min);
        // No dropped edge may be strictly heavier than the lightest
        // kept edge.
        for (i, j, w) in g.edges() {
            if s.weight(i, j) == 0.0 {
                prop_assert!(w <= kept_min + 1e-12);
            }
        }
    }

    fn top_k_out_degree_bound(
        (g, k) in |rng: &mut Rng64| (graph(rng), gen::usize_in(rng, 1, 5)),
    ) {
        let t = top_k_per_row(&g, k);
        for i in 0..t.num_nodes() {
            let deg = (0..t.num_nodes()).filter(|&j| t.weight(i, j) > 0.0).count();
            prop_assert!(deg <= k);
        }
    }

    fn gcn_norm_is_spectrally_bounded(g in symmetric_graph) {
        let a_hat = gcn_norm(&g);
        prop_assert!(a_hat.all_finite());
        let r = spectral_radius(&a_hat, 200);
        prop_assert!(r <= 1.0 + 1e-6, "radius {r}");
    }

    fn row_norm_self_loops_is_stochastic(g in graph) {
        let r = row_norm_self_loops(&g);
        for i in 0..g.num_nodes() {
            prop_assert!((r.row(i).sum() - 1.0).abs() < 1e-9);
        }
        prop_assert!(r.data().iter().all(|&v| v >= 0.0));
    }

    fn normalized_laplacian_spectrum_in_zero_two(g in symmetric_graph) {
        let l = normalized_laplacian(&g);
        let r = spectral_radius(&l, 200);
        prop_assert!(r <= 2.0 + 1e-6, "λmax {r}");
    }

    fn chebyshev_stack_stays_bounded(
        (g, k) in |rng: &mut Rng64| (symmetric_graph(rng), gen::usize_in(rng, 1, 5)),
    ) {
        let ts = chebyshev_from_adjacency(&g, k);
        prop_assert_eq!(ts.len(), k);
        for t in &ts {
            prop_assert!(t.all_finite());
            let r = spectral_radius(t, 200);
            prop_assert!(r <= 1.0 + 1e-4, "‖T_k‖ {r}");
        }
    }

    fn random_graph_edge_count_is_exact(
        (n, seed) in |rng: &mut Rng64| {
            (gen::usize_in(rng, 3, 10), gen::u64_below(1000)(rng))
        },
    ) {
        let possible = n * (n - 1);
        let mut rng = Rng64::seed_from(seed);
        for edges in [0, 1, possible / 2, possible] {
            let g = random_with_edge_count(n, edges, &mut rng);
            prop_assert_eq!(g.num_edges(), edges);
        }
    }

    fn correlation_is_symmetric_in_arguments(
        (a, b) in |rng: &mut Rng64| {
            let n = gen::usize_in(rng, 3, 10);
            let mut r1 = Rng64::seed_from(gen::u64_below(10_000)(rng));
            let mut r2 = Rng64::seed_from(gen::u64_below(10_000)(rng) ^ 0xdead_beef);
            (
                AdjacencyMatrix::new(Tensor::rand_uniform(&[n, n], 0.0, 1.0, &mut r1)),
                AdjacencyMatrix::new(Tensor::rand_uniform(&[n, n], 0.0, 1.0, &mut r2)),
            )
        },
    ) {
        let ab = edge_weight_correlation(&a, &b);
        let ba = edge_weight_correlation(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!(ab.abs() <= 1.0 + 1e-12);
    }
}

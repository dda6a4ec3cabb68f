//! Structure-recovery tests: because the synthetic generator exposes
//! each individual's ground-truth interaction graph, we can verify that
//! the similarity graphs (and MTGNN's learned graph) carry real signal —
//! a check the original study could not perform on clinical data.

use ema_check::Check;
use ema_core::pipeline::{run_individual, GraphSpec, RunSpec};
use ema_core::train::TrainConfig;
use ema_data::{split_train_test, EmaGenerator, GeneratorConfig};
use ema_graph::random::random_like;
use ema_graph::sparsify::DensityThreshold;
use ema_graph::stats::{edge_set_jaccard, edge_weight_correlation};
use ema_models::{ModelConfig, ModelKind};
use ema_similarity::{build_graph, GraphMetric};
use ema_tensor::Rng64;
use std::cell::Cell;

/// Generator tuned for recoverable structure: long series, strong
/// couplings, no circadian confound.
fn structured_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        num_individuals: 3,
        num_variables: 10,
        mean_time_points: 500,
        coupling_strength: 0.6,
        noise_std: 0.25,
        circadian_amplitude: 0.0,
        missing_rate: 0.0,
        seed,
        ..GeneratorConfig::default()
    }
}

#[test]
fn correlation_graph_recovers_more_structure_than_random() {
    let ds = EmaGenerator::new(structured_config(7)).generate();
    // Per individual: the correlation graph's score plus the sparsity
    // pattern the random competitors must match.
    let per_individual: Vec<_> = ds
        .individuals
        .iter()
        .map(|ind| {
            let gt = ind.ground_truth.symmetrized();
            let (train, _) = split_train_test(&ind.data, 0.7);
            let corr_graph = build_graph(&train, GraphMetric::Correlation);
            let corr_score = edge_weight_correlation(&corr_graph, &gt);
            let sparse = ema_graph::sparsify::sparsify(&corr_graph, DensityThreshold::Gdt40);
            (corr_score, sparse, gt)
        })
        .collect();

    // Seeded property cases: each case draws fresh random graphs of the
    // same density and tallies whether the correlation graph wins.
    let wins = Cell::new(0usize);
    let total = Cell::new(0usize);
    Check::named("graph_recovery::correlation_graph_recovers_more_structure_than_random")
        .cases(8)
        .run(
            |rng| rng.next_u64(),
            |seed| {
                let mut rng = Rng64::seed_from(*seed);
                for (corr_score, sparse, gt) in &per_individual {
                    let random = random_like(sparse, &mut rng);
                    let rand_score = edge_weight_correlation(&random, gt);
                    if *corr_score > rand_score {
                        wins.set(wins.get() + 1);
                    }
                    total.set(total.get() + 1);
                }
                Ok(())
            },
        );
    let (wins, total) = (wins.get(), total.get());
    assert!(
        wins * 10 >= total * 8,
        "correlation graph beat random in only {wins}/{total} comparisons"
    );
}

#[test]
fn all_metrics_produce_graphs_more_informative_than_chance() {
    let ds = EmaGenerator::new(structured_config(8)).generate();
    let ind = &ds.individuals[0];
    let gt = ind.ground_truth.symmetrized();
    let (train, _) = split_train_test(&ind.data, 0.7);
    for metric in [
        GraphMetric::Correlation,
        GraphMetric::Euclidean,
        GraphMetric::Knn(3),
    ] {
        let g = build_graph(&train, metric);
        let score = edge_weight_correlation(&g, &gt);
        assert!(
            score > -0.2,
            "{} graph anti-correlates with ground truth: {score}",
            metric.label()
        );
    }
}

#[test]
fn sparsified_graphs_retain_overlap_with_dense_version() {
    let ds = EmaGenerator::new(structured_config(9)).generate();
    let ind = &ds.individuals[0];
    let (train, _) = split_train_test(&ind.data, 0.7);
    let dense = build_graph(&train, GraphMetric::Correlation);
    let sparse = ema_graph::sparsify::sparsify(&dense, DensityThreshold::Gdt20);
    // Every sparse edge must exist in the dense graph with equal weight.
    for (i, j, w) in sparse.edges() {
        assert!((dense.weight(i, j) - w).abs() < 1e-12);
    }
    assert!(edge_set_jaccard(&sparse, &dense) > 0.0);
    assert!(sparse.num_edges() < dense.num_edges());
}

#[test]
fn mtgnn_learned_graph_is_nontrivial() {
    let ds = EmaGenerator::new(structured_config(10)).generate();
    let ind = &ds.individuals[0];
    let spec = RunSpec {
        model_config: ModelConfig::tiny(3),
        train_config: TrainConfig::quick(25, 11),
        ..RunSpec::new(
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt20,
            },
            3,
        )
    };
    let out = run_individual(ind, &spec);
    let learned = out.learned_graph.expect("learned graph present");
    assert!(learned.num_edges() > 0, "learned graph is empty");
    assert!(learned.weights().all_finite());
    // The learned graph differs from the static prior (learning moved it)
    // but retains correlation with it (prior + shared signal).
    let static_g = out.graph_used.unwrap();
    assert_ne!(learned.weights().data(), static_g.weights().data());
    let r = edge_weight_correlation(&learned, &static_g);
    assert!(r > 0.0, "learned graph lost all prior signal: r = {r}");
}

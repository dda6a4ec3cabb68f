//! Cross-crate integration: learned graphs flowing between models,
//! graph transformations composing, and the generated study's shape.

use ema_core::pipeline::{run_individual, GraphSpec, RunSpec};
use ema_core::train::TrainConfig;
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_graph::chebyshev::chebyshev_from_adjacency;
use ema_graph::normalize::{gcn_norm, spectral_radius};
use ema_graph::sparsify::{sparsify, DensityThreshold};
use ema_models::{ModelConfig, ModelKind};
use ema_similarity::{build_graph, GraphMetric};

#[test]
fn similarity_graph_composes_with_graph_transformations() {
    // Seeded property: the metric × GDT composition must hold for any
    // generated individual, not just one fixed seed.
    use ema_check::{prop_assert, Check};
    Check::named("cross_crate::similarity_graph_composes_with_graph_transformations")
        .cases(6)
        .run(
            |rng| rng.next_u64() % 10_000,
            |seed| {
                let ds = EmaGenerator::new(GeneratorConfig::quick(1, 8, *seed)).generate();
                let data = &ds.individuals[0].data;
                for metric in [
                    GraphMetric::Euclidean,
                    GraphMetric::Knn(5),
                    GraphMetric::Dtw,
                    GraphMetric::Correlation,
                ] {
                    let g = build_graph(data, metric);
                    // Every paper GDT level yields a usable propagation matrix.
                    for gdt in DensityThreshold::all() {
                        let s = sparsify(&g, gdt);
                        let a_hat = gcn_norm(&s);
                        prop_assert!(a_hat.all_finite(), "{} {:?}", metric.label(), gdt);
                        // An odd GDT edge budget can split one symmetric edge
                        // pair, leaving Â slightly asymmetric; allow a small
                        // excursion above the symmetric bound of 1.
                        let r = spectral_radius(&a_hat, 100);
                        prop_assert!(r <= 1.02, "{} Â radius {r}", metric.label());
                        // And a bounded Chebyshev stack for ASTGCN.
                        let cheb = chebyshev_from_adjacency(&s, 3);
                        prop_assert!(cheb.len() == 3);
                        prop_assert!(cheb.iter().all(ema_tensor::Tensor::all_finite));
                    }
                }
                Ok(())
            },
        );
}

#[test]
fn learned_graph_feeds_other_models() {
    // The Experiment-C plumbing: MTGNN's learned graph must be a valid
    // input for both A3TGCN and ASTGCN.
    let ds = EmaGenerator::new(GeneratorConfig::quick(1, 7, 52)).generate();
    let ind = &ds.individuals[0];
    let mtgnn_spec = RunSpec {
        model_config: ModelConfig::tiny(3),
        train_config: TrainConfig::quick(10, 6),
        ..RunSpec::new(
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: GraphMetric::Knn(3),
                gdt: DensityThreshold::Gdt20,
            },
            2,
        )
    };
    let learned = run_individual(ind, &mtgnn_spec)
        .learned_graph
        .expect("learned graph");

    for model in [ModelKind::A3tgcn, ModelKind::Astgcn] {
        let spec = RunSpec {
            model_config: ModelConfig::tiny(3),
            train_config: TrainConfig::quick(6, 7),
            ..RunSpec::new(model, GraphSpec::Provided(learned.clone()), 2)
        };
        let out = run_individual(ind, &spec);
        assert!(
            out.mse.is_finite(),
            "{} failed on the learned graph",
            model.label()
        );
    }
}

#[test]
fn dataset_statistics_match_paper_shape_at_full_config() {
    // The default generator config mirrors the paper's dataset: check
    // N/V/T̄ without paying for full generation (use fewer individuals).
    let cfg = GeneratorConfig::default();
    assert_eq!(cfg.num_individuals, 100);
    assert_eq!(cfg.num_variables, 26);
    assert_eq!(cfg.mean_time_points, 140);
    assert_eq!(cfg.likert_levels, 7);

    let small = GeneratorConfig {
        num_individuals: 3,
        ..cfg
    };
    let ds = EmaGenerator::new(small).generate();
    assert_eq!(ds.num_variables(), 26);
    let mean_t = ds.mean_time_points();
    assert!(
        (100.0..=190.0).contains(&mean_t),
        "mean T {mean_t} far from 140"
    );
    assert_eq!(ds.variable_names[0], "cheerful");
}

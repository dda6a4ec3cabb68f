//! Graph learning in action (the paper's Experiment C in miniature):
//! train MTGNN from a static prior, watch the learned graph drift from
//! it, then feed the learned graph to A3TGCN and ASTGCN.
//!
//! ```bash
//! cargo run --release -p ema-core --example graph_learning
//! ```

use ema_core::pipeline::{run_individual, GraphSpec, RunSpec};
use ema_core::train::TrainConfig;
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::DensityThreshold;
use ema_graph::stats::edge_weight_correlation;
use ema_models::{ModelConfig, ModelKind};
use ema_similarity::GraphMetric;

fn main() {
    let dataset = EmaGenerator::new(GeneratorConfig::quick(1, 10, 77)).generate();
    let individual = &dataset.individuals[0];
    let model_config = ModelConfig {
        hidden: 16,
        ..ModelConfig::default()
    };
    let train_config = TrainConfig::quick(60, 5);
    let gdt = DensityThreshold::Gdt20;
    let metric = GraphMetric::Correlation;

    // 1. MTGNN primed with the CORR graph.
    let mtgnn_spec = RunSpec {
        model_config,
        train_config: train_config.clone(),
        ..RunSpec::new(ModelKind::Mtgnn, GraphSpec::Static { metric, gdt }, 5)
    };
    let mtgnn = run_individual(individual, &mtgnn_spec);
    let static_graph = mtgnn.graph_used.clone().expect("static prior present");
    let learned = mtgnn.learned_graph.clone().expect("learned graph present");

    println!("MTGNN test MSE: {:.3}", mtgnn.mse);
    println!(
        "learned graph: {} edges; correlation with the static prior: {:.1}%",
        learned.num_edges(),
        100.0 * edge_weight_correlation(&learned, &static_graph)
    );

    // 2. Feed static vs learned graphs to the other GNNs.
    println!(
        "\n{:<10}{:>14}{:>14}{:>10}",
        "model", "static MSE", "learned MSE", "Δ%"
    );
    for model in [ModelKind::A3tgcn, ModelKind::Astgcn] {
        let static_spec = RunSpec {
            model_config,
            train_config: train_config.clone(),
            ..RunSpec::new(model, GraphSpec::Static { metric, gdt }, 5)
        };
        let with_static = run_individual(individual, &static_spec);

        let learned_spec = RunSpec {
            model_config,
            train_config: train_config.clone(),
            ..RunSpec::new(model, GraphSpec::Provided(learned.clone()), 5)
        };
        let with_learned = run_individual(individual, &learned_spec);

        let delta = 100.0 * (with_learned.mse - with_static.mse) / with_static.mse;
        println!(
            "{:<10}{:>14.3}{:>14.3}{:>+10.1}",
            model.label(),
            with_static.mse,
            with_learned.mse,
            delta
        );
    }
    println!("\nnegative Δ% = the MTGNN-learned graph helped that model (paper Fig. 3).");
}

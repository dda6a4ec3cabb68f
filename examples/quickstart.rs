//! Quickstart: generate a small synthetic EMA study, train an MTGNN on
//! one individual and compare it with the LSTM baseline.
//!
//! ```bash
//! cargo run --release -p ema-core --example quickstart
//! ```

use ema_core::pipeline::{run_individual, GraphSpec, RunSpec};
use ema_core::train::TrainConfig;
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::DensityThreshold;
use ema_models::{ModelConfig, ModelKind};
use ema_similarity::GraphMetric;

fn main() {
    // 1. A small synthetic study: 3 individuals, 12 EMA variables.
    let dataset = EmaGenerator::new(GeneratorConfig::quick(3, 12, 42)).generate();
    println!(
        "study: {} individuals × {} variables, mean T = {:.0}\n",
        dataset.num_individuals(),
        dataset.num_variables(),
        dataset.mean_time_points()
    );

    // 2. Personalized forecasting for individual 0 with both models.
    let individual = &dataset.individuals[0];
    let train_config = TrainConfig::quick(60, 7);
    let model_config = ModelConfig {
        hidden: 16,
        ..ModelConfig::default()
    };

    let lstm_spec = RunSpec {
        model_config,
        train_config: train_config.clone(),
        ..RunSpec::new(ModelKind::Lstm, GraphSpec::None, 5)
    };
    let lstm = run_individual(individual, &lstm_spec);

    let mtgnn_spec = RunSpec {
        model_config,
        train_config,
        ..RunSpec::new(
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt20,
            },
            5,
        )
    };
    let mtgnn = run_individual(individual, &mtgnn_spec);

    // 3. Compare test MSEs (z-normalised data: 1.0 ≈ predicting the mean).
    println!("individual {} test MSE:", individual.id);
    println!("  LSTM  : {:.3}  ({} epochs)", lstm.mse, lstm.epochs_run);
    println!("  MTGNN : {:.3}  ({} epochs)", mtgnn.mse, mtgnn.epochs_run);

    let learned = mtgnn.learned_graph.expect("MTGNN exposes its graph");
    println!(
        "\nMTGNN learned a graph with {} edges (density {:.2})",
        learned.num_edges(),
        learned.density()
    );
}

//! Personalized forecasting across a cohort — the paper's headline use
//! case: one model per individual, evaluated on the last 30% of each
//! series, aggregated as mean(std) across the cohort.
//!
//! ```bash
//! cargo run --release -p ema-core --example personalized_forecasting
//! ```

use ema_core::pipeline::{run_cohort, GraphSpec, RunSpec};
use ema_core::results::CellStat;
use ema_core::train::TrainConfig;
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::DensityThreshold;
use ema_models::{ModelConfig, ModelKind};
use ema_similarity::GraphMetric;

fn main() {
    let dataset = EmaGenerator::new(GeneratorConfig::quick(6, 10, 2024)).generate();
    println!(
        "cohort: {} individuals, {} variables\n",
        dataset.num_individuals(),
        dataset.num_variables()
    );

    let model_config = ModelConfig {
        hidden: 16,
        ..ModelConfig::default()
    };
    let train_config = TrainConfig::quick(50, 7);

    println!("{:<12}{:>16}{:>12}", "model", "MSE mean(std)", "best ind.");
    println!("{}", "-".repeat(40));
    for (kind, graph) in [
        (ModelKind::Lstm, GraphSpec::None),
        (
            ModelKind::A3tgcn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt20,
            },
        ),
        (
            ModelKind::Astgcn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt20,
            },
        ),
        (
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt20,
            },
        ),
    ] {
        let spec = RunSpec {
            model_config,
            train_config: train_config.clone(),
            ..RunSpec::new(kind, graph, 5)
        };
        let outcomes = run_cohort(&dataset, &spec);
        let mses: Vec<f64> = outcomes.iter().map(|o| o.mse).collect();
        let stat = CellStat::from_samples(&mses);
        let best = outcomes
            .iter()
            .min_by(|a, b| a.mse.total_cmp(&b.mse))
            .expect("non-empty cohort");
        println!(
            "{:<12}{:>16}{:>12}",
            kind.label(),
            stat.to_string(),
            format!("#{} {:.3}", best.id, best.mse)
        );
    }

    println!("\nper-variable errors expose which symptoms are hardest to forecast;");
    println!("see ema_core::evaluate::evaluate.");
}

//! Exploring individual graph structures: build all similarity graphs
//! for one individual, inspect their properties and check how much
//! ground-truth structure each one recovers.
//!
//! ```bash
//! cargo run --release -p ema-core --example graph_structures
//! ```

use ema_data::{split_train_test, EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::{sparsify, DensityThreshold};
use ema_graph::stats::{degree_summary, edge_weight_correlation};
use ema_similarity::{build_graph, GraphMetric};

fn main() {
    // Long series with strong couplings so structure is recoverable.
    let cfg = GeneratorConfig {
        num_individuals: 2,
        num_variables: 12,
        mean_time_points: 300,
        coupling_strength: 0.6,
        circadian_amplitude: 0.1,
        seed: 7,
        ..GeneratorConfig::default()
    };
    let dataset = EmaGenerator::new(cfg).generate();

    for individual in &dataset.individuals {
        let gt = individual.ground_truth.symmetrized();
        let (train, _) = split_train_test(&individual.data, 0.7);

        println!(
            "individual {} ({} time points) — ground truth: {} edges",
            individual.id,
            individual.num_time_points(),
            gt.num_edges()
        );
        println!(
            "{:<8}{:>8}{:>10}{:>12}{:>14}",
            "metric", "edges", "density", "mean degree", "gt-correlation"
        );
        for metric in [
            GraphMetric::Euclidean,
            GraphMetric::Knn(3),
            GraphMetric::Dtw,
            GraphMetric::Correlation,
            GraphMetric::Random(99),
        ] {
            let g = build_graph(&train, metric);
            let deg = degree_summary(&g);
            println!(
                "{:<8}{:>8}{:>10.2}{:>12.2}{:>14.3}",
                metric.label(),
                g.num_edges(),
                g.density(),
                deg.mean,
                edge_weight_correlation(&g, &gt)
            );
        }

        // Sparsity: the paper's GDT levels.
        let corr = build_graph(&train, GraphMetric::Correlation);
        print!("CORR at GDT levels:");
        for gdt in DensityThreshold::all() {
            let s = sparsify(&corr, gdt);
            print!("  {} -> {} edges", gdt.label(), s.num_edges());
        }
        println!("\n");
    }
}

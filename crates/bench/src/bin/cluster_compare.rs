//! Runs the cluster-then-personalize comparison: idiographic vs
//! K-medoids cluster warm-start vs nomothetic training, per model.

use ema_core::experiments::{run_cluster_compare, strategies};

fn main() {
    ema_bench::run_experiment(
        "cluster_compare",
        "Cluster-then-personalize comparison",
        |scale, executor| {
            for (name, strategy) in strategies(scale) {
                println!("  {name}: {strategy:?}");
            }
            println!();
            run_cluster_compare(scale, executor)
        },
        |_| {
            println!("shape expectations: Cluster ≈ Idiographic (within noise) at a");
            println!("fraction of the training epochs; Nomothetic worst (no");
            println!("personalization, serves the shared cluster model as-is).");
        },
    );
}

//! Runs the ablation suite: MTGNN ingredient knock-outs and trivial
//! baseline calibration (not in the paper; supports DESIGN.md's
//! design-choice analysis).

use ema_core::experiments::run_ablation;

fn main() {
    ema_bench::run_experiment("ablation", "Ablations", run_ablation, |_| {
        println!("reading guide:");
        println!("  ZeroPrediction ≈ 1.0 calibrates the z-normalised scale;");
        println!("  'MTGNN (static only)' isolates the graph-learning module's value;");
        println!("  'MTGNN (learned, no prior)' shows learning from scratch.");
    });
}

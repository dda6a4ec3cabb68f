//! Regenerates Fig. 3 (Experiment C): MSE distributions with static vs
//! MTGNN-learned graphs, as boxplot statistics plus the per-individual
//! relative %-change annotations.

use ema_core::experiments::run_experiment_c;

fn main() {
    ema_bench::run_experiment("fig3", "Experiment C", run_experiment_c, |_| {
        println!("paper reference points:");
        println!("  MTGNN best overall at ≈0.84 with learned graphs;");
        println!("  ASTGCN learned-vs-static: biggest improvement −20.3% (kNN_learned);");
        println!("  learned/static graph correlation ≈88%;");
        println!("  A3TGCN stays ≈1.02 in every condition.");
        println!();
    });
}

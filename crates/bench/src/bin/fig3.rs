//! Regenerates Fig. 3 (Experiment C): MSE distributions with static vs
//! MTGNN-learned graphs, as boxplot statistics plus the per-individual
//! relative %-change annotations.

use ema_bench::{describe_scale, save_json, scale_from_args};
use ema_core::experiments::run_experiment_c;

fn main() {
    let scale = scale_from_args();
    let threads = ema_bench::threads_from_args();
    let _obs = ema_bench::ObsRun::for_scale("fig3", &scale);
    println!(
        "Experiment C ({}, threads={threads})\n",
        describe_scale(&scale)
    );
    let started = std::time::Instant::now();
    ema_obs::recorder().phase("experiment");
    let fig = run_experiment_c(&scale);
    ema_obs::recorder().phase("report");
    println!("{}", fig.render());
    println!("elapsed: {:.1?}\n", started.elapsed());

    println!("paper reference points:");
    println!("  MTGNN best overall at ≈0.84 with learned graphs;");
    println!("  ASTGCN learned-vs-static: biggest improvement −20.3% (kNN_learned);");
    println!("  learned/static graph correlation ≈88%;");
    println!("  A3TGCN stays ≈1.02 in every condition.");

    if let Some(path) = save_json("fig3", &fig.to_json()) {
        println!("\nrun recorded at {}", path.display());
        ema_obs::recorder().annotate("results_json", path.display().to_string().into());
    }
}

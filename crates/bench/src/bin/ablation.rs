//! Runs the ablation suite: MTGNN ingredient knock-outs and trivial
//! baseline calibration (not in the paper; supports DESIGN.md's
//! design-choice analysis).

use ema_bench::{describe_scale, save_json, scale_from_args};
use ema_core::experiments::run_ablation;

fn main() {
    let scale = scale_from_args();
    let threads = ema_bench::threads_from_args();
    let _obs = ema_bench::ObsRun::for_scale("ablation", &scale);
    println!(
        "Ablations ({}, threads={threads})\n",
        describe_scale(&scale)
    );
    let started = std::time::Instant::now();
    ema_obs::recorder().phase("experiment");
    let table = run_ablation(&scale);
    ema_obs::recorder().phase("report");
    println!("{}", table.render());
    println!("elapsed: {:.1?}\n", started.elapsed());
    println!("reading guide:");
    println!("  ZeroPrediction ≈ 1.0 calibrates the z-normalised scale;");
    println!("  'MTGNN (static only)' isolates the graph-learning module's value;");
    println!("  'MTGNN (learned, no prior)' shows learning from scratch.");

    if let Some(path) = save_json("ablation", &table.to_json()) {
        println!("run recorded at {}", path.display());
        ema_obs::recorder().annotate("results_json", path.display().to_string().into());
    }
}

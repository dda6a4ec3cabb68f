//! Hyper-parameter sweep (paper Sec. V-D): learning rate × hidden
//! width for MTGNN.

use ema_bench::{describe_scale, save_json, scale_from_args};
use ema_core::experiments::run_hyperparameter_sweep;

fn main() {
    let scale = scale_from_args();
    let threads = ema_bench::threads_from_args();
    let _obs = ema_bench::ObsRun::for_scale("hyperparams", &scale);
    println!(
        "Hyper-parameter sweep ({}, threads={threads})\n",
        describe_scale(&scale)
    );
    let started = std::time::Instant::now();
    ema_obs::recorder().phase("experiment");
    let table = run_hyperparameter_sweep(&scale);
    ema_obs::recorder().phase("report");
    println!("{}", table.render());
    println!("elapsed: {:.1?}\n", started.elapsed());
    println!("paper outcome: lr = 0.01 with 32 hidden units was optimal.");

    if let Some(path) = save_json("hyperparams", &table.to_json()) {
        println!("run recorded at {}", path.display());
        ema_obs::recorder().annotate("results_json", path.display().to_string().into());
    }
}

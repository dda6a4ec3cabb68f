//! Per-variable error analysis (paper future work): which EMA variables
//! are hardest to forecast.

use ema_bench::{describe_scale, save_json, scale_from_args};
use ema_core::experiments::run_per_variable;

fn main() {
    let scale = scale_from_args();
    let threads = ema_bench::threads_from_args();
    let _obs = ema_bench::ObsRun::for_scale("per_variable", &scale);
    println!(
        "Per-variable MSE ({}, threads={threads})\n",
        describe_scale(&scale)
    );
    let started = std::time::Instant::now();
    ema_obs::recorder().phase("experiment");
    let table = run_per_variable(&scale);
    ema_obs::recorder().phase("report");
    println!("{}", table.render());
    println!("elapsed: {:.1?}\n", started.elapsed());

    // Highlight the extremes.
    let mut rows: Vec<(&str, f64)> = table
        .rows
        .iter()
        .map(|(label, cells)| (label.as_str(), cells[0].mean))
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    if let (Some(best), Some(worst)) = (rows.first(), rows.last()) {
        println!("easiest variable: {} ({:.3})", best.0, best.1);
        println!("hardest variable: {} ({:.3})", worst.0, worst.1);
    }

    if let Some(path) = save_json("per_variable", &table.to_json()) {
        println!("run recorded at {}", path.display());
        ema_obs::recorder().annotate("results_json", path.display().to_string().into());
    }
}

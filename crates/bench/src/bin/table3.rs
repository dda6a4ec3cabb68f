//! Regenerates Table III (Experiment B): graph construction metric ×
//! graph density threshold, including the random-graph control.

use ema_bench::{describe_scale, save_json, scale_from_args, PAPER_TABLE3_GDT20};
use ema_core::experiments::run_experiment_b;

fn main() {
    let scale = scale_from_args();
    let threads = ema_bench::threads_from_args();
    let _obs = ema_bench::ObsRun::for_scale("table3", &scale);
    println!(
        "Experiment B ({}, threads={threads})\n",
        describe_scale(&scale)
    );
    let started = std::time::Instant::now();
    ema_obs::recorder().phase("experiment");
    let table = run_experiment_b(&scale);
    ema_obs::recorder().phase("report");
    println!("{}", table.render());
    println!("elapsed: {:.1?}\n", started.elapsed());

    println!("{:<16}{:>12}{:>12}", "row", "paper 20%", "ours 20%");
    println!("{}", "-".repeat(40));
    for (name, paper_value) in PAPER_TABLE3_GDT20 {
        if let Some(cell) = table.cell(name, "GDT = 20%") {
            println!("{name:<16}{paper_value:>12.3}{:>12.3}", cell.mean);
        }
    }
    println!("\nshape expectations: RAND hurts ASTGCN the most and MTGNN the");
    println!("least (graph learning repairs it); distance metrics are close to");
    println!("each other; denser CORR helps ASTGCN/A3TGCN.");

    if let Some(path) = save_json("table3", &table.to_json()) {
        println!("run recorded at {}", path.display());
        ema_obs::recorder().annotate("results_json", path.display().to_string().into());
    }
}

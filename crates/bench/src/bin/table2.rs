//! Regenerates Table II (Experiment A): GNN models vs the LSTM baseline
//! with single- and multi-step input, GDT = 20%.

use ema_bench::{describe_scale, save_json, scale_from_args, PAPER_TABLE2_SEQ5};
use ema_core::experiments::run_experiment_a;

fn main() {
    let scale = scale_from_args();
    let threads = ema_bench::threads_from_args();
    let _obs = ema_bench::ObsRun::for_scale("table2", &scale);
    println!(
        "Experiment A ({}, threads={threads})\n",
        describe_scale(&scale)
    );
    let started = std::time::Instant::now();
    ema_obs::recorder().phase("experiment");
    let table = run_experiment_a(&scale);
    ema_obs::recorder().phase("report");
    println!("{}", table.render());
    println!("elapsed: {:.1?}\n", started.elapsed());

    // Side-by-side with the paper's Seq5 column.
    println!("{:<16}{:>12}{:>12}", "row", "paper Seq5", "ours Seq5");
    println!("{}", "-".repeat(40));
    for (name, paper_value) in PAPER_TABLE2_SEQ5 {
        if let Some(cell) = table.cell(name, "Seq5") {
            println!("{name:<16}{paper_value:>12.3}{:>12.3}", cell.mean);
        }
    }
    println!("\nshape expectations: MTGNN < ASTGCN < LSTM ≈ A3TGCN per metric;");
    println!("multi-step (Seq5) ≤ single-step (Seq1) for the GNNs.");

    if let Some(path) = save_json("table2", &table.to_json()) {
        println!("run recorded at {}", path.display());
        ema_obs::recorder().annotate("results_json", path.display().to_string().into());
    }
}

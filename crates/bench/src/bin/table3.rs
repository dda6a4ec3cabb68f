//! Regenerates Table III (Experiment B): graph construction metric ×
//! graph density threshold, including the random-graph control.

use ema_bench::PAPER_TABLE3_GDT20;
use ema_core::experiments::run_experiment_b;

fn main() {
    ema_bench::run_experiment("table3", "Experiment B", run_experiment_b, |table| {
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
    });
}

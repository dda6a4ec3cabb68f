//! Regenerates Table II (Experiment A): GNN models vs the LSTM baseline
//! with single- and multi-step input, GDT = 20%.

use ema_bench::PAPER_TABLE2_SEQ5;
use ema_core::experiments::run_experiment_a;

fn main() {
    ema_bench::run_experiment("table2", "Experiment A", run_experiment_a, |table| {
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
    });
}

//! Per-variable error analysis (paper future work): which EMA variables
//! are hardest to forecast.

use ema_core::experiments::run_per_variable;

fn main() {
    ema_bench::run_experiment(
        "per_variable",
        "Per-variable MSE",
        run_per_variable,
        |table| {
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
        },
    );
}

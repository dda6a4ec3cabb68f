//! Hyper-parameter sweep (paper Sec. V-D): learning rate × hidden
//! width for MTGNN.

use ema_core::experiments::run_hyperparameter_sweep;

fn main() {
    ema_bench::run_experiment(
        "hyperparams",
        "Hyper-parameter sweep",
        run_hyperparameter_sweep,
        |_| println!("paper outcome: lr = 0.01 with 32 hidden units was optimal."),
    );
}

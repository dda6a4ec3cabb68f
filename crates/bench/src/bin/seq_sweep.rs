//! Input-length sweep (paper future work): how the window length
//! affects LSTM, MTGNN and ASTGCN.

use ema_core::experiments::run_seq_sweep;

fn main() {
    ema_bench::run_experiment("seq_sweep", "Input-length sweep", run_seq_sweep, |_| {
        println!("paper context: Table II tests Seq1/2/5 and finds multi-step input");
        println!("slightly better; this sweep extends the axis to 10 steps.");
    });
}

//! Input-length sweep (paper future work): how the window length
//! affects LSTM, MTGNN and ASTGCN.

use ema_bench::{describe_scale, save_json, scale_from_args};
use ema_core::experiments::run_seq_sweep;

fn main() {
    let scale = scale_from_args();
    let threads = ema_bench::threads_from_args();
    let _obs = ema_bench::ObsRun::for_scale("seq_sweep", &scale);
    println!(
        "Input-length sweep ({}, threads={threads})\n",
        describe_scale(&scale)
    );
    let started = std::time::Instant::now();
    ema_obs::recorder().phase("experiment");
    let table = run_seq_sweep(&scale);
    ema_obs::recorder().phase("report");
    println!("{}", table.render());
    println!("elapsed: {:.1?}\n", started.elapsed());
    println!("paper context: Table II tests Seq1/2/5 and finds multi-step input");
    println!("slightly better; this sweep extends the axis to 10 steps.");

    if let Some(path) = save_json("seq_sweep", &table.to_json()) {
        println!("run recorded at {}", path.display());
        ema_obs::recorder().annotate("results_json", path.display().to_string().into());
    }
}

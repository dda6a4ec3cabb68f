//! # ema-perfbench
//!
//! The repository's benchmark: three workloads driven through the
//! pipeline's public entry points, measured end to end with telemetry
//! off, plus a separate traced run that replays each workload layer by
//! layer with timers in this crate's own code. See `README.md` in this
//! directory for the workloads, every metric, and which end-to-end
//! metric each layer metric should move.
//!
//! The binary's contract (`src/main.rs`):
//!
//! ```text
//! ema-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

pub mod probe;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

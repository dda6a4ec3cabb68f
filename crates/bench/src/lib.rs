//! # ema-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation, plus in-house microbenchmarks of the substrate
//! (see [`harness`]; `cargo bench --workspace` writes
//! `results/BENCH_<suite>.json` records).
//!
//! ## Table/figure binaries
//!
//! | Binary | Paper artifact | Run |
//! |--------|----------------|-----|
//! | `table1` | Table I (scenario grid) | `cargo run --release -p ema-bench --bin table1` |
//! | `table2` | Table II (Experiment A) | `cargo run --release -p ema-bench --bin table2 -- --scale quick` |
//! | `table3` | Table III (Experiment B) | `cargo run --release -p ema-bench --bin table3 -- --scale quick` |
//! | `fig3`   | Fig. 3 (Experiment C) | `cargo run --release -p ema-bench --bin fig3 -- --scale quick` |
//! | `ablation` | design-choice ablations | `cargo run --release -p ema-bench --bin ablation -- --scale quick` |
//!
//! `--scale` is `tiny` (seconds), `quick` (minutes, default) or `full`
//! (the paper's N=100/V=26/300-epoch setting; hours of CPU). Each binary
//! prints the regenerated artifact next to the paper's reference values
//! and writes a JSON record under `results/`.
//!
//! Every binary also accepts `--threads N`, which sets the cohort
//! executor's worker count (default: `EMA_THREADS`, then available
//! parallelism). Results JSON is byte-identical at every thread count;
//! the flag only changes wall-clock time.

#![warn(missing_docs)]

pub mod alloc;
pub mod harness;
pub mod report;

pub use harness::{BenchResult, Bencher, Harness};

use ema_core::experiments::ExperimentScale;
use std::path::{Path, PathBuf};

/// Regression tolerance as a fraction: `bench_gate` fails a median, and
/// `obs_report`'s diff flags a span path, more than 15% over its
/// load-normalized baseline.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// Upper bound on the load-normalization scale: even if every sibling
/// inflated beyond this, the allowance stops growing, so a genuine
/// uniform slowdown past `MAX_LOAD_SCALE × (1 + tolerance)` always
/// fails.
pub const MAX_LOAD_SCALE: f64 = 1.5;

/// Shared-host load scale for entry `own` of `ratios` (candidate over
/// baseline, `None` for an unmatched entry): the least-inflated *other*
/// ratio, floored at 1 so a fast box never raises the bar and capped at
/// [`MAX_LOAD_SCALE`]. A lone entry gets no normalization (scale 1).
/// External load inflates every entry together, while a real regression
/// moves one entry relative to the others, so an entry is judged
/// against `scale × (1 + tolerance)`.
#[must_use]
pub fn load_scale(ratios: &[Option<f64>], own: usize) -> f64 {
    ratios
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != own)
        .filter_map(|(_, r)| *r)
        .min_by(f64::total_cmp)
        .map_or(1.0, |m| m.clamp(1.0, MAX_LOAD_SCALE))
}

/// Parses `--scale {tiny|quick|full}` from CLI args (default: quick).
///
/// # Panics
/// Panics with usage help on an unknown scale name.
#[must_use]
pub fn scale_from_args() -> ExperimentScale {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = "quick".to_string();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--scale" {
            scale = iter
                .next()
                .expect("--scale requires a value: tiny | quick | full")
                .clone();
        }
    }
    match scale.as_str() {
        "tiny" => ExperimentScale::tiny(),
        "quick" => ExperimentScale::quick(),
        "full" => ExperimentScale::full(),
        other => panic!("unknown scale {other:?}; use tiny | quick | full"),
    }
}

/// Parses `--threads N` from the CLI args and installs it as the
/// process-wide cohort thread count ([`ema_core::exec`]). Without the
/// flag the `EMA_THREADS` env knob (then available parallelism)
/// applies. Returns the effective count either way; results are
/// byte-identical at any value.
///
/// # Panics
/// Panics with usage help when the value is missing or not a positive
/// integer.
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--threads" {
            let raw = iter
                .next()
                .expect("--threads requires a positive integer value");
            let n: usize = raw
                .parse()
                .ok()
                .filter(|n| *n >= 1)
                .unwrap_or_else(|| panic!("--threads expects a positive integer, got {raw:?}"));
            ema_core::exec::set_global_threads(n);
            return n;
        }
    }
    ema_core::exec::default_threads()
}

/// Human-readable description of a scale, for run records.
#[must_use]
pub fn describe_scale(scale: &ExperimentScale) -> String {
    format!(
        "N={} V={} T̄={} epochs={} hidden={}",
        scale.num_individuals,
        scale.num_variables,
        scale.mean_time_points,
        scale.epochs,
        scale.hidden
    )
}

/// True when the CLI arguments carry the `--obs` flag, which forces
/// full-verbosity telemetry for this process (equivalent to
/// `EMA_OBS=full`).
#[must_use]
pub fn obs_flag_from_args() -> bool {
    std::env::args().any(|a| a == "--obs")
}

/// RAII handle for one binary's obs run manifest; finishes the run and
/// prints the summary path when dropped. Inert when obs is off.
pub struct ObsRun {
    active: bool,
}

impl ObsRun {
    /// Starts an obs run manifest named after the binary. `--obs` on
    /// the command line upgrades the mode to `full` (streamed JSONL);
    /// otherwise the `EMA_OBS` env knob applies (default `summary`,
    /// which still records a run summary). The run writes to
    /// `results/obs/<name>.jsonl` / `<name>.summary.json` at the
    /// workspace root.
    #[must_use]
    pub fn begin(name: &str, config: ema_obs::Json) -> Self {
        if obs_flag_from_args() {
            ema_obs::set_mode(ema_obs::ObsMode::Full);
        }
        let active = ema_obs::recorder().begin_run(name, config);
        Self { active }
    }

    /// Starts a run for a table/figure binary, recording its scale as
    /// the run config.
    #[must_use]
    pub fn for_scale(name: &str, scale: &ExperimentScale) -> Self {
        let config = ema_obs::Json::obj(vec![
            ("bin", ema_obs::Json::from(name)),
            (
                "num_individuals",
                ema_obs::Json::from(scale.num_individuals),
            ),
            ("num_variables", ema_obs::Json::from(scale.num_variables)),
            (
                "mean_time_points",
                ema_obs::Json::from(scale.mean_time_points),
            ),
            ("epochs", ema_obs::Json::from(scale.epochs)),
            ("hidden", ema_obs::Json::from(scale.hidden)),
        ]);
        Self::begin(name, config)
    }
}

impl Drop for ObsRun {
    fn drop(&mut self) {
        if self.active {
            if let Some(path) = ema_obs::recorder().finish_run() {
                println!("obs manifest at {}", path.display());
            }
        }
    }
}

/// Writes a JSON record under the workspace-root `results/<name>.json`
/// (created on demand), returning the path. Anchored at the workspace
/// root rather than the current directory because `cargo run` and
/// `cargo bench` start binaries in different directories. Failures are
/// reported but non-fatal — the table was already printed.
pub fn save_json(name: &str, json: &str) -> Option<PathBuf> {
    // crates/bench -> crates -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the workspace root");
    let dir = root.join("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results/: {e}");
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// The paper's reference values for Table II (Seq5 column), used by the
/// binaries to print side-by-side comparisons.
pub const PAPER_TABLE2_SEQ5: [(&str, f64); 13] = [
    ("Baseline LSTM", 1.022),
    ("A3TGCN_EUC", 1.034),
    ("ASTGCN_EUC", 0.885),
    ("MTGNN_EUC", 0.845),
    ("A3TGCN_DTW", 1.034),
    ("ASTGCN_DTW", 0.883),
    ("MTGNN_DTW", 0.846),
    ("A3TGCN_kNN", 1.035),
    ("ASTGCN_kNN", 0.893),
    ("MTGNN_kNN", 0.841),
    ("A3TGCN_CORR", 1.027),
    ("ASTGCN_CORR", 0.885),
    ("MTGNN_CORR", 0.840),
];

/// The paper's Table III reference values at GDT = 20% (Seq5).
pub const PAPER_TABLE3_GDT20: [(&str, f64); 15] = [
    ("A3TGCN_EUC", 1.034),
    ("ASTGCN_EUC", 0.885),
    ("MTGNN_EUC", 0.845),
    ("A3TGCN_DTW", 1.034),
    ("ASTGCN_DTW", 0.883),
    ("MTGNN_DTW", 0.846),
    ("A3TGCN_kNN", 1.035),
    ("ASTGCN_kNN", 0.893),
    ("MTGNN_kNN", 0.841),
    ("A3TGCN_CORR", 1.027),
    ("ASTGCN_CORR", 0.885),
    ("MTGNN_CORR", 0.840),
    ("A3TGCN_RAND", 1.032),
    ("ASTGCN_RAND", 1.059),
    ("MTGNN_RAND", 0.849),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_mentions_dimensions() {
        let s = ExperimentScale::full();
        let d = describe_scale(&s);
        assert!(d.contains("N=100"));
        assert!(d.contains("V=26"));
        assert!(d.contains("epochs=300"));
    }

    #[test]
    fn paper_references_have_expected_orderings() {
        // MTGNN < ASTGCN < LSTM in the paper for every metric.
        let get = |name: &str| {
            PAPER_TABLE2_SEQ5
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        for metric in ["EUC", "DTW", "kNN", "CORR"] {
            assert!(get(&format!("MTGNN_{metric}")) < get(&format!("ASTGCN_{metric}")));
            assert!(get(&format!("ASTGCN_{metric}")) < get("Baseline LSTM"));
        }
    }
}

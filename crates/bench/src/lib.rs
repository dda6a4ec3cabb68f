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
//! | `seq_sweep` | window lengths 1–10 (future work) | `cargo run --release -p ema-bench --bin seq_sweep -- --scale quick` |
//! | `per_variable` | per-variable MSE (future work) | `cargo run --release -p ema-bench --bin per_variable -- --scale quick` |
//! | `hyperparams` | Sec. V-D tuning grid | `cargo run --release -p ema-bench --bin hyperparams -- --scale quick` |
//! | `cluster_compare` | idiographic vs cluster vs nomothetic | `cargo run --release -p ema-bench --bin cluster_compare -- --scale quick` |
//!
//! `--scale` is `tiny` (seconds), `quick` (minutes, default) or `full`
//! (the paper's N=100/V=26/300-epoch setting; hours of CPU). Each binary
//! prints the regenerated artifact next to the paper's reference values
//! and writes a JSON record under `results/`; [`run_experiment`] is the
//! one runner they share.
//!
//! Every binary accepts exactly `--scale`, `--threads N` (the cohort
//! executor's worker count; default `EMA_THREADS`, then available
//! parallelism) and `--obs`, each at most once ([`Cli`]); anything else
//! exits with status 2 and a usage line. Results JSON is byte-identical
//! at every thread count; the flag only changes wall-clock time.

#![warn(missing_docs)]

pub mod alloc;
pub mod harness;
pub mod report;

pub use harness::{BenchResult, Bencher, Harness};

use ema_core::experiments::{ExperimentScale, Fig3Results};
use ema_core::{Executor, Json, ResultTable};
use std::io::Write;
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

/// Splits the arguments of `bench_gate` and `obs_report` into their
/// positional arguments and the regression tolerance, as a fraction:
/// `--tolerance PCT` (a finite, non-negative percentage, at most once),
/// else [`DEFAULT_TOLERANCE`].
///
/// # Errors
/// Names the offending argument: a tolerance that is missing, not a
/// number, negative, NaN or infinite, a repeated `--tolerance`, or any
/// other argument starting with `--`.
pub fn parse_tolerance_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<String>, f64), String> {
    let (mut positional, mut tolerance) = (Vec::new(), None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--tolerance" {
            let raw = args.next().ok_or("--tolerance needs a percentage")?;
            let pct = raw
                .parse::<f64>()
                .ok()
                .filter(|p| p.is_finite() && *p >= 0.0)
                .ok_or_else(|| {
                    format!("--tolerance expects a finite, non-negative percentage, got {raw:?}")
                })?;
            if tolerance.replace(pct / 100.0).is_some() {
                return Err("--tolerance given more than once".into());
            }
        } else if arg.starts_with("--") {
            return Err(format!("unknown argument {arg:?}"));
        } else {
            positional.push(arg);
        }
    }
    Ok((positional, tolerance.unwrap_or(DEFAULT_TOLERANCE)))
}

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

/// The flags every table/figure binary accepts, each at most once.
#[derive(Debug)]
pub struct Cli {
    /// `--scale tiny|quick|full` (default `quick`).
    scale: ExperimentScale,
    /// `--threads N` with `N ≥ 1`: the cohort executor's worker count
    /// (default: `EMA_THREADS`, then available parallelism).
    threads: Option<usize>,
    /// `--obs`: full-verbosity telemetry for this process (as
    /// `EMA_OBS=full`).
    pub obs: bool,
}

impl Cli {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    /// Names the offending argument: an unknown flag, a missing or
    /// invalid value, or a flag given twice.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut scale, mut threads, mut obs) = (None, None, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let repeated = match flag.as_str() {
                "--scale" => {
                    let value = match args.next().as_deref() {
                        Some("tiny") => ExperimentScale::tiny(),
                        Some("quick") => ExperimentScale::quick(),
                        Some("full") => ExperimentScale::full(),
                        Some(other) => {
                            return Err(format!("unknown scale {other:?}; use tiny | quick | full"))
                        }
                        None => return Err("--scale needs a value: tiny | quick | full".into()),
                    };
                    scale.replace(value).is_some()
                }
                "--threads" => {
                    let raw = args.next().ok_or("--threads needs a positive integer")?;
                    let n = raw.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--threads expects a positive integer, got {raw:?}")
                    })?;
                    threads.replace(n).is_some()
                }
                "--obs" => std::mem::replace(&mut obs, true),
                other => return Err(format!("unknown argument {other:?}")),
            };
            if repeated {
                return Err(format!("{flag} given more than once"));
            }
        }
        Ok(Self {
            scale: scale.unwrap_or_else(ExperimentScale::quick),
            threads,
            obs,
        })
    }

    /// Parses this process's arguments; on an error prints it and the
    /// usage line for binary `bin` to stderr and exits with status 2,
    /// before any work is done or any file is written.
    #[must_use]
    pub fn from_args(bin: &str) -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {bin} [--scale tiny|quick|full] [--threads N] [--obs]");
            std::process::exit(2)
        })
    }
}

/// A table or figure an experiment binary prints and records.
pub trait Artifact {
    /// The plain-text rendering printed after the run.
    fn render(&self) -> String;
    /// The JSON record written to `results/<name>.json`.
    fn to_json(&self) -> String;
}

impl Artifact for ResultTable {
    fn render(&self) -> String {
        ResultTable::render(self)
    }
    fn to_json(&self) -> String {
        ResultTable::to_json(self)
    }
}

impl Artifact for Fig3Results {
    fn render(&self) -> String {
        Fig3Results::render(self)
    }
    fn to_json(&self) -> String {
        Fig3Results::to_json(self)
    }
}

/// Runs one table/figure binary end to end: parses the flags
/// ([`Cli::from_args`]), builds the executor, opens the obs run
/// `name`, prints the header `title (scale, threads=N)`, runs
/// `experiment` in the `experiment` phase, then in the `report` phase
/// prints the artifact and the `elapsed:` line, calls `footer` (the
/// paper-reference lines), and writes `results/<name>.json`, recording
/// its path on the obs run.
pub fn run_experiment<T: Artifact>(
    name: &str,
    title: &str,
    experiment: impl FnOnce(&ExperimentScale, &Executor) -> T,
    footer: impl FnOnce(&T),
) {
    let cli = Cli::from_args(name);
    let executor = Executor::configured(cli.threads);
    let scale = &cli.scale;
    let config = Json::obj(vec![
        ("bin", Json::from(name)),
        ("num_individuals", Json::from(scale.num_individuals)),
        ("num_variables", Json::from(scale.num_variables)),
        ("mean_time_points", Json::from(scale.mean_time_points)),
        ("epochs", Json::from(scale.epochs)),
        ("hidden", Json::from(scale.hidden)),
    ]);
    let _obs = ObsRun::begin(name, config, cli.obs);
    println!(
        "{title} ({}, threads={})\n",
        describe_scale(scale),
        executor.threads()
    );
    let started = std::time::Instant::now();
    ema_obs::recorder().phase("experiment");
    let artifact = experiment(scale, &executor);
    ema_obs::recorder().phase("report");
    println!("{}", artifact.render());
    println!("elapsed: {:.1?}\n", started.elapsed());
    footer(&artifact);
    if let Some(path) = save_json(name, &artifact.to_json()) {
        println!("run recorded at {}", path.display());
        ema_obs::recorder().annotate("results_json", path.display().to_string().into());
    }
}

/// Human-readable description of a scale, for run records.
fn describe_scale(scale: &ExperimentScale) -> String {
    format!(
        "N={} V={} T̄={} epochs={} hidden={}",
        scale.num_individuals,
        scale.num_variables,
        scale.mean_time_points,
        scale.epochs,
        scale.hidden
    )
}

/// RAII handle for one binary's obs run manifest; finishes the run and
/// prints the summary path when dropped. Inert when obs is off.
pub struct ObsRun {
    active: bool,
}

impl ObsRun {
    /// Starts an obs run manifest named after the binary. `full` (the
    /// `--obs` flag) upgrades the mode to `full` (streamed JSONL);
    /// otherwise the `EMA_OBS` env knob applies (default `summary`,
    /// which still records a run summary). The run writes to
    /// `results/obs/<name>.jsonl` / `<name>.summary.json` at the
    /// workspace root.
    #[must_use]
    pub fn begin(name: &str, config: Json, full: bool) -> Self {
        if full {
            ema_obs::set_mode(ema_obs::ObsMode::Full);
        }
        let active = ema_obs::recorder().begin_run(name, config);
        Self { active }
    }
}

impl Drop for ObsRun {
    fn drop(&mut self) {
        if self.active {
            if let Some(path) = ema_obs::recorder().finish_run() {
                // Not `println!`: a closed stdout (output piped into
                // `head`) would panic here while the body's own print
                // panic unwinds, aborting the process.
                let _ = writeln!(std::io::stdout(), "obs manifest at {}", path.display());
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

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn cli_accepts_each_flag_once() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            describe_scale(&defaults.scale),
            describe_scale(&ExperimentScale::quick())
        );
        assert_eq!((defaults.threads, defaults.obs), (None, false));
        for (name, scale) in [
            ("tiny", ExperimentScale::tiny()),
            ("quick", ExperimentScale::quick()),
            ("full", ExperimentScale::full()),
        ] {
            let cli = parse(&["--scale", name]).unwrap();
            assert_eq!(describe_scale(&cli.scale), describe_scale(&scale));
        }
        assert_eq!(parse(&["--threads", "8"]).unwrap().threads, Some(8));
        assert!(parse(&["--obs"]).unwrap().obs);
        let all = parse(&["--threads", "1", "--obs", "--scale", "tiny"]).unwrap();
        assert_eq!((all.threads, all.obs), (Some(1), true));
        assert_eq!(
            all.scale.num_individuals,
            ExperimentScale::tiny().num_individuals
        );
    }

    #[test]
    fn cli_rejects_unknown_missing_invalid_and_repeated_flags() {
        let cases: [(&[&str], &str); 13] = [
            (&["--scal", "full"], r#"unknown argument "--scal""#),
            (&["--thread", "8"], r#"unknown argument "--thread""#),
            (&["--threads=8"], r#"unknown argument "--threads=8""#),
            (&["tiny"], r#"unknown argument "tiny""#),
            (&["--scale"], "--scale needs a value"),
            (&["--threads"], "--threads needs a positive integer"),
            (&["--scale", "bogus"], r#"unknown scale "bogus""#),
            (&["--threads", "0"], r#"got "0""#),
            (&["--threads", "abc"], r#"got "abc""#),
            (&["--threads", "-1"], r#"got "-1""#),
            (
                &["--scale", "tiny", "--scale", "full"],
                "--scale given more than once",
            ),
            (
                &["--threads", "2", "--threads", "2"],
                "--threads given more than once",
            ),
            (&["--obs", "--obs"], "--obs given more than once"),
        ];
        for (args, expected) in cases {
            let error = parse(args).unwrap_err();
            assert!(error.contains(expected), "{args:?}: {error}");
        }
    }

    fn tolerance_args(args: &[&str]) -> Result<(Vec<String>, f64), String> {
        parse_tolerance_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn tolerance_args_accept_one_finite_non_negative_percentage() {
        let (paths, tolerance) = tolerance_args(&["a.json", "b.json"]).unwrap();
        assert_eq!(
            (paths, tolerance),
            (vec!["a.json".into(), "b.json".into()], 0.15)
        );
        for (pct, fraction) in [("5", 0.05), ("0", 0.0), ("2.5", 0.025), ("300", 3.0)] {
            let (paths, tolerance) = tolerance_args(&["a", "--tolerance", pct, "b"]).unwrap();
            assert_eq!((paths.len(), tolerance), (2, fraction), "{pct}");
        }
    }

    #[test]
    fn tolerance_args_reject_non_finite_negative_repeated_and_unknown_flags() {
        let cases: [(&[&str], &str); 11] = [
            (&["a", "b", "--tolerance", "nan"], r#"got "nan""#),
            (&["a", "b", "--tolerance", "NaN"], r#"got "NaN""#),
            (&["a", "b", "--tolerance", "inf"], r#"got "inf""#),
            (&["a", "b", "--tolerance", "-inf"], r#"got "-inf""#),
            (&["a", "b", "--tolerance", "-50"], r#"got "-50""#),
            (&["a", "b", "--tolerance", "abc"], r#"got "abc""#),
            (&["a", "b", "--tolerance"], "--tolerance needs a percentage"),
            (
                &["--tolerance", "5", "a", "b", "--tolerance", "5"],
                "--tolerance given more than once",
            ),
            (
                &["a", "b", "--tolerence", "5"],
                r#"unknown argument "--tolerence""#,
            ),
            (
                &["a", "b", "--tolerance=5"],
                r#"unknown argument "--tolerance=5""#,
            ),
            (&["--help"], r#"unknown argument "--help""#),
        ];
        for (args, expected) in cases {
            let error = tolerance_args(args).unwrap_err();
            assert!(error.contains(expected), "{args:?}: {error}");
        }
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

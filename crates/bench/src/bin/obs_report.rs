//! `obs_report` — analyze obs run manifests.
//!
//! Usage:
//!   `obs_report <run>` — render one run's profile/kernel/utilization
//!     report; exits nonzero when the manifest has no span profile
//!     (the CI smoke uses this to catch a silently-dead profiler).
//!   `obs_report <base> <candidate> [--tolerance PCT]` — diff the two
//!     runs' span profiles and flag call paths whose self time moved
//!     more than PCT (default 15%) beyond the load-normalized scale.
//!
//! `PCT` is a finite, non-negative percentage, given at most once. Any
//! other argument list (no run or more than two, an unknown flag, a
//! NaN, infinite or negative tolerance) prints the usage line and exits
//! with status 2 before any file is read.
//!
//! A `<run>` argument may be a path to a `.summary.json` file, a path
//! without the suffix, or a bare run stem resolved under the default
//! obs directory (`results/obs/`).

use ema_bench::parse_tolerance_args;
use ema_bench::report::{render_diff, render_report, RunSummary};
use ema_obs::{default_obs_dir, Json};
use std::path::PathBuf;
use std::process::ExitCode;

/// Resolves a run argument to an existing `.summary.json` path.
fn resolve(arg: &str) -> Result<PathBuf, String> {
    let direct = PathBuf::from(arg);
    let candidates = [
        direct.clone(),
        PathBuf::from(format!("{arg}.summary.json")),
        default_obs_dir().join(format!("{arg}.summary.json")),
    ];
    for path in &candidates {
        if path.is_file() {
            return Ok(path.clone());
        }
    }
    Err(format!(
        "no summary manifest for '{arg}' (tried {})",
        candidates
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ))
}

fn load(arg: &str) -> Result<RunSummary, String> {
    let path = resolve(arg)?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("parse {}: {e:?}", path.display()))?;
    RunSummary::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Renders run `base`'s report, or its diff against `candidate`.
fn run(base: &str, candidate: Option<&str>, tolerance: f64) -> Result<ExitCode, String> {
    let base = load(base)?;
    match candidate {
        None => {
            print!("{}", render_report(&base));
            if base.profile.is_empty() {
                return Err(format!("run '{}' recorded no span profile", base.name));
            }
        }
        Some(candidate) => {
            let (text, _flagged) = render_diff(&base, &load(candidate)?, tolerance);
            print!("{text}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    const USAGE: &str = "usage: obs_report <run> [<candidate-run>] [--tolerance PCT]";
    let (runs, tolerance) = parse_tolerance_args(std::env::args().skip(1))
        .and_then(|(runs, tolerance)| match runs.len() {
            1 | 2 => Ok((runs, tolerance)),
            n => Err(format!("expected one or two runs, got {n}")),
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        });
    match run(&runs[0], runs.get(1).map(String::as_str), tolerance) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("obs_report: {msg}");
            ExitCode::FAILURE
        }
    }
}

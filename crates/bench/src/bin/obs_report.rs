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
//! A `<run>` argument may be a path to a `.summary.json` file, a path
//! without the suffix, or a bare run stem resolved under the default
//! obs directory (`results/obs/`).

use ema_bench::report::{render_diff, render_report, RunSummary};
use ema_bench::DEFAULT_TOLERANCE;
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

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut runs: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                let pct = args
                    .get(i + 1)
                    .ok_or("--tolerance needs a percentage")?
                    .parse::<f64>()
                    .map_err(|e| format!("--tolerance: {e}"))?;
                tolerance = pct / 100.0;
                i += 2;
            }
            arg if arg.starts_with("--") => return Err(format!("unknown flag {arg}")),
            arg => {
                runs.push(arg);
                i += 1;
            }
        }
    }
    match runs.as_slice() {
        [single] => {
            let summary = load(single)?;
            print!("{}", render_report(&summary));
            if summary.profile.is_empty() {
                return Err(format!("run '{}' recorded no span profile", summary.name));
            }
            Ok(ExitCode::SUCCESS)
        }
        [base, cand] => {
            let base = load(base)?;
            let cand = load(cand)?;
            let (text, _flagged) = render_diff(&base, &cand, tolerance);
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: obs_report <run> [<candidate-run>] [--tolerance PCT]".to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("obs_report: {msg}");
            ExitCode::FAILURE
        }
    }
}

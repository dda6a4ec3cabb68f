//! Performance regression gate over `Harness` suite JSON.
//!
//! Compares freshly recorded bench suites against committed baselines,
//! matching benchmarks by name and failing (exit code 1) when any
//! median slows down — or any `allocs_per_iter` or `peak_bytes`
//! figure grows — by more than the tolerance.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json> [<baseline2> <candidate2> ...] [--tolerance PCT]
//! ```
//!
//! Positional arguments are (baseline, candidate) pairs, so one
//! invocation can gate several suites (e.g. `BENCH_training_epoch.json`
//! and `BENCH_pipeline.json` cohort throughput). `PCT` is a finite,
//! non-negative percentage, given at most once. Any other argument
//! list (an odd path count, an unknown flag, a NaN, infinite or
//! negative tolerance) prints the usage line and exits with status 2
//! before any file is read.
//!
//! The default tolerance is **15%**: generous enough to absorb normal
//! scheduler and cache noise on a busy CI box (medians over a handful
//! of short samples routinely wobble several percent, and the CI run
//! uses fast settings — few samples, short sample windows — that widen
//! the spread further), yet tight enough that a real regression, like
//! an allocation sneaking back into the training hot loop, lands well
//! outside it. Allocation counts are near-deterministic, so the same
//! tolerance is conservative there. Speedups and new benchmarks pass;
//! a benchmark that *disappears* from the candidate fails the gate, so
//! coverage cannot silently shrink.
//!
//! ## Shared-host load normalization
//!
//! On a shared box, external load inflates **every** benchmark's
//! median together — often beyond any reasonable tolerance — while a
//! real code regression is *differential* (the touched path slows
//! down relative to the untouched ones). The timing gate therefore
//! scales each benchmark's allowance by the suite's **least-inflated
//! other benchmark** (leave-one-out minimum ratio, floored at 1 so a
//! fast box never raises the bar): if the calmest sibling ran 1.3×
//! its baseline, the whole run is presumed ≥1.3× loaded and each
//! bench may be up to `1.3 × (1 + tolerance)` over baseline
//! ([`load_scale`]). The scale is capped at
//! [`ema_bench::MAX_LOAD_SCALE`] so a uniform whole-suite regression
//! past the cap still fails, and the allocation gate is never
//! normalized — counts don't care about load.
//!
//! Each verdict line prints the fastest sample and the median absolute
//! deviation (MAD) beside the medians, baseline -> candidate, so a
//! reader can tell a shift from noise. They are shown, never gated;
//! suites recorded before the harness kept the MAD show `-` for it.

use ema_bench::{load_scale, parse_tolerance_args};
use ema_obs::Json;
use std::process::ExitCode;

/// Per-benchmark gated quantities: the timing median and the
/// allocation count (absent in pre-telemetry suite files), plus the
/// fastest sample and the MAD, which are printed but not gated.
struct Entry {
    name: String,
    median_ns: f64,
    min_ns: Option<f64>,
    mad_ns: Option<f64>,
    allocs_per_iter: Option<f64>,
    peak_bytes: Option<f64>,
}

fn entries(suite: &Json, path: &str) -> Vec<Entry> {
    let benches = suite
        .get("benchmarks")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{path}: no 'benchmarks' array"));
    benches
        .iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{path}: benchmark without a name"))
                .to_string();
            let median_ns = b
                .get("median_ns")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{path}: '{name}' has no median_ns"));
            let num = |key: &str| b.get(key).and_then(Json::as_f64);
            Entry {
                name,
                median_ns,
                min_ns: num("min_ns"),
                mad_ns: num("mad_ns"),
                allocs_per_iter: num("allocs_per_iter"),
                peak_bytes: num("peak_bytes"),
            }
        })
        .collect()
}

/// A nanosecond figure in milliseconds, `-` when the suite lacks it.
fn ms(ns: Option<f64>) -> String {
    ns.map_or_else(|| "-".to_string(), |ns| format!("{:.3} ms", ns / 1e6))
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e:?}"))
}

/// Gates one candidate suite against its baseline; returns the number
/// of failed benchmarks.
fn gate_suite(baseline_path: &str, candidate_path: &str, tolerance: f64) -> u32 {
    let baseline = entries(&load(baseline_path), baseline_path);
    let candidate = entries(&load(candidate_path), candidate_path);
    println!("-- {candidate_path} vs {baseline_path}");

    // Median ratios of every matched benchmark, in baseline order;
    // missing benchmarks fail below and are excluded here.
    let ratios: Vec<Option<f64>> = baseline
        .iter()
        .map(|base| {
            candidate
                .iter()
                .find(|c| c.name == base.name)
                .map(|c| c.median_ns / base.median_ns)
        })
        .collect();

    let mut failures = 0u32;
    for (i, (base, own_ratio)) in baseline.iter().zip(&ratios).enumerate() {
        let Some(cand) = candidate.iter().find(|c| c.name == base.name) else {
            eprintln!(
                "GATE FAIL {}: present in baseline, missing from candidate",
                base.name
            );
            failures += 1;
            continue;
        };
        let ratio = own_ratio.expect("matched benchmark has a ratio");
        // The least-inflated *other* benchmark bounds how much of this
        // one's slowdown can be blamed on shared-host load.
        let scale = load_scale(&ratios, i);
        let delta_pct = (ratio - 1.0) * 100.0;
        let verdict = if ratio > scale * (1.0 + tolerance) {
            failures += 1;
            "GATE FAIL"
        } else {
            "gate ok  "
        };
        let load_note = if scale > 1.0 {
            format!("  [load scale {scale:.2}]")
        } else {
            String::new()
        };
        println!(
            "{verdict} {}: {:.3} ms -> {:.3} ms ({delta_pct:+.1}%){load_note}  \
             [min {} -> {}, MAD {} -> {}]",
            base.name,
            base.median_ns / 1e6,
            cand.median_ns / 1e6,
            ms(base.min_ns),
            ms(cand.min_ns),
            ms(base.mad_ns),
            ms(cand.mad_ns),
        );
        // Allocation gate: counts are near-deterministic, so growth
        // beyond the tolerance means an allocation crept into a hot
        // loop even if the timing median absorbed it.
        if let (Some(base_allocs), Some(cand_allocs)) = (base.allocs_per_iter, cand.allocs_per_iter)
        {
            if base_allocs > 0.0 && cand_allocs > base_allocs * (1.0 + tolerance) {
                failures += 1;
                eprintln!(
                    "GATE FAIL {}: allocs/iter {} -> {} (+{:.1}%)",
                    base.name,
                    base_allocs,
                    cand_allocs,
                    (cand_allocs / base_allocs - 1.0) * 100.0
                );
            }
        }
        // Peak-heap gate: like allocation counts, the steady-state
        // high-water mark is near-deterministic and load-independent,
        // so it is never normalized. Growth beyond the tolerance means
        // a working-set regression (e.g. a shard holding more than one
        // cohort batch alive at a time).
        if let (Some(base_peak), Some(cand_peak)) = (base.peak_bytes, cand.peak_bytes) {
            if base_peak > 0.0 && cand_peak > base_peak * (1.0 + tolerance) {
                failures += 1;
                eprintln!(
                    "GATE FAIL {}: peak bytes {:.0} -> {:.0} (+{:.1}%)",
                    base.name,
                    base_peak,
                    cand_peak,
                    (cand_peak / base_peak - 1.0) * 100.0
                );
            }
        }
    }
    for cand in &candidate {
        if !baseline.iter().any(|b| b.name == cand.name) {
            println!("gate ok   {}: new benchmark (no baseline)", cand.name);
        }
    }
    failures
}

fn main() -> ExitCode {
    const USAGE: &str =
        "usage: bench_gate <baseline.json> <candidate.json> [<baseline2> <candidate2> ...] [--tolerance PCT]";
    let (paths, tolerance) = parse_tolerance_args(std::env::args().skip(1))
        .and_then(|(paths, tolerance)| {
            if paths.is_empty() || !paths.len().is_multiple_of(2) {
                return Err("expected (baseline, candidate) path pairs".to_string());
            }
            Ok((paths, tolerance))
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        });

    let mut failures = 0u32;
    for pair in paths.chunks(2) {
        failures += gate_suite(&pair[0], &pair[1], tolerance);
    }

    if failures > 0 {
        eprintln!(
            "bench gate: {failures} check(s) regressed beyond {:.0}% tolerance",
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench gate: all medians (load-normalized), allocation counts and peak bytes within {:.0}% of baseline",
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    }
}

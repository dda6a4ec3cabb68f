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
//! before any file is read. Every suite is read before any verdict is
//! printed: a suite that cannot be read or parsed, or that lacks its
//! `benchmarks` array or a benchmark's `name` or `median_ns`, prints
//! `error: <path>: <reason>` and exits with status 2.
//!
//! The default tolerance is **15%**: generous enough to absorb normal
//! scheduler and cache noise on a busy CI box (medians over the
//! harness's default 15 samples of about 20 ms still wobble several
//! percent), yet tight enough that a real regression, like an
//! allocation sneaking back into the training hot loop, lands well
//! outside it. Allocation counts are near-deterministic, so the same
//! tolerance is conservative there; from a zero baseline any growth
//! fails. Speedups and new benchmarks pass; a benchmark that
//! *disappears* from the candidate fails the gate, so coverage cannot
//! silently shrink.
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

/// The entries of a parsed suite.
///
/// # Errors
/// Names what is missing: the `benchmarks` array, or a benchmark's
/// `name` or `median_ns`.
fn entries(suite: &Json) -> Result<Vec<Entry>, String> {
    let benches = suite
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("no 'benchmarks' array")?;
    benches
        .iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(Json::as_str)
                .ok_or("benchmark without a name")?
                .to_string();
            let median_ns = b
                .get("median_ns")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("'{name}' has no median_ns"))?;
            let num = |key: &str| b.get(key).and_then(Json::as_f64);
            Ok(Entry {
                name,
                median_ns,
                min_ns: num("min_ns"),
                mad_ns: num("mad_ns"),
                allocs_per_iter: num("allocs_per_iter"),
                peak_bytes: num("peak_bytes"),
            })
        })
        .collect()
}

/// A nanosecond figure in milliseconds, `-` when the suite lacks it.
fn ms(ns: Option<f64>) -> String {
    ns.map_or_else(|| "-".to_string(), |ns| format!("{:.3} ms", ns / 1e6))
}

/// The growth of `cand` over `base` as `+x.x%`; from a zero baseline,
/// where a percentage means nothing, `from zero`.
fn growth(base: f64, cand: f64) -> String {
    if base > 0.0 {
        format!("+{:.1}%", (cand / base - 1.0) * 100.0)
    } else {
        "from zero".to_string()
    }
}

/// Reads the suite at `path`.
///
/// # Errors
/// `<path>: <reason>` when the file cannot be read or parsed, or lacks
/// what [`entries`] needs.
fn load(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let suite = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    entries(&suite).map_err(|e| format!("{path}: {e}"))
}

/// Gates one candidate suite against its baseline; returns the number
/// of failed benchmarks.
fn gate_suite(
    (baseline_path, baseline): (&str, &[Entry]),
    (candidate_path, candidate): (&str, &[Entry]),
    tolerance: f64,
) -> u32 {
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
        // loop even if the timing median absorbed it. From a zero
        // baseline any growth fails.
        if let (Some(base_allocs), Some(cand_allocs)) = (base.allocs_per_iter, cand.allocs_per_iter)
        {
            if cand_allocs > base_allocs * (1.0 + tolerance) {
                failures += 1;
                eprintln!(
                    "GATE FAIL {}: allocs/iter {} -> {} ({})",
                    base.name,
                    base_allocs,
                    cand_allocs,
                    growth(base_allocs, cand_allocs)
                );
            }
        }
        // Peak-heap gate: like allocation counts, the steady-state
        // high-water mark is near-deterministic and load-independent,
        // so it is never normalized. Growth beyond the tolerance means
        // a working-set regression (e.g. a shard holding more than one
        // cohort batch alive at a time); from a zero baseline, any
        // growth.
        if let (Some(base_peak), Some(cand_peak)) = (base.peak_bytes, cand.peak_bytes) {
            if cand_peak > base_peak * (1.0 + tolerance) {
                failures += 1;
                eprintln!(
                    "GATE FAIL {}: peak bytes {:.0} -> {:.0} ({})",
                    base.name,
                    base_peak,
                    cand_peak,
                    growth(base_peak, cand_peak)
                );
            }
        }
    }
    for cand in candidate {
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

    // Read every suite before printing any verdict, so a bad file
    // stops the gate with nothing half reported.
    let suites: Vec<Vec<Entry>> = paths
        .iter()
        .map(|path| load(path))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
    let mut failures = 0u32;
    for (pair, suite) in paths.chunks(2).zip(suites.chunks(2)) {
        failures += gate_suite((&pair[0], &suite[0]), (&pair[1], &suite[1]), tolerance);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(suite: &str) -> Result<Vec<Entry>, String> {
        entries(&Json::parse(suite).unwrap())
    }

    #[test]
    fn entries_read_every_benchmark() {
        let suite = r#"{"benchmarks": [
            {"name": "a", "median_ns": 10, "allocs_per_iter": 3},
            {"name": "b", "median_ns": 20, "min_ns": 18, "mad_ns": 1, "peak_bytes": 64}
        ]}"#;
        let entries = parse(suite).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            (entries[0].name.as_str(), entries[0].median_ns),
            ("a", 10.0)
        );
        assert_eq!(entries[0].allocs_per_iter, Some(3.0));
        assert_eq!(entries[0].min_ns, None);
        assert_eq!(
            (entries[1].min_ns, entries[1].mad_ns),
            (Some(18.0), Some(1.0))
        );
        assert_eq!(entries[1].peak_bytes, Some(64.0));
    }

    #[test]
    fn entries_name_what_a_malformed_suite_lacks() {
        let cases = [
            (r#"{"suite": "x"}"#, "no 'benchmarks' array"),
            (
                r#"{"benchmarks": [{"median_ns": 10}]}"#,
                "benchmark without a name",
            ),
            (
                r#"{"benchmarks": [{"name": "a", "median_ns": 1}, {"name": "b"}]}"#,
                "'b' has no median_ns",
            ),
        ];
        for (suite, expected) in cases {
            assert_eq!(parse(suite).err().as_deref(), Some(expected), "{suite}");
        }
    }

    #[test]
    fn growth_from_a_zero_baseline_fails() {
        let entry = |allocs: f64, peak: f64| Entry {
            name: "a".to_string(),
            median_ns: 10.0,
            min_ns: None,
            mad_ns: None,
            allocs_per_iter: Some(allocs),
            peak_bytes: Some(peak),
        };
        let gate =
            |base: Entry, cand: Entry| gate_suite(("base", &[base]), ("cand", &[cand]), 0.15);
        assert_eq!(gate(entry(0.0, 0.0), entry(0.0, 0.0)), 0, "0 -> 0 passes");
        assert_eq!(gate(entry(0.0, 0.0), entry(5.0, 0.0)), 1, "allocs 0 -> 5");
        assert_eq!(gate(entry(0.0, 0.0), entry(0.0, 5.0)), 1, "peak 0 -> 5");
    }

    #[test]
    fn load_prefixes_the_path() {
        let error = load("no/such/suite.json").err().expect("missing file");
        assert!(error.starts_with("no/such/suite.json: "), "{error}");
    }
}

//! Analysis of obs run manifests: the logic behind the `obs_report`
//! binary.
//!
//! A [`RunSummary`] is the parsed form of one `<run>.summary.json`
//! manifest (see `ema_obs::manifest`). [`render_report`] turns it into
//! the human-readable profile/kernel/utilization report; [`diff_profiles`]
//! compares two runs' span profiles path by path and flags self-time
//! regressions using the same leave-one-out load normalization as the
//! `bench_gate` binary — shared-host load inflates every path together,
//! a real regression moves one path relative to the others.
//!
//! Everything here is pure (JSON in, text out) so the report formats
//! and the diff flagging are unit-testable without running experiments.

use ema_obs::{Histogram, Json, Profile, ProfileNode};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Self-time floor for diffing: paths whose baseline self time is below
/// this are too noisy to flag (a few scheduler ticks flip their ratio).
pub const DEFAULT_MIN_DIFF_SELF_NS: u64 = 100_000;

/// Diff tolerance as a fraction: flag paths >15% over their
/// load-normalized baseline (`bench_gate`'s default).
pub const DEFAULT_DIFF_TOLERANCE: f64 = 0.15;

/// Upper bound on the diff's load-normalization scale, mirroring
/// `bench_gate`: a uniform slowdown beyond this still gets flagged.
const MAX_LOAD_SCALE: f64 = 1.5;

/// One run's parsed summary manifest.
pub struct RunSummary {
    /// The run name (`run` field; file stems may carry a `.N` suffix).
    pub name: String,
    /// Obs mode the run was recorded under.
    pub mode: String,
    /// Total run wall time in nanoseconds.
    pub wall_ns: u64,
    /// `(title, wall_ns)` per phase, in run order.
    pub phases: Vec<(String, u64)>,
    /// Metrics counters (kernel work, pool hits, worker utilization).
    pub counters: BTreeMap<String, u64>,
    /// Metrics gauges (`tape_nodes`, bench medians).
    pub gauges: BTreeMap<String, f64>,
    /// Metrics histograms that parse back (job latency, losses).
    pub histograms: BTreeMap<String, Histogram>,
    /// The aggregated span profile.
    pub profile: Profile,
}

impl RunSummary {
    /// Parses a summary manifest. Only `run` and `wall_ns` are hard
    /// requirements; everything else degrades to empty so a report can
    /// still render for partial manifests.
    pub fn from_json(j: &Json) -> Result<RunSummary, String> {
        let name = j
            .get("run")
            .and_then(Json::as_str)
            .ok_or("summary has no 'run' field — is this a run summary manifest?")?
            .to_string();
        let mode = j.get("mode").and_then(Json::as_str).unwrap_or("summary").to_string();
        let wall_ns =
            j.get("wall_ns").and_then(Json::as_usize).ok_or("summary has no 'wall_ns'")? as u64;
        let phases = j
            .get("phases")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|p| {
                        Some((
                            p.get("title")?.as_str()?.to_string(),
                            p.get("wall_ns")?.as_usize()? as u64,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let metrics = j.get("metrics");
        let counters = metrics
            .and_then(|m| m.get("counters"))
            .map(|c| match c {
                Json::Obj(pairs) => pairs
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_usize()? as u64)))
                    .collect(),
                _ => BTreeMap::new(),
            })
            .unwrap_or_default();
        let gauges = metrics
            .and_then(|m| m.get("gauges"))
            .map(|g| match g {
                Json::Obj(pairs) => {
                    pairs.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
                }
                _ => BTreeMap::new(),
            })
            .unwrap_or_default();
        let histograms = metrics
            .and_then(|m| m.get("histograms"))
            .map(|h| match h {
                Json::Obj(pairs) => pairs
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), Histogram::from_json(v)?)))
                    .collect(),
                _ => BTreeMap::new(),
            })
            .unwrap_or_default();
        let profile = j.get("profile").and_then(Profile::from_json).unwrap_or_default();
        Ok(RunSummary { name, mode, wall_ns, phases, counters, gauges, histograms, profile })
    }
}

/// Formats nanoseconds with a unit that keeps 3-4 significant digits.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders the span profile as an indented tree, children sorted by
/// total time descending, with calls/total/self/min/max columns.
fn render_profile(out: &mut String, profile: &Profile, wall_ns: u64) {
    let coverage = if wall_ns > 0 {
        100.0 * profile.total_root_ns() as f64 / wall_ns as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "span profile — root coverage {coverage:.1}% of wall \
         (can exceed 100% when worker threads overlap)"
    );
    let _ = writeln!(
        out,
        "  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  path",
        "calls", "total", "self", "min", "max"
    );
    fn walk(out: &mut String, name: &str, node: &ProfileNode, depth: usize) {
        let _ = writeln!(
            out,
            "  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {}{}",
            node.count(),
            fmt_ns(node.total_ns()),
            fmt_ns(node.self_ns()),
            fmt_ns(node.min_ns()),
            fmt_ns(node.max_ns()),
            "  ".repeat(depth),
            name
        );
        let mut children: Vec<(&str, &ProfileNode)> = node.children().collect();
        children.sort_by(|a, b| b.1.total_ns().cmp(&a.1.total_ns()).then(a.0.cmp(b.0)));
        for (child_name, child) in children {
            walk(out, child_name, child, depth + 1);
        }
    }
    let mut roots: Vec<(&str, &ProfileNode)> = profile.roots().collect();
    roots.sort_by(|a, b| b.1.total_ns().cmp(&a.1.total_ns()).then(a.0.cmp(b.0)));
    for (name, root) in roots {
        walk(out, name, root, 0);
    }
}

/// One row of the kernel work table: `kernel.<phase>.<backend>.*`
/// counters joined with the phase's wall time.
struct KernelRow {
    phase: String,
    backend: String,
    calls: u64,
    flops: u64,
    bytes: u64,
}

/// Collects `kernel.<phase>.<backend>.{calls,flops,bytes}` counters
/// into rows (phase titles may themselves contain dots — the backend
/// and kind are the *last two* dot-separated segments).
fn kernel_rows(counters: &BTreeMap<String, u64>) -> Vec<KernelRow> {
    let mut rows: BTreeMap<(String, String), KernelRow> = BTreeMap::new();
    for (key, &value) in counters {
        let Some(rest) = key.strip_prefix("kernel.") else { continue };
        let Some((rest, kind)) = rest.rsplit_once('.') else { continue };
        let Some((phase, backend)) = rest.rsplit_once('.') else { continue };
        if !matches!(backend, "scalar" | "simd") {
            continue;
        }
        let row = rows.entry((phase.to_string(), backend.to_string())).or_insert_with(|| {
            KernelRow {
                phase: phase.to_string(),
                backend: backend.to_string(),
                calls: 0,
                flops: 0,
                bytes: 0,
            }
        });
        match kind {
            "calls" => row.calls = value,
            "flops" => row.flops = value,
            "bytes" => row.bytes = value,
            _ => {}
        }
    }
    rows.into_values().collect()
}

/// Renders the kernel work table: achieved GFLOP/s relates each phase's
/// FLOPs to that phase's wall time (the run wall when the phase is the
/// synthetic `run` bucket), so overlapping workers show up as > 1-core
/// throughput.
fn render_kernel_table(out: &mut String, s: &RunSummary) {
    let rows = kernel_rows(&s.counters);
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(out, "kernel work (matmul funnel)");
    let _ = writeln!(
        out,
        "  {:<14} {:<7} {:>12} {:>10} {:>10} {:>10}",
        "phase", "backend", "calls", "gflop", "gflop/s", "gbytes"
    );
    for row in rows {
        let phase_wall = s
            .phases
            .iter()
            .find(|(title, _)| *title == row.phase)
            .map_or(s.wall_ns, |&(_, wall)| wall);
        let gflops = row.flops as f64 / 1e9;
        let rate = if phase_wall > 0 {
            // flop/ns ≡ GFLOP/s: the 1e9s cancel.
            row.flops as f64 / phase_wall as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:<14} {:<7} {:>12} {:>10.3} {:>10.2} {:>10.3}",
            row.phase,
            row.backend,
            row.calls,
            gflops,
            rate,
            row.bytes as f64 / 1e9
        );
    }
    let (hits, misses) = (s.counters.get("pool_hits"), s.counters.get("pool_misses"));
    if let (Some(&hits), Some(&misses)) = (hits, misses) {
        let total = hits + misses;
        let rate = if total > 0 { 100.0 * hits as f64 / total as f64 } else { 0.0 };
        let _ = writeln!(out, "  pool: {hits} hits / {misses} misses ({rate:.1}% hit rate)");
    }
    let cluster = (
        s.counters.get("cluster.cache_hits"),
        s.counters.get("cluster.cache_misses"),
    );
    if let (Some(&hits), Some(&misses)) = cluster {
        let total = hits + misses;
        let rate = if total > 0 { 100.0 * hits as f64 / total as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "  cluster cache: {hits} hits / {misses} misses ({rate:.1}% hit rate; \
             misses = cluster trainings, hits = warm starts)"
        );
    }
    if let Some(&nodes) = s.gauges.get("tape_nodes") {
        let _ = writeln!(out, "  tape: {nodes:.0} nodes per epoch graph");
    }
}

/// Renders per-worker utilization (busy fraction of each worker's run
/// loop) plus job-latency quantiles from the `exec.job_latency_ns`
/// histogram.
fn render_workers(out: &mut String, s: &RunSummary) {
    let mut workers: BTreeMap<usize, (u64, u64, u64)> = BTreeMap::new();
    for (key, &value) in &s.counters {
        let Some(rest) = key.strip_prefix("exec.worker_") else { continue };
        let Some((kind, worker)) = rest.split_once('.') else { continue };
        let Ok(worker) = worker.parse::<usize>() else { continue };
        let entry = workers.entry(worker).or_insert((0, 0, 0));
        match kind {
            "busy_ns" => entry.0 = value,
            "wait_ns" => entry.1 = value,
            "jobs" => entry.2 = value,
            _ => {}
        }
    }
    if workers.is_empty() {
        return;
    }
    let _ = writeln!(out, "executor utilization");
    let _ = writeln!(
        out,
        "  {:>6} {:>8} {:>12} {:>12} {:>8}",
        "worker", "jobs", "busy", "wait", "busy%"
    );
    for (worker, (busy, wait, jobs)) in &workers {
        let loop_ns = busy + wait;
        let pct = if loop_ns > 0 { 100.0 * *busy as f64 / loop_ns as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "  {:>6} {:>8} {:>12} {:>12} {:>7.1}%",
            worker,
            jobs,
            fmt_ns(*busy),
            fmt_ns(*wait),
            pct
        );
    }
    // Shard balance for sharded cohort runs: each shard is one job, so
    // the per-worker `jobs` column above is the balance; this line adds
    // the stream totals (how many shards, how many individuals, how
    // full the average shard was).
    if let (Some(&shards), Some(&individuals)) =
        (s.counters.get("exec.shard_batches"), s.counters.get("exec.shard_individuals"))
    {
        let avg = if shards > 0 { individuals as f64 / shards as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "  shards: {shards} batches, {individuals} individuals (avg {avg:.1}/shard)"
        );
    }
    if let Some(h) = s.histograms.get("exec.job_latency_ns") {
        if let (Some(p50), Some(p99)) = (h.quantile(0.50), h.quantile(0.99)) {
            let _ = writeln!(
                out,
                "  job latency: p50 ≈ {}, p99 ≈ {} over {} jobs (bucket estimates)",
                fmt_ns(p50 as u64),
                fmt_ns(p99 as u64),
                h.total()
            );
        }
    }
}

/// Renders the full single-run report.
#[must_use]
pub fn render_report(s: &RunSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "run '{}' (mode {}), wall {}", s.name, s.mode, fmt_ns(s.wall_ns));
    if !s.phases.is_empty() {
        let phases: Vec<String> =
            s.phases.iter().map(|(title, wall)| format!("{title} {}", fmt_ns(*wall))).collect();
        let _ = writeln!(out, "phases: {}", phases.join(", "));
    }
    let _ = writeln!(out);
    if s.profile.is_empty() {
        let _ = writeln!(out, "span profile: EMPTY — no spans closed during this run");
    } else {
        render_profile(&mut out, &s.profile, s.wall_ns);
    }
    let _ = writeln!(out);
    render_kernel_table(&mut out, s);
    render_workers(&mut out, s);
    out
}

/// One path's before/after self time in a two-run diff.
pub struct DiffLine {
    /// The `;`-joined call path.
    pub path: String,
    /// Baseline self nanoseconds.
    pub base_self_ns: u64,
    /// Candidate self nanoseconds.
    pub cand_self_ns: u64,
    /// Candidate / baseline self-time ratio.
    pub ratio: f64,
    /// True when the path slowed beyond the load-normalized tolerance.
    pub flagged: bool,
}

/// Diffs two runs' span profiles by call path (self time only — total
/// time double-counts a regression in every ancestor). Paths below
/// `min_self_ns` in the baseline are skipped as noise; the remaining
/// ratios are load-normalized by the **least-inflated sibling path**
/// (leave-one-out minimum ratio, clamped to `[1, 1.5]` like
/// `bench_gate`), and a path is flagged when it still sits more than
/// `tolerance` above that scale. Returned sorted by ratio descending.
#[must_use]
pub fn diff_profiles(
    base: &Profile,
    cand: &Profile,
    min_self_ns: u64,
    tolerance: f64,
) -> Vec<DiffLine> {
    let base_flat: BTreeMap<String, u64> =
        base.flatten().into_iter().map(|(path, node)| (path, node.self_ns())).collect();
    let cand_flat: BTreeMap<String, u64> =
        cand.flatten().into_iter().map(|(path, node)| (path, node.self_ns())).collect();
    let matched: Vec<(String, u64, u64)> = base_flat
        .iter()
        .filter(|(_, &self_ns)| self_ns >= min_self_ns)
        .filter_map(|(path, &b)| Some((path.clone(), b, *cand_flat.get(path)?)))
        .collect();
    let ratios: Vec<f64> = matched.iter().map(|(_, b, c)| *c as f64 / *b as f64).collect();
    let mut lines: Vec<DiffLine> = matched
        .into_iter()
        .zip(&ratios)
        .enumerate()
        .map(|(i, ((path, base_self_ns, cand_self_ns), &ratio))| {
            let scale = ratios
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &r)| r)
                .min_by(f64::total_cmp)
                .map_or(1.0, |m| m.clamp(1.0, MAX_LOAD_SCALE));
            DiffLine {
                path,
                base_self_ns,
                cand_self_ns,
                ratio,
                flagged: ratio > scale * (1.0 + tolerance),
            }
        })
        .collect();
    lines.sort_by(|a, b| b.ratio.total_cmp(&a.ratio).then(a.path.cmp(&b.path)));
    lines
}

/// Renders a two-run diff; returns the text and the flagged-path count.
#[must_use]
pub fn render_diff(base: &RunSummary, cand: &RunSummary, tolerance: f64) -> (String, usize) {
    let lines = diff_profiles(&base.profile, &cand.profile, DEFAULT_MIN_DIFF_SELF_NS, tolerance);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile diff: '{}' ({}) -> '{}' ({}), paths with self ≥ {}",
        base.name,
        fmt_ns(base.wall_ns),
        cand.name,
        fmt_ns(cand.wall_ns),
        fmt_ns(DEFAULT_MIN_DIFF_SELF_NS)
    );
    if lines.is_empty() {
        let _ = writeln!(out, "no call paths above the self-time floor in both runs");
        return (out, 0);
    }
    let _ = writeln!(
        out,
        "  {:<9} {:>10} {:>10} {:>8}  path",
        "", "base self", "cand self", "ratio"
    );
    let mut flagged = 0usize;
    for line in &lines {
        let marker = if line.flagged {
            flagged += 1;
            "SLOWER >"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {:<9} {:>10} {:>10} {:>7.2}x  {}",
            marker,
            fmt_ns(line.base_self_ns),
            fmt_ns(line.cand_self_ns),
            line.ratio,
            line.path
        );
    }
    let _ = writeln!(
        out,
        "{} path(s) beyond the load-normalized {:.0}% tolerance",
        flagged,
        tolerance * 100.0
    );
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_from(paths: &[(&str, u64)]) -> Profile {
        // Build via the JSON form so tests stay decoupled from how
        // records accumulate: each (path, self_ns) becomes a chain of
        // single-child nodes whose leaf holds the time.
        let mut p = Profile::new();
        for (path, self_ns) in paths {
            let parts: Vec<String> = path.split(';').map(str::to_string).collect();
            for depth in 1..=parts.len() {
                // Give every prefix a call so intermediate nodes exist;
                // only the leaf carries the marked duration.
                let dur = if depth == parts.len() { *self_ns } else { 0 };
                p.record(&parts[..depth], dur);
            }
        }
        p
    }

    fn summary_with_profile(name: &str, profile: Profile) -> RunSummary {
        RunSummary {
            name: name.to_string(),
            mode: "summary".to_string(),
            wall_ns: 1_000_000_000,
            phases: vec![("train".to_string(), 800_000_000)],
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            profile,
        }
    }

    #[test]
    fn parses_a_manifest_and_renders_every_section() {
        let manifest = Json::obj(vec![
            ("run", Json::from("probe")),
            ("mode", Json::from("full")),
            ("wall_ns", Json::from(2_000_000_000u64)),
            (
                "phases",
                Json::Arr(vec![Json::obj(vec![
                    ("title", Json::from("train")),
                    ("start_ns", Json::from(0u64)),
                    ("wall_ns", Json::from(1_500_000_000u64)),
                ])]),
            ),
            (
                "metrics",
                Json::obj(vec![
                    (
                        "counters",
                        Json::obj(vec![
                            ("kernel.train.simd.calls", Json::from(100u64)),
                            ("kernel.train.simd.flops", Json::from(3_000_000_000u64)),
                            ("kernel.train.simd.bytes", Json::from(400_000_000u64)),
                            ("exec.worker_busy_ns.0", Json::from(900_000_000u64)),
                            ("exec.worker_wait_ns.0", Json::from(100_000_000u64)),
                            ("exec.worker_jobs.0", Json::from(4u64)),
                            ("exec.shard_batches", Json::from(4u64)),
                            ("exec.shard_individuals", Json::from(10u64)),
                            ("pool_hits", Json::from(90u64)),
                            ("pool_misses", Json::from(10u64)),
                            ("cluster.cache_hits", Json::from(8u64)),
                            ("cluster.cache_misses", Json::from(2u64)),
                        ]),
                    ),
                    ("gauges", Json::obj(vec![("tape_nodes", Json::Num(1234.0))])),
                    (
                        "histograms",
                        Json::obj(vec![(
                            "exec.job_latency_ns",
                            Json::obj(vec![
                                ("bounds", Json::Arr(vec![Json::Num(1e6), Json::Num(1e9)])),
                                (
                                    "counts",
                                    Json::Arr(vec![
                                        Json::from(0u64),
                                        Json::from(4u64),
                                        Json::from(0u64),
                                    ]),
                                ),
                                ("total", Json::from(4u64)),
                                ("sum", Json::Num(2e9)),
                                ("min", Json::Num(4e8)),
                                ("max", Json::Num(6e8)),
                            ]),
                        )]),
                    ),
                ]),
            ),
            (
                "profile",
                profile_from(&[("main;train", 1_400_000_000), ("main", 500_000_000)]).to_json(),
            ),
        ]);
        let s = RunSummary::from_json(&manifest).expect("parses");
        assert_eq!(s.name, "probe");
        assert_eq!(s.phases, vec![("train".to_string(), 1_500_000_000)]);
        assert!(!s.profile.is_empty());
        let report = render_report(&s);
        // Profile tree with both paths.
        assert!(report.contains("span profile"), "{report}");
        assert!(report.contains("main"), "{report}");
        assert!(report.contains("train"), "{report}");
        // Kernel table: 3 GFLOP over the 1.5 s train phase = 2 GFLOP/s.
        assert!(report.contains("simd"), "{report}");
        assert!(report.contains("2.00"), "{report}");
        // Pool, tape, worker and latency sections all render.
        assert!(report.contains("90.0% hit rate"), "{report}");
        assert!(
            report.contains("cluster cache: 8 hits / 2 misses (80.0% hit rate"),
            "{report}"
        );
        assert!(report.contains("1234 nodes"), "{report}");
        assert!(report.contains("90.0%"), "{report}");
        assert!(report.contains("shards: 4 batches, 10 individuals (avg 2.5/shard)"), "{report}");
        assert!(report.contains("p50"), "{report}");
    }

    #[test]
    fn report_marks_an_empty_profile() {
        let s = summary_with_profile("empty", Profile::new());
        assert!(render_report(&s).contains("EMPTY"));
    }

    #[test]
    fn diff_flags_the_artificially_slowed_path_only() {
        // Baseline: three paths of comparable weight. Candidate: one
        // path 2x slower, the others unchanged — the classic "this
        // change regressed one phase" fixture.
        let base = profile_from(&[
            ("run;train", 10_000_000),
            ("run;evaluate", 5_000_000),
            ("run;build_graph", 2_000_000),
        ]);
        let cand = profile_from(&[
            ("run;train", 20_000_000),
            ("run;evaluate", 5_000_000),
            ("run;build_graph", 2_000_000),
        ]);
        let lines = diff_profiles(&base, &cand, 1_000_000, 0.15);
        let flagged: Vec<&str> =
            lines.iter().filter(|l| l.flagged).map(|l| l.path.as_str()).collect();
        assert_eq!(flagged, vec!["run;train"]);
        // Sorted by ratio descending: the slowed path leads.
        assert_eq!(lines[0].path, "run;train");
        assert!((lines[0].ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diff_load_normalization_absorbs_uniform_slowdowns() {
        let base = profile_from(&[
            ("run;train", 10_000_000),
            ("run;evaluate", 5_000_000),
            ("run;build_graph", 2_000_000),
        ]);
        // Everything 1.3x slower: shared-host load, not a regression.
        let cand = profile_from(&[
            ("run;train", 13_000_000),
            ("run;evaluate", 6_500_000),
            ("run;build_graph", 2_600_000),
        ]);
        let lines = diff_profiles(&base, &cand, 1_000_000, 0.15);
        assert!(lines.iter().all(|l| !l.flagged), "uniform load must not flag");
        // But a uniform slowdown past the scale cap still fails.
        let cand = profile_from(&[
            ("run;train", 20_000_000),
            ("run;evaluate", 10_000_000),
            ("run;build_graph", 4_000_000),
        ]);
        let lines = diff_profiles(&base, &cand, 1_000_000, 0.15);
        assert!(lines.iter().all(|l| l.flagged), "2x everywhere exceeds the 1.5x cap");
    }

    #[test]
    fn diff_skips_paths_below_the_self_floor_and_unmatched_paths() {
        let base = profile_from(&[("run;tiny", 10), ("run;gone", 5_000_000), ("run;kept", 5_000_000)]);
        let cand = profile_from(&[("run;tiny", 10_000), ("run;kept", 5_000_000)]);
        let lines = diff_profiles(&base, &cand, 1_000_000, 0.15);
        let paths: Vec<&str> = lines.iter().map(|l| l.path.as_str()).collect();
        assert_eq!(paths, vec!["run;kept"], "tiny (below floor) and gone (unmatched) drop");
    }

    #[test]
    fn render_diff_counts_flags() {
        let base = summary_with_profile(
            "base",
            profile_from(&[("run;a", 10_000_000), ("run;b", 10_000_000)]),
        );
        let cand = summary_with_profile(
            "cand",
            profile_from(&[("run;a", 30_000_000), ("run;b", 10_000_000)]),
        );
        let (text, flagged) = render_diff(&base, &cand, DEFAULT_DIFF_TOLERANCE);
        assert_eq!(flagged, 1);
        assert!(text.contains("SLOWER"), "{text}");
        assert!(text.contains("run;a"), "{text}");
    }

    #[test]
    fn kernel_rows_parse_phases_containing_dots() {
        let mut counters = BTreeMap::new();
        counters.insert("kernel.phase.v2.scalar.calls".to_string(), 7u64);
        counters.insert("kernel.phase.v2.scalar.flops".to_string(), 42u64);
        let rows = kernel_rows(&counters);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].phase, "phase.v2");
        assert_eq!(rows[0].backend, "scalar");
        assert_eq!(rows[0].calls, 7);
        assert_eq!(rows[0].flops, 42);
    }
}

//! The two kinds of run: the measured run (`--trace 0`, end-to-end
//! metrics, telemetry off) and the traced run (`--trace 1`, per-layer
//! metrics).

use crate::probe::{epoch_probe, peak_matmul_gflops, PEAK_MATMUL_N};
use crate::replay::{self, same_bits, Outcome, LAYERS};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, ratio, relative_spread};
use crate::trace::{Tag, Trace, JOB};
use crate::workload::{Instance, Workload};
use ema_bench::alloc;
use ema_core::{Executor, IndividualOutcome};
use ema_obs::{Json, ObsMode};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How often a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Usage line for the command-line contract.
pub const USAGE: &str =
    "usage: ema-perfbench --workload <paper_cell|stream_graph|stream_warmstart> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured run times passes.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the measured run.
    pub trace: bool,
    /// Shrink every input to a few individuals (the crate's tests).
    pub smoke: bool,
}

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
///
/// # Errors
/// Returns a message for a missing workload, an unknown flag or a bad
/// value.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::PaperCell,
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| bad("whole seconds in 1..=3600"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Executor workers: one per available core.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Output check of one pass: every id `0..n` present, in order. Returns
/// how many individuals have a non-finite test MSE.
///
/// # Errors
/// Describes a missing, extra or out-of-order id.
pub fn check_pass(outcomes: &[IndividualOutcome], n: usize) -> Result<u64, String> {
    if outcomes.len() != n {
        return Err(format!("{} outcomes for {n} individuals", outcomes.len()));
    }
    if let Some((pos, o)) = outcomes.iter().enumerate().find(|(pos, o)| o.id != *pos) {
        return Err(format!("position {pos} holds individual {}", o.id));
    }
    Ok(outcomes.iter().filter(|o| !o.mse.is_finite()).count() as u64)
}

/// A workload instance set up and warmed, with its executor.
struct Setup {
    inst: Instance,
    executor: Executor,
    /// Median set-up wall time, s.
    setup_s: f64,
}

/// Builds the inputs, starts the executor and runs a warm-up pass,
/// `SETUP_REPEATS` times; keeps the last instance.
fn set_up(args: &Args) -> Setup {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let inst = args.workload.instance(args.seed, args.smoke);
        let executor = Executor::with_threads(workers());
        std::hint::black_box(inst.warmup(executor.threads()).run(&executor));
        times.push(t.elapsed().as_secs_f64());
        last = Some((inst, executor));
    }
    let (inst, executor) = last.expect("at least one set-up");
    Setup {
        inst,
        executor,
        setup_s: median(&times).expect("set-up times"),
    }
}

/// Checks a pass against the expected outcomes, printing why it fails.
fn agrees(what: &str, want: &[Outcome], got: &[IndividualOutcome]) -> bool {
    let got: Vec<Outcome> = got.iter().map(Outcome::of).collect();
    same_bits(want, &got)
        .map_err(|e| eprintln!("{what} mismatch: {e}"))
        .is_ok()
}

/// What the timed passes of a measured run saw.
#[derive(Debug, Default)]
pub struct Passes {
    /// Individuals per second of each completed pass.
    pub rates: Vec<f64>,
    /// Peak heap bytes above the pre-pass footprint, per completed pass.
    pub peaks: Vec<f64>,
    /// Individuals attempted across all passes.
    pub attempted: u64,
    /// Individuals failed: every individual of a panicked pass, plus
    /// those with a non-finite MSE.
    pub failed: u64,
    /// Every completed pass passed the output check and repeated the
    /// first pass bit for bit.
    pub correct: bool,
    /// The first completed pass's outcomes.
    pub first: Option<Vec<Outcome>>,
}

/// Runs passes of `inst` through the pipeline's entry point until
/// `budget` has elapsed (at least one pass). A panicking pass is caught
/// and all of its individuals count as failed.
#[must_use]
pub fn time_passes(inst: &Instance, executor: &Executor, budget: Duration) -> Passes {
    let n = inst.individuals();
    let mut passes = Passes {
        correct: true,
        ..Passes::default()
    };
    let start = Instant::now();
    while passes.attempted == 0 || start.elapsed() < budget {
        let live = alloc::live_bytes();
        alloc::reset_peak_bytes();
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| inst.run(executor)));
        let wall = t.elapsed().as_secs_f64();
        let peak = alloc::peak_bytes().saturating_sub(live);
        passes.attempted += n as u64;
        let Ok(outcomes) = result else {
            passes.failed += n as u64;
            continue;
        };
        match check_pass(&outcomes, n) {
            Ok(nonfinite) => passes.failed += nonfinite,
            Err(e) => {
                eprintln!("output check failed: {e}");
                passes.correct = false;
            }
        }
        match &passes.first {
            None => passes.first = Some(outcomes.iter().map(Outcome::of).collect()),
            Some(want) => passes.correct &= agrees("repeat pass", want, &outcomes),
        }
        passes.rates.push(n as f64 / wall);
        passes.peaks.push(peak as f64);
    }
    passes
}

/// The measured run: set-up, then passes through the pipeline's entry
/// point with telemetry off for `args.seconds`, reporting the
/// end-to-end metrics as medians over the passes.
#[must_use]
pub fn measure(args: &Args) -> Report {
    ema_obs::set_mode(ObsMode::Off);
    let Setup {
        inst,
        executor,
        setup_s,
    } = set_up(args);
    let passes = time_passes(&inst, &executor, Duration::from_secs(args.seconds));
    let mse_mean = passes.first.as_ref().map_or(0.0, |o| {
        o.iter().map(|o| o.mse).fold(0.0, |acc, m| acc + m) / o.len() as f64
    });
    let rounded: Vec<String> = passes.rates.iter().map(|r| format!("{r:.4}")).collect();
    eprintln!(
        "{}: {} passes of {} individuals, interquartile spread {:.4} of the median; individuals/s per pass: {}",
        args.workload.name(),
        passes.rates.len(),
        inst.individuals(),
        relative_spread(&passes.rates).unwrap_or(0.0),
        rounded.join(" ")
    );
    Report::new(
        passes.correct && passes.first.is_some(),
        passes.attempted,
        passes.failed,
        &END_TO_END,
        &[
            ("individuals_per_s", median(&passes.rates).unwrap_or(0.0)),
            ("setup_s", setup_s),
            ("peak_heap_bytes", median(&passes.peaks).unwrap_or(0.0)),
            ("mse_mean", mse_mean),
        ],
    )
}

/// The telemetry counters the program keeps, by name.
fn counters() -> BTreeMap<String, f64> {
    match ema_obs::recorder().metrics_snapshot().get("counters") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| v.to_f64().ok().map(|v| (k.clone(), v)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Growth of every counter whose name satisfies `pick`.
fn grew(
    after: &BTreeMap<String, f64>,
    before: &BTreeMap<String, f64>,
    pick: impl Fn(&str) -> bool,
) -> f64 {
    after
        .iter()
        .filter(|(k, _)| pick(k))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0.0))
        .fold(0.0, |acc, v| acc + v)
}

/// Runs `f`, returning its output and wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The traced run. After set-up it makes four passes of the workload:
///
/// 1. the pipeline entry point, telemetry off — the reference outcomes,
///    wall time and allocation count;
/// 2. the same on one thread — the base of `core.exec.speedup_vs_1t`;
/// 3. the same with telemetry at `summary` — the program's own counters
///    (kernel work, buffer pool, executor, cluster cache, fallbacks) and
///    the wall time executor utilisation is measured against;
/// 4. the replay with this crate's layer spans ([`replay::replay`]),
///    telemetry off.
///
/// Passes 2–4 must reproduce pass 1 bit for bit. Then the epoch probe
/// and the peak-matmul probe run. Returns the per-layer metrics and the
/// replay's spans.
#[must_use]
pub fn traced(args: &Args) -> (Report, Trace) {
    ema_obs::set_mode(ObsMode::Off);
    let Setup { inst, executor, .. } = set_up(args);
    let n = inst.individuals();

    let allocs_before = alloc::alloc_count();
    let (reference, wall_off) = timed(|| inst.run(&executor));
    let allocs = alloc::alloc_count() - allocs_before;
    let (mut correct, failed) = match check_pass(&reference, n) {
        Ok(nonfinite) => (true, nonfinite),
        Err(e) => {
            eprintln!("output check failed: {e}");
            (false, 0)
        }
    };
    let want: Vec<Outcome> = reference.iter().map(Outcome::of).collect();
    drop(reference);

    let (single, wall_1t) = timed(|| inst.run(&Executor::sequential()));
    correct &= agrees("single-thread pass", &want, &single);
    drop(single);

    ema_obs::set_mode(ObsMode::Summary);
    let before = counters();
    let (counted, wall_counted) = timed(|| inst.run(&executor));
    let after = counters();
    ema_obs::set_mode(ObsMode::Off);
    correct &= agrees("counters pass", &want, &counted);
    drop(counted);
    let count = |name: &str| grew(&after, &before, |k| k == name);
    let kernel = |field: &str| {
        grew(&after, &before, |k| {
            k.starts_with("kernel.") && k.ends_with(field)
        })
    };
    let (calls, flops, bytes) = (kernel(".calls"), kernel(".flops"), kernel(".bytes"));
    let busy_ns = grew(&after, &before, |k| k.starts_with("exec.worker_busy_ns."));
    // Worker time not spent in jobs: queue handoff, the idle tail after
    // the last job and serial phases such as the cluster plan.
    let worker_ns = executor.threads() as f64 * wall_counted * 1e9;
    let wait_ns = (worker_ns - busy_ns).max(0.0);
    let jobs = grew(&after, &before, |k| k.starts_with("exec.worker_jobs."));
    let (hits, misses) = (count("cluster.cache_hits"), count("cluster.cache_misses"));
    let (pool_hits, pool_misses) = (count("pool_hits"), count("pool_misses"));

    let trace = Trace::new();
    let ((replayed, plan), wall_traced) = timed(|| replay::replay(&inst, &executor, &trace));
    if let Err(e) = same_bits(&want, &replayed) {
        eprintln!("replay mismatch: {e}");
        correct = false;
    }

    let probe = epoch_probe(&inst, plan.as_ref());
    let peak_gflops = peak_matmul_gflops();
    let achieved_gflops = ratio(flops, busy_ns);

    let spans = trace.spans();
    let serial: f64 = spans
        .iter()
        .filter(|s| s.tag == Tag::Run)
        .map(|s| s.dur_ns as f64)
        .sum();
    let roots = serial
        + spans
            .iter()
            .filter(|s| s.layer == JOB)
            .map(|s| s.dur_ns as f64)
            .sum::<f64>();
    let covered: f64 = spans
        .iter()
        .filter(|s| LAYERS.contains(&s.layer))
        .map(|s| s.dur_ns as f64)
        .sum();
    let job_ms: Vec<f64> = trace.durations_s(JOB).iter().map(|s| s * 1e3).collect();
    let plan_s = trace.total_s(replay::CLUSTER_PLAN);

    let report = Report::new(
        correct,
        n as u64,
        failed,
        &PER_LAYER,
        &[
            ("data.generate_s", trace.total_s(replay::GENERATE)),
            ("data.window_s", trace.total_s(replay::WINDOW)),
            (
                "similarity.build_graph_s",
                trace.total_s(replay::BUILD_GRAPH),
            ),
            ("graph.sparsify_s", trace.total_s(replay::SPARSIFY)),
            (
                "similarity.series_distance_s",
                trace.total_s(replay::SERIES_DISTANCE),
            ),
            ("models.construct_s", trace.total_s(replay::CONSTRUCT)),
            ("models.forward_ms_per_epoch", probe.forward_ms),
            ("autodiff.backward_ms_per_epoch", probe.backward_ms),
            ("nn.adam_ms_per_epoch", probe.adam_ms),
            ("autodiff.tape_nodes", probe.tape_nodes as f64),
            ("tensor.matmul_calls", calls),
            ("tensor.matmul_gflop", flops * 1e-9),
            ("tensor.matmul_bytes_computed", bytes),
            ("tensor.flop_per_byte", ratio(flops, bytes)),
            ("tensor.achieved_gflops", achieved_gflops),
            ("tensor.peak_gflops", peak_gflops),
            (
                "tensor.peak_operand_bytes",
                (3 * 8 * PEAK_MATMUL_N * PEAK_MATMUL_N) as f64,
            ),
            (
                "tensor.pct_of_peak",
                100.0 * ratio(achieved_gflops, peak_gflops),
            ),
            (
                "tensor.pool_hit_rate",
                ratio(pool_hits, pool_hits + pool_misses),
            ),
            ("alloc.allocs_per_individual", allocs as f64 / n as f64),
            ("core.train_s", trace.total_s(replay::TRAIN)),
            ("core.evaluate_s", trace.total_s(replay::EVALUATE)),
            (
                "core.train.epochs_total",
                replayed
                    .iter()
                    .map(|o| o.epochs_run as f64)
                    .fold(0.0, |a, e| a + e),
            ),
            ("core.cohort.fallbacks", count("exec.cohort_fallbacks")),
            ("core.exec.busy_frac", ratio(busy_ns, worker_ns)),
            ("core.exec.wait_s", wait_ns * 1e-9),
            (
                "core.exec.job_p50_ms",
                percentile(&job_ms, 0.5).unwrap_or(0.0),
            ),
            (
                "core.exec.job_p90_ms",
                percentile(&job_ms, 0.9).unwrap_or(0.0),
            ),
            ("core.exec.job_samples", job_ms.len() as f64),
            ("core.exec.jobs", jobs),
            ("core.exec.workers", executor.threads() as f64),
            ("core.exec.speedup_vs_1t", ratio(wall_1t, wall_off)),
            ("core.cluster.plan_s", plan_s),
            ("core.cluster.serial_frac", ratio(plan_s, wall_traced)),
            ("core.cluster.cache_hit_rate", ratio(hits, hits + misses)),
            ("obs.tracing_overhead", ratio(wall_traced, wall_off)),
            ("trace.coverage", ratio(covered, roots)),
        ],
    );
    (report, trace)
}

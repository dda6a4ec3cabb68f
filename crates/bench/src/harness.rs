//! Minimal Criterion-style micro-benchmark harness.
//!
//! Each `[[bench]]` target (`harness = false`) builds a [`Harness`],
//! registers closures with [`Harness::bench_function`], and calls
//! [`Harness::finish`], which prints a table and writes
//! `results/BENCH_<suite>.json`.
//!
//! Methodology per benchmark: a wall-clock warmup estimates the
//! per-iteration cost, iterations are calibrated so one sample takes
//! roughly [`Config::sample_ms`], and the reported figure is the
//! median over [`Config::samples`] samples (median is robust to the
//! odd scheduler hiccup, unlike the mean). The fastest sample and the
//! median absolute deviation are recorded beside it, so a reader can
//! tell noise from a shift.
//!
//! Knobs (for CI or quick local runs):
//! - `EMA_BENCH_SAMPLES`: sample count (default 15)
//! - `EMA_BENCH_SAMPLE_MS`: target milliseconds per sample (default 20)
//! - a positional CLI argument filters benchmarks by substring, as in
//!   `cargo bench -p ema-bench --bench tensor_ops -- matmul`

use ema_core::Json;
use std::time::Instant;

/// Harness-wide settings, resolved from the environment once.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Samples per benchmark; the median is reported.
    pub samples: usize,
    /// Target wall-clock per sample, in milliseconds.
    pub sample_ms: f64,
    /// Warmup wall-clock before calibration, in milliseconds.
    pub warmup_ms: f64,
}

impl Config {
    fn from_env() -> Self {
        let env_num = |key: &str, default: f64| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| *v > 0.0)
                .unwrap_or(default)
        };
        Self {
            samples: env_num("EMA_BENCH_SAMPLES", 15.0) as usize,
            sample_ms: env_num("EMA_BENCH_SAMPLE_MS", 20.0),
            warmup_ms: env_num("EMA_BENCH_SAMPLE_MS", 20.0).min(50.0),
        }
    }
}

/// Timing results for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name as registered.
    pub name: String,
    /// Median nanoseconds per iteration over all samples.
    pub median_ns: f64,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Median absolute deviation of the samples from `median_ns`, ns
    /// per iteration: the spread the median comes with.
    pub mad_ns: f64,
    /// Mean over all samples, ns per iteration.
    pub mean_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Logical items processed per iteration (e.g. individuals per
    /// cohort run), when the benchmark declared any via
    /// [`Bencher::items`].
    pub items_per_iter: Option<f64>,
    /// Heap allocations per iteration, counted by the in-house
    /// [`crate::alloc::CountingAllocator`] over one untimed iteration
    /// run after the timed samples (steady state, so pools and
    /// persistent workspaces are warm).
    pub allocs_per_iter: Option<f64>,
    /// Peak heap bytes above the pre-iteration live footprint over the
    /// same untimed steady-state iteration — the bench's peak working
    /// set (a floor on true RSS; see `crate::alloc`).
    pub peak_bytes: Option<f64>,
}

impl BenchResult {
    /// Items per second at the median iteration time, when the
    /// benchmark declared an item count.
    #[must_use]
    pub fn throughput_per_sec(&self) -> Option<f64> {
        self.items_per_iter
            .map(|items| items * 1e9 / self.median_ns)
    }

    fn to_json_value(&self) -> Json {
        let mut members = vec![
            ("name", Json::Str(self.name.clone())),
            ("median_ns", Json::Num(self.median_ns)),
            ("min_ns", Json::Num(self.min_ns)),
            ("mad_ns", Json::Num(self.mad_ns)),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("samples", Json::Num(self.samples as f64)),
            ("iters_per_sample", Json::Num(self.iters_per_sample as f64)),
        ];
        if let Some(items) = self.items_per_iter {
            members.push(("items_per_iter", Json::Num(items)));
        }
        if let Some(tp) = self.throughput_per_sec() {
            members.push(("throughput_per_sec", Json::Num(tp)));
        }
        if let Some(allocs) = self.allocs_per_iter {
            members.push(("allocs_per_iter", Json::Num(allocs)));
        }
        if let Some(peak) = self.peak_bytes {
            members.push(("peak_bytes", Json::Num(peak)));
        }
        Json::obj(members)
    }
}

/// Per-iteration statistics over one benchmark's timed samples.
#[derive(Debug, Clone, Copy)]
struct Sampled {
    median_ns: f64,
    min_ns: f64,
    mad_ns: f64,
    mean_ns: f64,
    iters: u64,
}

impl Sampled {
    /// Median, minimum, median absolute deviation and mean of the
    /// per-iteration sample times (`iters` iterations per sample).
    fn from_samples(mut per_iter_ns: Vec<f64>, iters: u64) -> Self {
        per_iter_ns.sort_by(f64::total_cmp);
        let median_ns = per_iter_ns[per_iter_ns.len() / 2];
        let mean_ns = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
        let mut deviations: Vec<f64> = per_iter_ns.iter().map(|t| (t - median_ns).abs()).collect();
        deviations.sort_by(f64::total_cmp);
        Self {
            median_ns,
            min_ns: per_iter_ns[0],
            mad_ns: deviations[deviations.len() / 2],
            mean_ns,
            iters,
        }
    }
}

/// Per-benchmark driver handed to the registered closure; call
/// [`Bencher::iter`] exactly once with the workload.
pub struct Bencher {
    config: Config,
    items_per_iter: Option<f64>,
    result: Option<Sampled>,
    allocs_per_iter: Option<f64>,
    peak_bytes: Option<f64>,
}

impl Bencher {
    /// Declares how many logical items one iteration processes (e.g.
    /// individuals per cohort run); the suite then reports and records
    /// a `throughput_per_sec` figure alongside the timing.
    pub fn items(&mut self, per_iter: f64) {
        self.items_per_iter = Some(per_iter);
    }

    /// Overrides the suite-wide sample count for this benchmark. Meant
    /// for macro-benchmarks (whole-study cohort streams) where one
    /// iteration costs seconds and the suite default would blow the
    /// bench budget. The committed baseline is recorded with the same
    /// override, so `bench_gate` comparisons stay
    /// methodology-identical.
    pub fn samples(&mut self, n: usize) {
        self.config.samples = n.max(1);
    }

    /// Warm up, calibrate and sample `f`, recording the statistics.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Warmup: run until the warmup budget elapses, counting iters to
        // get a first cost estimate.
        let warmup_budget = self.config.warmup_ms / 1e3;
        let start = Instant::now();
        let mut warmup_iters: u64 = 0;
        while start.elapsed().as_secs_f64() < warmup_budget {
            std::hint::black_box(f());
            warmup_iters += 1;
        }
        let est_ns = start.elapsed().as_nanos() as f64 / warmup_iters.max(1) as f64;

        // Calibrate so each sample takes ~sample_ms.
        let iters = ((self.config.sample_ms * 1e6 / est_ns.max(1.0)).ceil() as u64).max(1);

        let mut per_iter_ns = Vec::with_capacity(self.config.samples);
        for _ in 0..self.config.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.result = Some(Sampled::from_samples(per_iter_ns, iters));

        // One extra untimed iteration under the counting allocator: by
        // now the workload is in steady state (pools warm, workspaces
        // grown), so the delta is the per-iteration heap-alloc count
        // the hot path actually pays. Rebasing the allocator's peak to
        // the current live footprint first makes the peak reading the
        // iteration's own high-water mark above steady state.
        let allocs_before = crate::alloc::alloc_count();
        let live_before = crate::alloc::live_bytes();
        crate::alloc::reset_peak_bytes();
        std::hint::black_box(f());
        self.allocs_per_iter = Some((crate::alloc::alloc_count() - allocs_before) as f64);
        self.peak_bytes = Some(crate::alloc::peak_bytes().saturating_sub(live_before) as f64);
    }
}

/// Collects benchmarks for one suite and writes the JSON record.
pub struct Harness {
    suite: String,
    config: Config,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates a harness for the named suite, reading the env config
    /// and an optional substring filter from the CLI arguments (flags
    /// such as `--bench` that cargo forwards are ignored).
    #[must_use]
    pub fn new(suite: &str) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self {
            suite: suite.to_string(),
            config: Config::from_env(),
            filter,
            results: Vec::new(),
        }
    }

    /// Runs one benchmark (unless filtered out) and records its stats.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            config: self.config,
            items_per_iter: None,
            result: None,
            allocs_per_iter: None,
            peak_bytes: None,
        };
        {
            let _bench_span = ema_obs::span!("bench", suite = self.suite.as_str(), name = name);
            f(&mut bencher);
            // Attribute the benchmark's kernel work to the bench span's
            // phase rather than letting it leak into a later drain site.
            ema_obs::drain_kernel_counters();
        }
        let Sampled {
            median_ns,
            min_ns,
            mad_ns,
            mean_ns,
            iters,
        } = bencher
            .result
            .expect("benchmark closure must call Bencher::iter");
        ema_obs::recorder().set_gauge(&format!("bench_median_ns.{}.{name}", self.suite), median_ns);
        if let Some(allocs) = bencher.allocs_per_iter {
            ema_obs::recorder().set_gauge(
                &format!("bench_allocs_per_iter.{}.{name}", self.suite),
                allocs,
            );
        }
        if let Some(peak) = bencher.peak_bytes {
            ema_obs::recorder().set_gauge(&format!("bench_peak_bytes.{}.{name}", self.suite), peak);
        }
        let result = BenchResult {
            name: name.to_string(),
            median_ns,
            min_ns,
            mad_ns,
            mean_ns,
            // The bencher's own config: Bencher::samples may have
            // overridden the suite-wide count.
            samples: bencher.config.samples,
            iters_per_sample: iters,
            items_per_iter: bencher.items_per_iter,
            allocs_per_iter: bencher.allocs_per_iter,
            peak_bytes: bencher.peak_bytes,
        };
        let throughput = result
            .throughput_per_sec()
            .map(|tp| format!("  ({tp:.2} items/s)"))
            .unwrap_or_default();
        let allocs = result
            .allocs_per_iter
            .map(|a| {
                let peak = result
                    .peak_bytes
                    .map(|p| format!(", peak {}", format_bytes(p)))
                    .unwrap_or_default();
                format!("  [{a:.0} allocs/iter{peak}]")
            })
            .unwrap_or_default();
        println!(
            "{:<40} median {:>12} /iter{}{}  (min {}, MAD {}, {} samples × {} iters)",
            name,
            format_ns(median_ns),
            throughput,
            allocs,
            format_ns(min_ns),
            format_ns(mad_ns),
            result.samples,
            iters,
        );
        self.results.push(result);
    }

    /// Prints the footer and writes `results/BENCH_<suite>.json`. The
    /// record carries the kernel backend the suite ran on (`bench_gate`
    /// reads only the `benchmarks` array, so the extra field is inert
    /// for gating but keeps baselines self-describing).
    pub fn finish(self) {
        let backend = ema_tensor::KernelBackend::active().label();
        ema_obs::point!(
            "bench_suite_done",
            suite = self.suite.as_str(),
            benchmarks = self.results.len()
        );
        let json = Json::obj(vec![
            ("suite", Json::Str(self.suite.clone())),
            ("kernel_backend", Json::Str(backend.to_string())),
            (
                "benchmarks",
                Json::Arr(
                    self.results
                        .iter()
                        .map(BenchResult::to_json_value)
                        .collect(),
                ),
            ),
        ])
        .pretty();
        if let Some(path) = crate::save_json(&format!("BENCH_{}", self.suite), &json) {
            println!(
                "{} benchmarks ({backend} kernels) -> {}",
                self.results.len(),
                path.display()
            );
        }
    }
}

/// Renders a byte figure with a readable unit.
fn format_bytes(bytes: f64) -> String {
    if bytes < 1024.0 {
        format!("{bytes:.0} B")
    } else if bytes < 1024.0 * 1024.0 {
        format!("{:.1} KiB", bytes / 1024.0)
    } else if bytes < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} MiB", bytes / (1024.0 * 1024.0))
    } else {
        format!("{:.2} GiB", bytes / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Renders a nanosecond figure with a readable unit.
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// Serialises the tests that run `Bencher::iter`: its allocation
    /// count is process-wide, so an allocating workload sampled on a
    /// concurrent test thread would land in another test's zero-alloc
    /// measurement.
    static ALLOC_MEASURE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn bencher_measures_and_harness_records() {
        let _guard = ALLOC_MEASURE_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut bencher = Bencher {
            config: Config {
                samples: 3,
                sample_ms: 0.05,
                warmup_ms: 0.05,
            },
            items_per_iter: None,
            result: None,
            allocs_per_iter: None,
            peak_bytes: None,
        };
        bencher.iter(|| std::hint::black_box(42u64.wrapping_mul(7)));
        let stats = bencher.result.unwrap();
        let (median, min, mean) = (stats.median_ns, stats.min_ns, stats.mean_ns);
        assert!(median > 0.0 && min > 0.0 && mean > 0.0);
        assert!(min <= median && median <= mean * 3.0);
        assert!(stats.iters >= 1);
        // An allocation-free workload measures zero allocs per iter.
        assert_eq!(bencher.allocs_per_iter, Some(0.0));
    }

    #[test]
    fn bencher_counts_allocating_workloads() {
        let _guard = ALLOC_MEASURE_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut bencher = Bencher {
            config: Config {
                samples: 2,
                sample_ms: 0.05,
                warmup_ms: 0.05,
            },
            items_per_iter: None,
            result: None,
            allocs_per_iter: None,
            peak_bytes: None,
        };
        bencher.iter(|| std::hint::black_box(vec![0u8; 256]));
        assert!(bencher.allocs_per_iter.unwrap() >= 1.0);
    }

    #[test]
    fn results_serialise_to_bench_json_shape() {
        let r = BenchResult {
            name: "matmul".into(),
            median_ns: 1234.5,
            min_ns: 1200.0,
            mad_ns: 20.0,
            mean_ns: 1250.0,
            samples: 15,
            iters_per_sample: 1000,
            items_per_iter: None,
            allocs_per_iter: None,
            peak_bytes: None,
        };
        let v = r.to_json_value();
        assert_eq!(v.require("name").unwrap().to_str().unwrap(), "matmul");
        assert_eq!(v.require("median_ns").unwrap().to_f64().unwrap(), 1234.5);
        assert_eq!(v.require("mad_ns").unwrap().to_f64().unwrap(), 20.0);
        // Timing-only benchmarks carry no throughput members.
        assert!(v.require("throughput_per_sec").is_err());
        // Round trip through the writer/parser.
        let parsed = Json::parse(&v.pretty()).unwrap();
        assert_eq!(parsed.require("samples").unwrap().to_usize().unwrap(), 15);
    }

    #[test]
    fn throughput_derives_from_items_and_median() {
        let r = BenchResult {
            name: "cohort".into(),
            median_ns: 2e9, // 2 s per iteration
            min_ns: 1.9e9,
            mad_ns: 0.1e9,
            mean_ns: 2.1e9,
            samples: 5,
            iters_per_sample: 1,
            items_per_iter: Some(10.0),
            allocs_per_iter: Some(12.0),
            peak_bytes: Some(4096.0),
        };
        assert_eq!(r.throughput_per_sec(), Some(5.0));
        let v = r.to_json_value();
        assert_eq!(v.require("items_per_iter").unwrap().to_f64().unwrap(), 10.0);
        assert_eq!(
            v.require("throughput_per_sec").unwrap().to_f64().unwrap(),
            5.0
        );
        assert_eq!(
            v.require("allocs_per_iter").unwrap().to_f64().unwrap(),
            12.0
        );
    }

    #[test]
    fn sampled_reports_median_min_and_mad() {
        // Sorted 1, 3, 4, 5, 9: median 4; deviations 0, 1, 1, 3, 5.
        let stats = Sampled::from_samples(vec![5.0, 1.0, 3.0, 9.0, 4.0], 7);
        assert_eq!(stats.median_ns, 4.0);
        assert_eq!(stats.min_ns, 1.0);
        assert_eq!(stats.mad_ns, 1.0);
        assert_eq!(stats.mean_ns, 4.4);
        assert_eq!(stats.iters, 7);
    }

    #[test]
    fn format_ns_picks_units() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("µs"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(12e9).ends_with('s'));
    }
}

//! The cohort execution engine.
//!
//! The paper's workload is embarrassingly parallel — one personalized
//! model per individual, trained independently (Eq. 1 averages
//! per-individual MSE) — so a cohort run is a list of independent
//! [`Job`]s, not a hand-rolled `for` loop. An [`Executor`] pulls those
//! jobs from one shared queue with a fixed worker count: one worker
//! runs them in order on the calling thread, more run on
//! `std::thread::scope` workers. Both run the same worker loop.
//!
//! Results always come back **in job order**, and every random stream a
//! job consumes is derived up front from `(run seed, job id)` via
//! [`ema_tensor::derive_stream_seed`] — never from sequential draw
//! order — so output JSON is byte-identical at every thread count
//! (enforced by `tests/determinism.rs`).
//!
//! ## Choosing the worker count
//!
//! Every experiment takes its executor from the caller. Precedence,
//! highest first:
//!
//! 1. an explicit count: [`Executor::with_threads`] at the call site,
//!    or the `--threads N` flag the experiment binaries pass to
//!    [`Executor::configured`];
//! 2. the `EMA_THREADS` environment variable, when it is a positive
//!    integer (any other value warns on stderr and is skipped);
//! 3. `std::thread::available_parallelism()`.
//!
//! ## Panic isolation
//!
//! A panicking job is caught on its worker, reported as a
//! [`JobError`] carrying the job label and panic message, and the pool
//! survives to drain the rest of the queue. Callers that want the old
//! fail-fast behavior use [`expect_all`], which re-raises the first
//! failure with its label attached.
//!
//! ## Telemetry
//!
//! Each job runs inside an [`ema_obs`] worker scope: its span tree is
//! tagged with a `worker` id and buffered per worker, flushing through
//! the recorder in one batch when the job finishes, so the JSONL
//! manifest stays parseable and each job's events stay contiguous even
//! with many workers interleaving.
//!
//! Utilization telemetry (all timing-only, so it lives exclusively in
//! obs output): every job observation lands in the
//! `exec.job_latency_ns` histogram, and each worker publishes
//! `exec.worker_busy_ns.<w>` / `exec.worker_wait_ns.<w>` /
//! `exec.worker_jobs.<w>` counters when its run-loop ends — busy is the
//! summed job time, wait is the rest of the loop (queue contention +
//! idle tail). `obs_report` renders these as a per-worker utilization
//! table with p50/p99 job latency.

use ema_obs::metrics::TIME_NS_BUCKETS;
use ema_obs::{span, ObsMode, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One schedulable unit of work: a label (for telemetry and panic
/// reports) plus the closure that produces the result.
pub struct Job<'a, T> {
    label: String,
    task: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Job<'a, T> {
    /// Wraps a closure as a job. The label names the job in obs spans
    /// and in [`JobError`]s (e.g. `individual_17`).
    pub fn new(label: impl Into<String>, task: impl FnOnce() -> T + Send + 'a) -> Self {
        Self {
            label: label.into(),
            task: Box::new(task),
        }
    }

    /// The job's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// A job that panicked: which one, and what the panic said.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The failed job's label.
    pub label: String,
    /// The panic payload rendered as text.
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job '{}' panicked: {}", self.label, self.message)
    }
}

/// What one job produced: its output, or the panic that killed it.
pub type JobResult<T> = Result<T, JobError>;

/// Schedules [`Job`]s on a fixed number of workers; see the module
/// docs.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

/// The worker count for an explicit request `flag` (the `--threads N`
/// flag) and the raw `EMA_THREADS` value `env`, by the precedence in
/// the module docs.
fn resolve_threads(flag: Option<usize>, env: Option<&str>) -> usize {
    if let Some(n) = flag {
        return n;
    }
    if let Some(raw) = env {
        match raw.parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => eprintln!("warning: invalid EMA_THREADS={raw:?}; using available parallelism"),
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl Executor {
    /// An executor that runs jobs in order on the calling thread.
    #[must_use]
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// An executor with exactly `threads` workers (1 runs every job on
    /// the calling thread — same results either way).
    ///
    /// # Panics
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "an executor needs at least one thread");
        Self { threads }
    }

    /// `threads` workers when given (the `--threads N` flag), else the
    /// `EMA_THREADS` count, else available parallelism (see the module
    /// docs).
    ///
    /// # Panics
    /// Panics if `threads` is `Some(0)`.
    #[must_use]
    pub fn configured(threads: Option<usize>) -> Self {
        let env = std::env::var("EMA_THREADS").ok();
        Self::with_threads(resolve_threads(threads, env.as_deref()))
    }

    /// The environment-configured executor: [`Executor::configured`]
    /// without a flag.
    #[must_use]
    pub fn from_env() -> Self {
        Self::configured(None)
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job and returns the results **in job order**. A
    /// panicking job becomes a [`JobError`] in its slot; the remaining
    /// jobs still run. One worker runs the queue on the calling thread
    /// (no spawn, no pool hand-off); more workers run on scoped
    /// threads, at most one per job.
    pub fn run<T: Send>(&self, jobs: Vec<Job<'_, T>>) -> Vec<JobResult<T>> {
        let n = jobs.len();
        // Each job sits in its own slot so a worker takes ownership
        // without contending on one queue lock for the whole run.
        let queue: Vec<Mutex<Option<Job<'_, T>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        if self.threads == 1 {
            worker_loop(0, &queue, &slots, &next);
        } else {
            std::thread::scope(|scope| {
                for worker in 0..self.threads.min(n) {
                    let (queue, slots, next) = (&queue, &slots, &next);
                    scope.spawn(move || {
                        // Scoped workers die with every run, so warm
                        // tensor-pool buffers are handed across runs via
                        // the shelf: adopt a parked pool on the way in,
                        // park ours on the way out.
                        ema_tensor::pool::adopt_stashed();
                        worker_loop(worker, queue, slots, next);
                        ema_tensor::pool::stash_local();
                    });
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| {
                lock(&slot)
                    .take()
                    .expect("every job slot is filled before the run ends")
            })
            .collect()
    }
}

/// Unwraps a result batch, panicking with the label and message of the
/// first failed job — the fail-fast path the pipeline uses.
///
/// # Panics
/// Panics if any job failed.
pub fn expect_all<T>(results: Vec<JobResult<T>>, what: &str) -> Vec<T> {
    results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("{what}: {e}"),
        })
        .collect()
}

/// Runs one job under a worker scope, converting a panic into a
/// [`JobError`]. The tensor-pool hit/miss deltas accumulated while the
/// job ran are published as obs counters, the kernel work counters the
/// thread accumulated are drained into per-phase metrics, and the job's
/// wall time feeds the `exec.job_latency_ns` histogram (telemetry only —
/// none of it can change results). Returns the result plus the job's
/// wall nanoseconds so the worker loop can account busy time.
fn execute_job<T>(job: Job<'_, T>, worker: usize) -> (JobResult<T>, u64) {
    let Job { label, task } = job;
    let recorder = ema_obs::recorder();
    let _worker_scope = recorder.worker_scope(worker);
    let started_ns = recorder.elapsed_ns();
    let outcome = {
        let _job_span = span!("job", label = label.as_str(), worker = worker);
        let before = ema_tensor::pool::stats();
        let outcome = catch_unwind(AssertUnwindSafe(task));
        let after = ema_tensor::pool::stats();
        recorder.inc_counter("pool_hits", after.hits - before.hits);
        recorder.inc_counter("pool_misses", after.misses - before.misses);
        // Attribute the matmul work this thread just did (including any
        // a panicking job got through) to the current run phase.
        recorder.drain_kernel_counters();
        outcome
    };
    let job_ns = recorder.elapsed_ns().saturating_sub(started_ns);
    recorder.observe("exec.job_latency_ns", &TIME_NS_BUCKETS, job_ns as f64);
    let result = match outcome {
        Ok(value) => Ok(value),
        Err(payload) => Err(JobError {
            label,
            message: panic_message(payload.as_ref()),
        }),
    };
    (result, job_ns)
}

/// Publishes one worker's utilization counters at the end of its run
/// loop: summed job (busy) time, the remainder of the loop (wait:
/// queue handoff + idle tail) and how many jobs it took. Skipped when
/// the worker ran nothing — idle workers still show up through the
/// pool's worker count, and zero-filled counters would drown summaries.
fn publish_worker_utilization(
    recorder: &Recorder,
    worker: usize,
    jobs_run: u64,
    busy_ns: u64,
    total_ns: u64,
) {
    if recorder.mode() == ObsMode::Off || jobs_run == 0 {
        return;
    }
    recorder.inc_counter(&format!("exec.worker_busy_ns.{worker}"), busy_ns);
    recorder.inc_counter(
        &format!("exec.worker_wait_ns.{worker}"),
        total_ns.saturating_sub(busy_ns),
    );
    recorder.inc_counter(&format!("exec.worker_jobs.{worker}"), jobs_run);
}

/// Renders a panic payload as text (panics carry `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Poison-tolerant lock: a caught job panic must never wedge the pool.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's run loop: claims the next unclaimed job from the shared
/// index queue until none is left, fills its result slot, and publishes
/// the worker's utilization counters when the queue is drained.
fn worker_loop<T>(
    worker: usize,
    queue: &[Mutex<Option<Job<'_, T>>>],
    slots: &[Mutex<Option<JobResult<T>>>],
    next: &AtomicUsize,
) {
    let n = queue.len();
    let recorder = ema_obs::recorder();
    let loop_start = recorder.elapsed_ns();
    let mut busy_ns = 0u64;
    let mut jobs_run = 0u64;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // Jobs not yet claimed by any worker; races between workers
        // are benign (telemetry only, last write wins, and the gauge
        // drains to 0 either way).
        recorder.set_gauge("exec.queue_depth", (n - 1 - i) as f64);
        let job = lock(&queue[i])
            .take()
            .expect("each job is taken exactly once");
        let (result, job_ns) = execute_job(job, worker);
        busy_ns += job_ns;
        jobs_run += 1;
        *lock(&slots[i]) = Some(result);
    }
    let total_ns = recorder.elapsed_ns().saturating_sub(loop_start);
    publish_worker_utilization(recorder, worker, jobs_run, busy_ns, total_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_squaring(n: usize) -> Vec<Job<'static, usize>> {
        (0..n)
            .map(|i| Job::new(format!("sq_{i}"), move || i * i))
            .collect()
    }

    #[test]
    fn sequential_preserves_order() {
        let out = Executor::sequential().run(jobs_squaring(5));
        let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn pool_preserves_order_at_any_thread_count() {
        for threads in [2, 3, 8] {
            let out = Executor::with_threads(threads).run(jobs_squaring(17));
            let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
            assert_eq!(values, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(Executor::sequential()
            .run(Vec::<Job<'_, ()>>::new())
            .is_empty());
        assert!(Executor::with_threads(4)
            .run(Vec::<Job<'_, ()>>::new())
            .is_empty());
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = Executor::with_threads(16).run(jobs_squaring(3));
        let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![0, 1, 4]);
    }

    #[test]
    fn panicking_job_reports_error_and_pool_drains_queue() {
        let jobs: Vec<Job<'_, usize>> = (0..12)
            .map(|i| {
                Job::new(format!("j{i}"), move || {
                    assert!(i != 5, "job five exploded");
                    i
                })
            })
            .collect();
        let out = Executor::with_threads(3).run(jobs);
        assert_eq!(out.len(), 12);
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                let err = r.as_ref().unwrap_err();
                assert_eq!(err.label, "j5");
                assert!(err.message.contains("job five exploded"), "{}", err.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn sequential_backend_also_isolates_panics() {
        let jobs: Vec<Job<'_, ()>> =
            vec![Job::new("boom", || panic!("kapow")), Job::new("ok", || ())];
        let out = Executor::sequential().run(jobs);
        assert!(out[0].is_err());
        assert!(out[1].is_ok());
    }

    #[test]
    #[should_panic(expected = "cohort: job 'boom' panicked: kapow")]
    fn expect_all_propagates_with_label() {
        let out = Executor::sequential().run(vec![Job::new("boom", || -> () { panic!("kapow") })]);
        let _ = expect_all(out, "cohort");
    }

    #[test]
    fn map_labels_by_index() {
        let jobs = (0..4)
            .map(|i| Job::new(format!("ind_{i}"), move || i + 10))
            .collect();
        let out = Executor::with_threads(2).run(jobs);
        let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![10, 11, 12, 13]);
    }

    #[test]
    fn single_thread_collapses_to_sequential() {
        // One worker runs every job on the calling thread; more run on
        // spawned workers.
        let caller = std::thread::current().id();
        let on_thread = |threads: usize| -> Vec<std::thread::ThreadId> {
            let jobs = (0..5)
                .map(|i| Job::new(format!("t_{i}"), || std::thread::current().id()))
                .collect();
            expect_all(Executor::with_threads(threads).run(jobs), "thread ids")
        };
        assert!(on_thread(1).iter().all(|&id| id == caller));
        assert_eq!(Executor::sequential().threads(), 1);
        assert!(on_thread(2).iter().all(|&id| id != caller));
        assert_eq!(Executor::with_threads(6).threads(), 6);
    }

    #[test]
    fn executors_publish_utilization_counters() {
        // Exercises the global recorder, so it reads deltas (other
        // tests may run jobs concurrently) and skips under EMA_OBS=off.
        if ema_obs::mode() == ObsMode::Off {
            return;
        }
        let sum_jobs = || -> u64 {
            let snap = ema_obs::recorder().metrics_snapshot();
            match snap.require("counters").unwrap() {
                ema_obs::Json::Obj(pairs) => pairs
                    .iter()
                    .filter(|(k, _)| k.starts_with("exec.worker_jobs."))
                    .map(|(_, v)| v.to_usize().unwrap() as u64)
                    .sum(),
                _ => panic!("counters is an object"),
            }
        };
        let latency_total = || -> u64 {
            let snap = ema_obs::recorder().metrics_snapshot();
            snap.require("histograms")
                .and_then(|h| h.require("exec.job_latency_ns"))
                .and_then(|h| h.require("total"))
                .ok()
                .and_then(|t| t.to_usize().ok())
                .unwrap_or(0) as u64
        };
        let (jobs_before, lat_before) = (sum_jobs(), latency_total());
        let out = Executor::with_threads(2).run(jobs_squaring(6));
        assert_eq!(out.len(), 6);
        let out = Executor::sequential().run(jobs_squaring(2));
        assert_eq!(out.len(), 2);
        assert!(
            sum_jobs() >= jobs_before + 8,
            "worker_jobs counters did not account for all jobs"
        );
        assert!(
            latency_total() >= lat_before + 8,
            "job latency histogram missed observations"
        );
    }

    #[test]
    fn thread_count_precedence() {
        let available = resolve_threads(None, None);
        assert!(available >= 1);
        // The flag wins over EMA_THREADS, which wins over available
        // parallelism.
        assert_eq!(resolve_threads(Some(3), Some("5")), 3);
        assert_eq!(resolve_threads(Some(3), Some("abc")), 3);
        assert_eq!(resolve_threads(None, Some("5")), 5);
        for invalid in ["0", "abc", "", "-2"] {
            assert_eq!(
                resolve_threads(None, Some(invalid)),
                available,
                "{invalid:?}"
            );
        }
    }

    /// The child run of [`invalid_ema_threads_warns_and_falls_back`]:
    /// prints the count `EMA_THREADS` resolves to.
    #[test]
    fn configured_executor_reports_its_count() {
        println!("threads={}", Executor::configured(None).threads());
        assert_eq!(Executor::configured(Some(2)).threads(), 2);
    }

    #[test]
    fn invalid_ema_threads_warns_and_falls_back() {
        // Each value runs in a child (this test binary, running one
        // test), so this process's environment stays untouched.
        let exe = std::env::current_exe().expect("test binary");
        let test = "exec::tests::configured_executor_reports_its_count";
        let run_under = |value: &str| {
            let out = std::process::Command::new(&exe)
                .args([test, "--exact", "--nocapture"])
                .env("EMA_THREADS", value)
                .output()
                .expect("child test run");
            assert!(out.status.success(), "{test} failed under {value:?}");
            (
                String::from_utf8_lossy(&out.stdout).into_owned(),
                String::from_utf8_lossy(&out.stderr).into_owned(),
            )
        };
        let available = format!("threads={}\n", resolve_threads(None, None));
        for invalid in ["0", "abc"] {
            let (stdout, stderr) = run_under(invalid);
            let warning =
                format!("warning: invalid EMA_THREADS={invalid:?}; using available parallelism");
            assert!(stderr.contains(&warning), "{invalid:?}: {stderr}");
            assert!(stdout.contains(&available), "{invalid:?}: {stdout}");
        }
        let (stdout, stderr) = run_under("3");
        assert!(stdout.contains("threads=3\n"), "{stdout}");
        assert!(!stderr.contains("EMA_THREADS"), "{stderr}");
    }

    #[test]
    fn borrowed_data_flows_into_jobs() {
        // Jobs may borrow from the caller (the pipeline borrows the
        // dataset); the scoped pool makes the lifetime work.
        let data = vec![1.0_f64, 2.0, 4.0];
        let data = &data;
        let jobs = (0..3)
            .map(|i| Job::new(format!("borrow_{i}"), move || data[i] * 2.0))
            .collect();
        let out = Executor::with_threads(2).run(jobs);
        let values: Vec<f64> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![2.0, 4.0, 8.0]);
    }
}

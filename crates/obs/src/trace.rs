//! Structured span/event tracing with monotonic nanosecond timing.
//!
//! The process has one [`Recorder`], reached through [`recorder`]. It
//! owns the event sink behind one mutex, a [`MetricsRegistry`], the
//! aggregated span profile and the active run manifest (see
//! [`crate::manifest`]). Instrumented code talks to it through the
//! [`span!`](crate::span!) / [`point!`](crate::point!) macros, and
//! [`set_mode`] is the one way to change its verbosity. Tests read
//! what a run writes — its JSONL log and summary — and take one lock
//! per test binary, since every test shares the recorder.
//!
//! Verbosity is a three-level knob, `EMA_OBS=off|summary|full`
//! (default `summary`):
//!
//! - `off` — every obs call is a cheap no-op; no files are created;
//! - `summary` — events are *counted* and metrics accumulate, but no
//!   per-event JSONL is written; a run manifest still gets its summary
//!   JSON;
//! - `full` — additionally streams every span/point event as one JSON
//!   line to `results/obs/<run>.jsonl`.
//!
//! Timing fields (`t_ns`, `dur_ns`) are offsets from the recorder's
//! creation on the monotonic clock. They appear **only** in obs output;
//! results JSON never contains wall-clock data, which is
//! what keeps same-seed runs byte-identical under every mode.

use crate::json::Json;
use crate::manifest::RunState;
use crate::metrics::MetricsRegistry;
use crate::profile::Profile;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Obs verbosity, resolved from `EMA_OBS` (default [`ObsMode::Summary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// No telemetry at all; no obs files are ever created.
    Off,
    /// Metrics + event counts + run summaries, no per-event JSONL.
    Summary,
    /// Everything, including the streamed JSONL event log.
    Full,
}

impl ObsMode {
    /// Reads the mode from the `EMA_OBS` environment variable.
    /// Unrecognised values fall back to `Summary` with a warning —
    /// observability must never abort a run.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("EMA_OBS").as_deref() {
            Ok("off") | Ok("0") => ObsMode::Off,
            Ok("full") => ObsMode::Full,
            Ok("summary") | Err(_) => ObsMode::Summary,
            Ok(other) => {
                eprintln!("warning: unknown EMA_OBS={other:?}; using \"summary\"");
                ObsMode::Summary
            }
        }
    }

    /// Stable label used in run summaries.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Summary => "summary",
            ObsMode::Full => "full",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ObsMode::Off => 0,
            ObsMode::Summary => 1,
            ObsMode::Full => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => ObsMode::Off,
            2 => ObsMode::Full,
            _ => ObsMode::Summary,
        }
    }
}

pub(crate) struct Inner {
    /// The active run's JSONL event log (`full` mode only); events are
    /// counted but not persisted without one.
    pub(crate) log: Option<BufWriter<File>>,
    pub(crate) event_counts: BTreeMap<String, u64>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) run: Option<RunState>,
    /// Aggregated span profile (see [`crate::profile`]); each thread's
    /// tree merges into it when the thread's root span closes, and run
    /// boundaries reset it alongside the metrics.
    pub(crate) profile: Profile,
    /// Run names already used in this process, for collision-free file
    /// stems; deliberately *not* reset at run boundaries.
    pub(crate) used_run_names: BTreeMap<String, u64>,
}

impl Inner {
    /// Counts one event under `name` and appends it to the log, if any.
    fn record(&mut self, name: String, event: &Json) {
        *self.event_counts.entry(name).or_insert(0) += 1;
        if let Some(log) = &mut self.log {
            // Obs is best-effort: a full disk must not kill training.
            let _ = writeln!(log, "{}", event.compact());
        }
    }
}

/// The process-wide telemetry recorder ([`recorder`]); see the module
/// docs for the mode semantics.
pub struct Recorder {
    start: Instant,
    mode: AtomicU8,
    pub(crate) inner: Mutex<Inner>,
}

/// One thread's telemetry state; all of it is obs-output-only.
struct ThreadState {
    /// Small stable-ish id for event attribution, assigned on first use.
    id: Option<usize>,
    /// Names of the open spans, outermost first; its length is the
    /// depth of the next span.
    stack: Vec<String>,
    /// Durations of the spans closed under the open root. The tree
    /// merges into the recorder in one locked section when the root
    /// closes, so profiling adds no lock traffic inside a span tree.
    profile: Profile,
    /// The open [`WorkerScope`]'s worker id and parked events.
    worker: Option<Worker>,
}

impl ThreadState {
    fn id(&mut self) -> usize {
        *self
            .id
            .get_or_insert_with(|| NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed))
    }

    fn worker_id(&self) -> Option<usize> {
        self.worker.as_ref().map(|w| w.id)
    }
}

/// An executor worker's id and the events its job emitted so far.
struct Worker {
    id: usize,
    events: Vec<(String, Json)>,
}

thread_local! {
    static THREAD: RefCell<ThreadState> = const {
        RefCell::new(ThreadState {
            id: None,
            stack: Vec::new(),
            profile: Profile::new(),
            worker: None,
        })
    };
}

static NEXT_THREAD_ID: AtomicUsize = AtomicUsize::new(0);

impl Recorder {
    fn new(mode: ObsMode) -> Self {
        Self {
            start: Instant::now(),
            mode: AtomicU8::new(mode.to_u8()),
            inner: Mutex::new(Inner {
                log: None,
                event_counts: BTreeMap::new(),
                metrics: MetricsRegistry::new(),
                run: None,
                profile: Profile::new(),
                used_run_names: BTreeMap::new(),
            }),
        }
    }

    /// The current mode (one relaxed atomic load — safe on hot paths).
    #[must_use]
    pub fn mode(&self) -> ObsMode {
        ObsMode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Nanoseconds since this recorder was created (monotonic clock).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding this lock poisons it; obs keeps working
        // for the surviving threads rather than cascading the panic.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn emit(&self, name: &str, event: Json) {
        // Inside a worker scope, events park on the thread and reach the
        // shared sink in one batch when the scope closes — concurrent
        // individuals' span trees stay contiguous in the JSONL instead
        // of interleaving line by line.
        let event = THREAD.with(|t| match &mut t.borrow_mut().worker {
            Some(worker) => {
                worker.events.push((name.to_string(), event));
                None
            }
            None => Some(event),
        });
        if let Some(event) = event {
            self.lock().record(name.to_string(), &event);
        }
    }

    /// Opens a span: emits an `enter` event now and the matching `exit`
    /// (with `dur_ns`) when the returned guard drops. In `Off` mode the
    /// guard is inert and free.
    #[must_use]
    pub fn span(&self, name: &str, fields: Vec<(&str, Json)>) -> SpanGuard<'_> {
        if self.mode() == ObsMode::Off {
            return SpanGuard {
                rec: None,
                name: String::new(),
                start_ns: 0,
                depth: 0,
                thread: 0,
            };
        }
        let (depth, thread, worker) = THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let depth = t.stack.len();
            t.stack.push(name.to_string());
            (depth, t.id(), t.worker_id())
        });
        let start_ns = self.elapsed_ns();
        let mut entry = vec![
            ("ev", Json::from("enter")),
            ("span", Json::from(name)),
            ("t_ns", Json::from(start_ns)),
            ("thread", Json::from(thread)),
            ("depth", Json::from(depth)),
        ];
        if let Some(worker) = worker {
            entry.push(("worker", Json::from(worker)));
        }
        entry.push(("fields", Json::obj(fields)));
        self.emit(name, Json::obj(entry));
        SpanGuard {
            rec: Some(self),
            name: name.to_string(),
            start_ns,
            depth,
            thread,
        }
    }

    /// Emits one instantaneous event (no duration), e.g. a
    /// `train_epoch` sample or an `early_stop` decision.
    pub fn point(&self, name: &str, fields: Vec<(&str, Json)>) {
        if self.mode() == ObsMode::Off {
            return;
        }
        let (thread, worker) = THREAD.with(|t| {
            let mut t = t.borrow_mut();
            (t.id(), t.worker_id())
        });
        let mut entry = vec![
            ("ev", Json::from("point")),
            ("name", Json::from(name)),
            ("t_ns", Json::from(self.elapsed_ns())),
            ("thread", Json::from(thread)),
        ];
        if let Some(worker) = worker {
            entry.push(("worker", Json::from(worker)));
        }
        entry.push(("fields", Json::obj(fields)));
        self.emit(name, Json::obj(entry));
    }

    /// Adds `by` to the named counter (no-op in `Off` mode).
    pub fn inc_counter(&self, name: &str, by: u64) {
        if self.mode() != ObsMode::Off {
            self.lock().metrics.inc_counter(name, by);
        }
    }

    /// Sets the named gauge (no-op in `Off` mode).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if self.mode() != ObsMode::Off {
            self.lock().metrics.set_gauge(name, value);
        }
    }

    /// Records a histogram observation (no-op in `Off` mode); the
    /// histogram is created with `bounds` on first use.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        if self.mode() != ObsMode::Off {
            self.lock().metrics.observe(name, bounds, value);
        }
    }

    /// A point-in-time JSON export of the metrics registry.
    #[must_use]
    pub fn metrics_snapshot(&self) -> Json {
        self.lock().metrics.snapshot()
    }

    /// Drains this thread's [`ema_tensor`] kernel work counters into
    /// metrics counters named `kernel.<phase>.<backend>.{calls,flops,
    /// bytes}`, where `<phase>` is the active run phase (or `run`
    /// without one). Take-semantics: each call consumes what this
    /// thread accumulated since the previous drain, so the drain sites
    /// (executor jobs, `train_cohort`, [`Recorder::phase`],
    /// [`Recorder::finish_run`], the bench harness) compose without
    /// double counting. No-op in `Off` mode — but the counters only
    /// accumulate while the mode keeps [`ema_tensor::
    /// set_kernel_counting`] enabled anyway (see [`set_mode`]).
    pub fn drain_kernel_counters(&self) {
        if self.mode() == ObsMode::Off {
            // Still clear the thread's counters so work accumulated
            // around a mode flip is never misattributed later.
            let _ = ema_tensor::take_kernel_counters();
            return;
        }
        let snap = ema_tensor::take_kernel_counters();
        if snap.is_empty() {
            return;
        }
        let mut inner = self.lock();
        let phase = inner
            .run
            .as_ref()
            .and_then(RunState::current_phase_title)
            .unwrap_or("run")
            .to_string();
        for (backend, c) in [("scalar", snap.scalar), ("simd", snap.simd)] {
            if c.calls == 0 {
                continue;
            }
            inner
                .metrics
                .inc_counter(&format!("kernel.{phase}.{backend}.calls"), c.calls);
            inner
                .metrics
                .inc_counter(&format!("kernel.{phase}.{backend}.flops"), c.flops);
            inner
                .metrics
                .inc_counter(&format!("kernel.{phase}.{backend}.bytes"), c.bytes);
        }
    }
}

/// RAII guard for an open span; emits the `exit` event on drop.
pub struct SpanGuard<'a> {
    rec: Option<&'a Recorder>,
    name: String,
    start_ns: u64,
    depth: usize,
    thread: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(rec) = self.rec else { return };
        let now = rec.elapsed_ns();
        let dur_ns = now.saturating_sub(self.start_ns);
        // Record the duration under the span's call path, and take the
        // thread's tree when its root closes. A guard held past its
        // scope (a non-LIFO drop) is not the innermost open span and is
        // skipped, as
        // [`Profile::from_events`](crate::profile::Profile::from_events)
        // skips it.
        let (worker, finished) = THREAD.with(|t| {
            let t = &mut *t.borrow_mut();
            if t.stack.last() == Some(&self.name) {
                t.profile.record(&t.stack, dur_ns);
                t.stack.pop();
            }
            let finished = t.stack.is_empty().then(|| std::mem::take(&mut t.profile));
            (t.worker_id(), finished)
        });
        let mut entry = vec![
            ("ev", Json::from("exit")),
            ("span", Json::from(self.name.as_str())),
            ("t_ns", Json::from(now)),
            ("thread", Json::from(self.thread)),
            ("depth", Json::from(self.depth)),
        ];
        if let Some(worker) = worker {
            entry.push(("worker", Json::from(worker)));
        }
        entry.push(("dur_ns", Json::from(dur_ns)));
        rec.emit(&self.name, Json::obj(entry));
        if let Some(profile) = finished.filter(|p| !p.is_empty()) {
            rec.lock().profile.merge(&profile);
        }
    }
}

/// RAII marker for "this thread is executor worker `w`, running one
/// job". While the scope is open, every event emitted on the thread
/// carries a `worker` field and is parked on the thread; dropping the
/// scope flushes the batch through the recorder in one locked section,
/// so a job's span tree lands contiguously (and each JSONL line stays
/// well-formed) however many workers run concurrently. The executor
/// opens exactly one per job; a scope opened inside another parks its
/// own batch and hands the thread back to the outer scope on drop.
pub struct WorkerScope<'a> {
    rec: &'a Recorder,
    /// The scope this one interrupted, restored on drop.
    outer: Option<Worker>,
    active: bool,
}

impl Recorder {
    /// Opens a worker scope for `worker` on the current thread (inert
    /// in `Off` mode). See [`WorkerScope`].
    #[must_use]
    pub fn worker_scope(&self, worker: usize) -> WorkerScope<'_> {
        if self.mode() == ObsMode::Off {
            return WorkerScope {
                rec: self,
                outer: None,
                active: false,
            };
        }
        let scope = Worker {
            id: worker,
            events: Vec::new(),
        };
        let outer = THREAD.with(|t| t.borrow_mut().worker.replace(scope));
        WorkerScope {
            rec: self,
            outer,
            active: true,
        }
    }
}

impl Drop for WorkerScope<'_> {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let outer = self.outer.take();
        let Some(batch) = THREAD.with(|t| std::mem::replace(&mut t.borrow_mut().worker, outer))
        else {
            return;
        };
        let mut inner = self.rec.lock();
        for (name, event) in batch.events {
            inner.record(name, &event);
        }
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process's recorder, created from `EMA_OBS` on first use.
/// Instrumented library code (training loop, pipeline, bench harness)
/// reports here. Kernel work counting in `ema-tensor` follows its mode:
/// enabled unless the mode is `Off`.
pub fn recorder() -> &'static Recorder {
    GLOBAL.get_or_init(|| {
        let mode = ObsMode::from_env();
        ema_tensor::set_kernel_counting(mode != ObsMode::Off);
        Recorder::new(mode)
    })
}

/// Shorthand for `recorder().mode()`.
#[must_use]
pub fn mode() -> ObsMode {
    recorder().mode()
}

/// Sets the recorder's mode (the `--obs` bench flag and tests use
/// this; normal runs inherit `EMA_OBS`) and keeps the process-wide
/// `ema-tensor` kernel counting flag in sync (off ⇔ no counting, so
/// `EMA_OBS=off` pays nothing on the matmul hot path).
pub fn set_mode(mode: ObsMode) {
    recorder().mode.store(mode.to_u8(), Ordering::Relaxed);
    ema_tensor::set_kernel_counting(mode != ObsMode::Off);
}

/// Shorthand for `recorder().drain_kernel_counters()`: attribute this
/// thread's accumulated kernel work to the recorder's metrics.
pub fn drain_kernel_counters() {
    recorder().drain_kernel_counters();
}

/// Opens a span on the recorder:
/// `let _s = span!("train_epoch", individual = id, epoch = e);`
/// Field values can be anything with `impl Into<Json>` (numbers,
/// strings, bools). The span closes when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::recorder().span($name, ::std::vec![
            $( (stringify!($key), $crate::Json::from($val)) ),*
        ])
    };
}

/// Emits an instantaneous event on the recorder:
/// `point!("early_stop", epoch = e, best = best);`
#[macro_export]
macro_rules! point {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::recorder().point($name, ::std::vec![
            $( (stringify!($key), $crate::Json::from($val)) ),*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::tests::written_by;

    /// The events a run logged after its `run_start` point.
    fn logged(events: &[Json]) -> Vec<&Json> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) != Some("run_start"))
            .collect()
    }

    /// The count of event `name` in a summary's `events` object.
    fn count(summary: &Json, name: &str) -> Option<usize> {
        summary
            .require("events")
            .unwrap()
            .get(name)
            .map(|n| n.to_usize().unwrap())
    }

    #[test]
    fn off_mode_emits_nothing() {
        let rec = recorder();
        let written = written_by("off_emits", ObsMode::Full, || {
            set_mode(ObsMode::Off);
            let before = rec.metrics_snapshot();
            {
                let _s = rec.span("quiet", vec![]);
                rec.point("nope", vec![]);
                rec.inc_counter("n", 1);
            }
            assert_eq!(rec.metrics_snapshot(), before);
            set_mode(ObsMode::Full);
        });
        assert!(logged(&written.events).is_empty());
        assert_eq!(count(&written.summary, "quiet"), None);
        assert_eq!(count(&written.summary, "nope"), None);
        let metrics = written.summary.require("metrics").unwrap();
        assert_eq!(metrics.require("counters").unwrap(), &Json::Obj(vec![]));
    }

    #[test]
    fn spans_emit_balanced_enter_exit_with_duration() {
        let rec = recorder();
        let written = written_by("balanced", ObsMode::Full, || {
            let _outer = rec.span("outer", vec![("k", Json::from(1usize))]);
            let _inner = rec.span("inner", vec![]);
        });
        let events = logged(&written.events);
        assert_eq!(events.len(), 4);
        let evs: Vec<&str> = events
            .iter()
            .map(|e| e.require("ev").unwrap().to_str().unwrap())
            .collect();
        assert_eq!(evs, ["enter", "enter", "exit", "exit"]);
        // Inner exits first (LIFO) and carries a duration.
        assert_eq!(
            events[2].require("span").unwrap().to_str().unwrap(),
            "inner"
        );
        assert!(events[2].require("dur_ns").unwrap().to_f64().unwrap() >= 0.0);
        // Depths: outer = 0, inner = 1, matched on exit.
        assert_eq!(events[0].require("depth").unwrap().to_usize().unwrap(), 0);
        assert_eq!(events[1].require("depth").unwrap().to_usize().unwrap(), 1);
        assert_eq!(events[3].require("depth").unwrap().to_usize().unwrap(), 0);
    }

    #[test]
    fn summary_mode_counts_without_persisting() {
        let rec = recorder();
        let written = written_by("counts", ObsMode::Summary, || {
            rec.point("train_epoch", vec![("loss", Json::Num(0.5))]);
            rec.point("train_epoch", vec![("loss", Json::Num(0.4))]);
        });
        assert!(written.events.is_empty(), "summary mode logs no events");
        assert_eq!(count(&written.summary, "train_epoch"), Some(2));
    }

    #[test]
    fn recorder_is_thread_safe() {
        let rec = recorder();
        let written = written_by("threads", ObsMode::Full, || {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for i in 0..25 {
                            let _s = rec.span("worker", vec![("i", Json::from(i as usize))]);
                            rec.inc_counter("iterations", 1);
                        }
                    });
                }
            });
        });
        assert_eq!(count(&written.summary, "worker"), Some(4 * 25 * 2)); // enter + exit
        assert_eq!(logged(&written.events).len(), 4 * 25 * 2);
        let metrics = written.summary.require("metrics").unwrap();
        let counters = metrics.require("counters").unwrap();
        assert_eq!(
            counters.require("iterations").unwrap().to_usize().unwrap(),
            100
        );
    }

    #[test]
    fn worker_scope_tags_and_batches_events() {
        let rec = recorder();
        let written = written_by("worker", ObsMode::Full, || {
            let _w = rec.worker_scope(3);
            let _s = rec.span("job", vec![]);
            rec.point("inside", vec![]);
        });
        let events = logged(&written.events);
        assert_eq!(events.len(), 3); // enter, point, exit
        for e in &events {
            assert_eq!(e.require("worker").unwrap().to_usize().unwrap(), 3);
        }
        assert_eq!(count(&written.summary, "job"), Some(2));
        assert_eq!(count(&written.summary, "inside"), Some(1));
    }

    #[test]
    fn worker_scopes_keep_concurrent_jobs_contiguous() {
        let rec = recorder();
        let written = written_by("contiguous", ObsMode::Full, || {
            std::thread::scope(|scope| {
                for w in 0..3usize {
                    scope.spawn(move || {
                        for _ in 0..5 {
                            let _ws = rec.worker_scope(w);
                            let _s = rec.span("job", vec![("w", Json::from(w))]);
                            rec.point("step", vec![]);
                        }
                    });
                }
            });
        });
        let events = logged(&written.events);
        assert_eq!(events.len(), 3 * 5 * 3);
        // Each flushed batch is contiguous: events arrive in
        // enter/point/exit triples from a single worker.
        for triple in events.chunks(3) {
            let workers: Vec<usize> = triple
                .iter()
                .map(|e| e.require("worker").unwrap().to_usize().unwrap())
                .collect();
            assert_eq!(workers[0], workers[1]);
            assert_eq!(workers[1], workers[2]);
            let evs: Vec<&str> = triple
                .iter()
                .map(|e| e.require("ev").unwrap().to_str().unwrap())
                .collect();
            assert_eq!(evs, ["enter", "point", "exit"]);
        }
    }

    #[test]
    fn worker_scope_is_inert_when_off() {
        let rec = recorder();
        let written = written_by("inert_scope", ObsMode::Full, || {
            set_mode(ObsMode::Off);
            {
                let _w = rec.worker_scope(1);
                let _s = rec.span("quiet", vec![]);
            }
            set_mode(ObsMode::Full);
            rec.point("after", vec![]);
        });
        // Nothing from inside the scope, and no worker tag left behind.
        let events = logged(&written.events);
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].require("name").unwrap().to_str().unwrap(),
            "after"
        );
        assert!(events[0].get("worker").is_none());
    }

    #[test]
    fn events_without_scope_carry_no_worker_field() {
        let written = written_by("bare", ObsMode::Full, || {
            recorder().point("bare", vec![]);
        });
        let events = logged(&written.events);
        assert_eq!(events.len(), 1);
        assert!(events[0].get("worker").is_none());
    }

    /// The `profile` section of a summary.
    fn profile_of(summary: &Json) -> Profile {
        Profile::from_json(summary.require("profile").unwrap()).expect("profile parses")
    }

    #[test]
    fn spans_aggregate_into_the_profile_at_root_exit() {
        let rec = recorder();
        let written = written_by("aggregate", ObsMode::Summary, || {
            let _outer = rec.span("outer", vec![]);
            {
                let _inner = rec.span("inner", vec![]);
            }
            {
                let _inner = rec.span("inner", vec![]);
            }
        });
        let profile = profile_of(&written.summary);
        let (name, outer) = profile.roots().next().expect("root recorded");
        assert_eq!(name, "outer");
        assert_eq!(outer.count(), 1);
        let (child_name, inner) = outer.children().next().expect("child recorded");
        assert_eq!(child_name, "inner");
        assert_eq!(inner.count(), 2);
        assert!(outer.total_ns() >= inner.total_ns());
        assert_eq!(outer.self_ns(), outer.total_ns() - inner.total_ns());
    }

    #[test]
    fn profile_matches_event_replay() {
        let rec = recorder();
        let written = written_by("replay", ObsMode::Full, || {
            for _ in 0..3 {
                let _job = rec.span("job", vec![]);
                let _train = rec.span("train", vec![]);
            }
        });
        let live = profile_of(&written.summary);
        assert!(!live.is_empty());
        assert_eq!(live, Profile::from_events(&written.events));
    }

    #[test]
    fn off_mode_spans_do_not_profile() {
        let written = written_by("off_profile", ObsMode::Summary, || {
            set_mode(ObsMode::Off);
            {
                let _s = recorder().span("quiet", vec![]);
            }
            set_mode(ObsMode::Summary);
        });
        assert!(profile_of(&written.summary).is_empty());
    }

    #[test]
    fn drain_kernel_counters_attributes_to_backend_and_phase() {
        use ema_tensor::{KernelBackend, Tensor};
        let rec = recorder();
        let written = written_by("drain", ObsMode::Summary, || {
            let _scope = KernelBackend::Scalar.scoped();
            let a = Tensor::filled(&[2, 3], 1.0);
            let b = Tensor::filled(&[3, 4], 1.0);
            let _ = a.matmul(&b);
            rec.drain_kernel_counters();
            // Take-semantics: a second drain adds nothing.
            let snap = rec.metrics_snapshot();
            rec.drain_kernel_counters();
            assert_eq!(rec.metrics_snapshot(), snap);
        });
        let metrics = written.summary.require("metrics").unwrap();
        let counter = |name: &str| {
            metrics
                .require("counters")
                .unwrap()
                .require(name)
                .unwrap()
                .to_usize()
                .unwrap()
        };
        assert_eq!(counter("kernel.run.scalar.calls"), 1);
        assert_eq!(counter("kernel.run.scalar.flops"), 2 * 2 * 3 * 4);
    }

    #[test]
    fn mode_parsing_matches_knob_docs() {
        assert_eq!(ObsMode::from_u8(ObsMode::Off.to_u8()), ObsMode::Off);
        assert_eq!(ObsMode::from_u8(ObsMode::Summary.to_u8()), ObsMode::Summary);
        assert_eq!(ObsMode::from_u8(ObsMode::Full.to_u8()), ObsMode::Full);
        assert_eq!(ObsMode::Full.label(), "full");
    }
}

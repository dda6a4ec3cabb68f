//! Structured span/event tracing with monotonic nanosecond timing.
//!
//! A [`Recorder`] owns the event sink behind one mutex, a
//! [`MetricsRegistry`], and the active
//! run manifest (see [`crate::manifest`]). Instrumented code normally
//! talks to the process-wide recorder through [`recorder`] and the
//! [`span!`](crate::span!) / [`point!`](crate::point!) macros; tests
//! build private recorders ([`Recorder::in_memory`]) so they never race
//! the global one.
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
//! results and checkpoint JSON never contain wall-clock data, which is
//! what keeps same-seed runs byte-identical under every mode.

use crate::json::Json;
use crate::manifest::RunState;
use crate::metrics::MetricsRegistry;
use crate::profile::Profile;
use std::cell::Cell;
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

/// Where emitted events go.
pub(crate) enum Sink {
    /// Events are counted but not persisted (`off`/`summary`).
    Null,
    /// Events accumulate in memory — test recorders only.
    Memory(Vec<Json>),
    /// Events stream to a JSONL file (`full` mode with an active run).
    File(BufWriter<File>),
}

impl Sink {
    fn write(&mut self, event: &Json) {
        match self {
            Sink::Null => {}
            Sink::Memory(buf) => buf.push(event.clone()),
            Sink::File(w) => {
                // Obs is best-effort: a full disk must not kill training.
                let _ = writeln!(w, "{}", event.compact());
            }
        }
    }
}

pub(crate) struct Inner {
    pub(crate) sink: Sink,
    pub(crate) event_counts: BTreeMap<String, u64>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) run: Option<RunState>,
    /// Aggregated span profile (see [`crate::profile`]); thread-local
    /// aggregators merge into it when their root span closes, and run
    /// boundaries reset it alongside the metrics.
    pub(crate) profile: Profile,
    /// Run names already used by this recorder, for collision-free file
    /// stems; deliberately *not* reset at run boundaries.
    pub(crate) used_run_names: BTreeMap<String, u64>,
}

/// A thread-safe telemetry recorder; see the module docs for the
/// mode semantics.
pub struct Recorder {
    start: Instant,
    mode: AtomicU8,
    pub(crate) inner: Mutex<Inner>,
}

// Per-thread span depth and a small stable-ish thread id for event
// attribution; both are obs-output-only.
thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static THREAD_ID: Cell<Option<usize>> = const { Cell::new(None) };
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
    static WORKER_BUF: std::cell::RefCell<Option<WorkerBuffer>> =
        const { std::cell::RefCell::new(None) };
    static PROFILER: std::cell::RefCell<Option<ThreadProfiler>> =
        const { std::cell::RefCell::new(None) };
}

/// Per-thread span profile under construction: the live call stack plus
/// the durations recorded so far. Like [`WorkerBuffer`] it is keyed to
/// one recorder, and it merges into that recorder's shared
/// [`Profile`] in a single locked section when the thread's *root* span
/// closes — so profiling adds no lock traffic inside the span tree,
/// matching the worker-scope batching discipline.
struct ThreadProfiler {
    rec: *const Recorder,
    stack: Vec<String>,
    profile: Profile,
}

/// Events buffered on a worker thread while a [`WorkerScope`] is open.
/// Keyed to one recorder so a private test recorder on the same thread
/// never gets its events rerouted into the scope's recorder.
struct WorkerBuffer {
    rec: *const Recorder,
    events: Vec<(String, Json)>,
}

static NEXT_THREAD_ID: AtomicUsize = AtomicUsize::new(0);

fn thread_id() -> usize {
    THREAD_ID.with(|cell| match cell.get() {
        Some(id) => id,
        None => {
            let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(id));
            id
        }
    })
}

impl Recorder {
    /// A recorder with the given mode and a null sink.
    #[must_use]
    pub fn with_mode(mode: ObsMode) -> Self {
        Self {
            start: Instant::now(),
            mode: AtomicU8::new(mode.to_u8()),
            inner: Mutex::new(Inner {
                sink: Sink::Null,
                event_counts: BTreeMap::new(),
                metrics: MetricsRegistry::new(),
                run: None,
                profile: Profile::new(),
                used_run_names: BTreeMap::new(),
            }),
        }
    }

    /// A recorder resolved from `EMA_OBS` — the global default.
    #[must_use]
    pub fn from_env() -> Self {
        Self::with_mode(ObsMode::from_env())
    }

    /// A recorder whose events accumulate in memory, for tests; read
    /// them back with [`Recorder::drain_events`].
    #[must_use]
    pub fn in_memory(mode: ObsMode) -> Self {
        let rec = Self::with_mode(mode);
        rec.inner.lock().expect("fresh lock").sink = Sink::Memory(Vec::new());
        rec
    }

    /// The current mode (one relaxed atomic load — safe on hot paths).
    #[must_use]
    pub fn mode(&self) -> ObsMode {
        ObsMode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Overrides the mode (the `--obs` bench flag and tests use this;
    /// normal runs inherit `EMA_OBS`).
    pub fn set_mode(&self, mode: ObsMode) {
        self.mode.store(mode.to_u8(), Ordering::Relaxed);
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
        // Inside a worker scope, events park in the thread-local buffer
        // and reach the shared sink in one batch when the scope closes —
        // concurrent individuals' span trees stay contiguous in the
        // JSONL instead of interleaving line by line.
        let event = match WORKER_BUF.with(|b| {
            if let Some(buf) = b.borrow_mut().as_mut() {
                if std::ptr::eq(buf.rec, self) {
                    buf.events.push((name.to_string(), event));
                    return None;
                }
            }
            Some(event)
        }) {
            Some(event) => event,
            None => return,
        };
        let mut inner = self.lock();
        *inner.event_counts.entry(name.to_string()).or_insert(0) += 1;
        inner.sink.write(&event);
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
                profiled: false,
            };
        }
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        // Push onto this thread's profile stack — unless a *different*
        // recorder's profiler is mid-tree here (a private test recorder
        // nesting inside global spans, or vice versa); those spans stay
        // unprofiled rather than corrupting the other tree.
        let profiled = PROFILER.with(|p| {
            let mut slot = p.borrow_mut();
            match slot.as_mut() {
                None => {
                    *slot = Some(ThreadProfiler {
                        rec: self,
                        stack: vec![name.to_string()],
                        profile: Profile::new(),
                    });
                    true
                }
                Some(prof) if std::ptr::eq(prof.rec, self) => {
                    prof.stack.push(name.to_string());
                    true
                }
                Some(_) => false,
            }
        });
        let thread = thread_id();
        let start_ns = self.elapsed_ns();
        let mut entry = vec![
            ("ev", Json::from("enter")),
            ("span", Json::from(name)),
            ("t_ns", Json::from(start_ns)),
            ("thread", Json::from(thread)),
            ("depth", Json::from(depth)),
        ];
        if let Some(worker) = WORKER.with(Cell::get) {
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
            profiled,
        }
    }

    /// Emits one instantaneous event (no duration), e.g. a
    /// `train_epoch` sample or an `early_stop` decision.
    pub fn point(&self, name: &str, fields: Vec<(&str, Json)>) {
        if self.mode() == ObsMode::Off {
            return;
        }
        let mut entry = vec![
            ("ev", Json::from("point")),
            ("name", Json::from(name)),
            ("t_ns", Json::from(self.elapsed_ns())),
            ("thread", Json::from(thread_id())),
        ];
        if let Some(worker) = WORKER.with(Cell::get) {
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

    /// Takes the buffered events out of a [`Recorder::in_memory`]
    /// recorder (empty for other sinks).
    #[must_use]
    pub fn drain_events(&self) -> Vec<Json> {
        match &mut self.lock().sink {
            Sink::Memory(buf) => std::mem::take(buf),
            _ => Vec::new(),
        }
    }

    /// A copy of the aggregated span profile so far. Only *fully closed*
    /// root spans are visible — per-thread trees still open contribute
    /// nothing until their root exits (run summaries are written after
    /// all spans close, so they always see the complete profile).
    #[must_use]
    pub fn profile_snapshot(&self) -> Profile {
        self.lock().profile.clone()
    }

    /// Drains this thread's [`ema_tensor`] kernel work counters into
    /// metrics counters named `kernel.<phase>.<backend>.{calls,flops,
    /// bytes}`, where `<phase>` is the active run phase (or `run`
    /// without one). Take-semantics: each call consumes what this
    /// thread accumulated since the previous drain, so the drain sites
    /// (executor jobs, `train_cohort`, the bench harness) compose
    /// without double counting. No-op in `Off` mode — but the counters
    /// only accumulate while the mode keeps [`ema_tensor::
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
    profiled: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(rec) = self.rec else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let now = rec.elapsed_ns();
        let dur_ns = now.saturating_sub(self.start_ns);
        let mut entry = vec![
            ("ev", Json::from("exit")),
            ("span", Json::from(self.name.as_str())),
            ("t_ns", Json::from(now)),
            ("thread", Json::from(self.thread)),
            ("depth", Json::from(self.depth)),
        ];
        if let Some(worker) = WORKER.with(Cell::get) {
            entry.push(("worker", Json::from(worker)));
        }
        entry.push(("dur_ns", Json::from(dur_ns)));
        rec.emit(&self.name, Json::obj(entry));
        if self.profiled {
            self.record_profile(rec, dur_ns);
        }
    }
}

impl SpanGuard<'_> {
    /// Records this span's duration under its call path and, when it
    /// was the thread's root span, merges the finished per-thread tree
    /// into the recorder. Guards held past their scope (non-LIFO drops)
    /// are discarded defensively, matching
    /// [`Profile::from_events`](crate::profile::Profile::from_events).
    fn record_profile(&self, rec: &Recorder, dur_ns: u64) {
        let finished = PROFILER.with(|p| {
            let mut slot = p.borrow_mut();
            let prof = slot.as_mut()?;
            if !std::ptr::eq(prof.rec, rec) {
                return None;
            }
            if prof.stack.last().map(String::as_str) == Some(self.name.as_str()) {
                prof.profile.record(&prof.stack, dur_ns);
                prof.stack.pop();
            }
            if prof.stack.is_empty() {
                slot.take()
            } else {
                None
            }
        });
        if let Some(prof) = finished {
            rec.lock().profile.merge(&prof.profile);
        }
    }
}

/// RAII marker for "this thread is executor worker `w`, running one
/// job". While the scope is open, every event this recorder emits on
/// the thread carries a `worker` field and is buffered thread-locally;
/// dropping the scope flushes the batch through the recorder in one
/// locked section, so a job's span tree lands contiguously (and each
/// JSONL line stays well-formed) however many workers run concurrently.
///
/// Scopes do not nest — opening a second scope on the same thread
/// flushes nothing by itself but replaces the buffer, so the executor
/// opens exactly one per job.
pub struct WorkerScope<'a> {
    rec: &'a Recorder,
    prev_worker: Option<usize>,
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
                prev_worker: None,
                active: false,
            };
        }
        let prev_worker = WORKER.with(|w| w.replace(Some(worker)));
        WORKER_BUF.with(|b| {
            *b.borrow_mut() = Some(WorkerBuffer {
                rec: self,
                events: Vec::new(),
            });
        });
        WorkerScope {
            rec: self,
            prev_worker,
            active: true,
        }
    }
}

impl Drop for WorkerScope<'_> {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        WORKER.with(|w| w.set(self.prev_worker));
        let buffer = WORKER_BUF.with(|b| b.borrow_mut().take());
        let Some(buffer) = buffer else { return };
        if !std::ptr::eq(buffer.rec, self.rec) {
            return; // replaced by a newer scope; nothing of ours left
        }
        let mut inner = self.rec.lock();
        for (name, event) in buffer.events {
            *inner.event_counts.entry(name).or_insert(0) += 1;
            inner.sink.write(&event);
        }
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder, created from `EMA_OBS` on first use.
/// Instrumented library code (training loop, pipeline, bench harness)
/// reports here. Kernel work counting in `ema-tensor` follows this
/// recorder's mode: enabled unless the mode is `Off`.
pub fn recorder() -> &'static Recorder {
    GLOBAL.get_or_init(|| {
        let rec = Recorder::from_env();
        ema_tensor::set_kernel_counting(rec.mode() != ObsMode::Off);
        rec
    })
}

/// Shorthand for `recorder().mode()`.
#[must_use]
pub fn mode() -> ObsMode {
    recorder().mode()
}

/// Sets the global recorder's mode and keeps the process-wide
/// `ema-tensor` kernel counting flag in sync (off ⇔ no counting, so
/// `EMA_OBS=off` pays nothing on the matmul hot path).
pub fn set_mode(mode: ObsMode) {
    recorder().set_mode(mode);
    ema_tensor::set_kernel_counting(mode != ObsMode::Off);
}

/// Shorthand for `recorder().drain_kernel_counters()`: attribute this
/// thread's accumulated kernel work to the global recorder's metrics.
pub fn drain_kernel_counters() {
    recorder().drain_kernel_counters();
}

/// Opens a span on the global recorder:
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

/// Emits an instantaneous event on the global recorder:
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

    #[test]
    fn off_mode_emits_nothing() {
        let rec = Recorder::in_memory(ObsMode::Off);
        {
            let _s = rec.span("quiet", vec![]);
            rec.point("nope", vec![]);
            rec.inc_counter("n", 1);
        }
        assert!(rec.drain_events().is_empty());
        assert_eq!(
            rec.metrics_snapshot().require("counters").unwrap(),
            &Json::Obj(vec![])
        );
    }

    #[test]
    fn spans_emit_balanced_enter_exit_with_duration() {
        let rec = Recorder::in_memory(ObsMode::Full);
        {
            let _outer = rec.span("outer", vec![("k", Json::from(1usize))]);
            let _inner = rec.span("inner", vec![]);
        }
        let events = rec.drain_events();
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

    /// Begins a run of `rec` writing its summary under a scratch
    /// directory named `name`.
    fn begin_scratch_run(rec: &Recorder, name: &str) {
        let dir = crate::manifest::tests::scratch(name);
        assert!(rec.begin_run_in(name, Json::Null, &dir));
    }

    /// Finishes `rec`'s run and reads the counts of events `names` from
    /// the summary's `events` object.
    fn finished_event_counts<const N: usize>(rec: &Recorder, names: [&str; N]) -> [usize; N] {
        let path = rec.finish_run().expect("summary written");
        let summary = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let events = summary.require("events").unwrap();
        names.map(|name| events.require(name).unwrap().to_usize().unwrap())
    }

    #[test]
    fn summary_mode_counts_without_persisting() {
        let rec = Recorder::with_mode(ObsMode::Summary);
        begin_scratch_run(&rec, "counts");
        rec.point("train_epoch", vec![("loss", Json::Num(0.5))]);
        rec.point("train_epoch", vec![("loss", Json::Num(0.4))]);
        assert!(rec.drain_events().is_empty());
        assert_eq!(finished_event_counts(&rec, ["train_epoch"]), [2]);
    }

    #[test]
    fn recorder_is_thread_safe() {
        let rec = Recorder::in_memory(ObsMode::Full);
        begin_scratch_run(&rec, "threads");
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
        assert_eq!(finished_event_counts(&rec, ["worker"]), [4 * 25 * 2]); // enter + exit
        let snap = rec.metrics_snapshot();
        let counters = snap.require("counters").unwrap();
        assert_eq!(
            counters.require("iterations").unwrap().to_usize().unwrap(),
            100
        );
    }

    #[test]
    fn worker_scope_tags_and_batches_events() {
        let rec = Recorder::in_memory(ObsMode::Full);
        begin_scratch_run(&rec, "worker");
        let _ = rec.drain_events(); // the run_start point
        {
            let _w = rec.worker_scope(3);
            let _s = rec.span("job", vec![]);
            rec.point("inside", vec![]);
            // Buffered: nothing reaches the sink yet.
            assert!(rec.drain_events().is_empty());
        }
        let events = rec.drain_events();
        assert_eq!(events.len(), 3); // enter, point, exit
        for e in &events {
            assert_eq!(e.require("worker").unwrap().to_usize().unwrap(), 3);
        }
        assert_eq!(finished_event_counts(&rec, ["job", "inside"]), [2, 1]);
    }

    #[test]
    fn worker_scopes_keep_concurrent_jobs_contiguous() {
        let rec = Recorder::in_memory(ObsMode::Full);
        std::thread::scope(|scope| {
            for w in 0..3usize {
                let rec = &rec;
                scope.spawn(move || {
                    for _ in 0..5 {
                        let _ws = rec.worker_scope(w);
                        let _s = rec.span("job", vec![("w", Json::from(w))]);
                        rec.point("step", vec![]);
                    }
                });
            }
        });
        let events = rec.drain_events();
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
        let rec = Recorder::in_memory(ObsMode::Off);
        {
            let _w = rec.worker_scope(1);
            let _s = rec.span("quiet", vec![]);
        }
        assert!(rec.drain_events().is_empty());
    }

    #[test]
    fn events_without_scope_carry_no_worker_field() {
        let rec = Recorder::in_memory(ObsMode::Full);
        rec.point("bare", vec![]);
        let events = rec.drain_events();
        assert!(events[0].get("worker").is_none());
    }

    #[test]
    fn spans_aggregate_into_the_profile_at_root_exit() {
        let rec = Recorder::in_memory(ObsMode::Full);
        {
            let _outer = rec.span("outer", vec![]);
            {
                let _inner = rec.span("inner", vec![]);
            }
            {
                let _inner = rec.span("inner", vec![]);
            }
            // Root still open: nothing has merged yet.
            assert!(rec.profile_snapshot().is_empty());
        }
        let profile = rec.profile_snapshot();
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
        let rec = Recorder::in_memory(ObsMode::Full);
        for _ in 0..3 {
            let _job = rec.span("job", vec![]);
            let _train = rec.span("train", vec![]);
        }
        let live = rec.profile_snapshot();
        let replayed = crate::profile::Profile::from_events(&rec.drain_events());
        assert_eq!(live, replayed);
    }

    #[test]
    fn off_mode_spans_do_not_profile() {
        let rec = Recorder::in_memory(ObsMode::Off);
        {
            let _s = rec.span("quiet", vec![]);
        }
        assert!(rec.profile_snapshot().is_empty());
    }

    #[test]
    fn nested_foreign_recorder_spans_stay_unprofiled() {
        let rec_a = Recorder::in_memory(ObsMode::Full);
        let rec_b = Recorder::in_memory(ObsMode::Full);
        {
            let _a = rec_a.span("a_root", vec![]);
            {
                // B's span opens inside A's tree on this thread; it must
                // not corrupt A's stack nor create a bogus B tree.
                let _b = rec_b.span("b_span", vec![]);
            }
            {
                let _a2 = rec_a.span("a_child", vec![]);
            }
        }
        assert!(rec_b.profile_snapshot().is_empty());
        let profile = rec_a.profile_snapshot();
        let (name, root) = profile.roots().next().unwrap();
        assert_eq!(name, "a_root");
        assert_eq!(root.children().next().unwrap().0, "a_child");
    }

    #[test]
    fn drain_kernel_counters_attributes_to_backend_and_phase() {
        use ema_tensor::{KernelBackend, Tensor};
        let rec = Recorder::in_memory(ObsMode::Summary);
        // The drain takes whatever this thread accumulated; clear first
        // so other tests' kernel work cannot leak in.
        let _ = ema_tensor::take_kernel_counters();
        ema_tensor::set_kernel_counting(true);
        let _scope = KernelBackend::Scalar.scoped();
        let a = Tensor::filled(&[2, 3], 1.0);
        let b = Tensor::filled(&[3, 4], 1.0);
        let _ = a.matmul(&b);
        rec.drain_kernel_counters();
        let snap = rec.metrics_snapshot();
        let counters = snap.require("counters").unwrap();
        assert_eq!(
            counters
                .require("kernel.run.scalar.calls")
                .unwrap()
                .to_usize()
                .unwrap(),
            1
        );
        assert_eq!(
            counters
                .require("kernel.run.scalar.flops")
                .unwrap()
                .to_usize()
                .unwrap(),
            2 * 2 * 3 * 4
        );
        // Take-semantics: a second drain adds nothing.
        rec.drain_kernel_counters();
        let snap2 = rec.metrics_snapshot();
        assert_eq!(snap, snap2);
    }

    #[test]
    fn mode_parsing_matches_knob_docs() {
        assert_eq!(ObsMode::from_u8(ObsMode::Off.to_u8()), ObsMode::Off);
        assert_eq!(ObsMode::from_u8(ObsMode::Summary.to_u8()), ObsMode::Summary);
        assert_eq!(ObsMode::from_u8(ObsMode::Full.to_u8()), ObsMode::Full);
        assert_eq!(ObsMode::Full.label(), "full");
    }
}

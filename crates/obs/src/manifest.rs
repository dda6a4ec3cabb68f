//! Run manifests: one JSONL event log plus one summary JSON per
//! experiment run.
//!
//! A *run* brackets one experiment invocation (a bench binary, an
//! example, a CI smoke test). While a run is active in `full` mode the
//! recorder streams every event to `<dir>/<name>.jsonl`; at
//! [`Recorder::finish_run`] a `<name>.summary.json` manifest is written
//! capturing the run config, per-phase wall-times, event counts and the
//! metrics snapshot (loss/grad-norm/epoch histograms, early-stop
//! counters). File names carry no timestamps, so re-running a named
//! experiment overwrites its previous manifest deterministically — all
//! nondeterministic timing lives *inside* the obs files, never in
//! `results/*.json`.

use crate::json::Json;
use crate::trace::{ObsMode, Recorder};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// One named phase of a run (e.g. `dataset`, `experiment`, `report`).
pub(crate) struct Phase {
    title: String,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// The active run tracked inside the recorder.
pub(crate) struct RunState {
    name: String,
    /// File stem for this run's outputs: the name itself, or
    /// `<name>.<n>` when the process has begun `n` ≥ 2 runs with that
    /// name — a deterministic, clock-free collision guard so a process
    /// that runs the same experiment twice keeps both manifests.
    stem: String,
    dir: PathBuf,
    config: Json,
    mode: ObsMode,
    started_ns: u64,
    phases: Vec<Phase>,
    annotations: Vec<(String, Json)>,
}

impl RunState {
    /// Title of the currently open phase, when any.
    pub(crate) fn current_phase_title(&self) -> Option<&str> {
        self.phases
            .last()
            .filter(|p| p.end_ns.is_none())
            .map(|p| p.title.as_str())
    }
}

/// The workspace-anchored obs output directory, `results/obs/` at the
/// repository root. Anchored via the crate's manifest dir (not the
/// CWD) because `cargo run`, `cargo bench` and `cargo test` start
/// binaries in different directories — the same fix the bench harness
/// uses for `results/`.
#[must_use]
pub fn default_obs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the workspace root")
        .join("results")
        .join("obs")
}

impl Recorder {
    /// Starts a run manifest under [`default_obs_dir`]. Returns `false`
    /// (and touches nothing on disk) in `Off` mode.
    pub fn begin_run(&self, name: &str, config: Json) -> bool {
        self.begin_run_in(name, config, &default_obs_dir())
    }

    /// Starts a run manifest under an explicit directory (tests point
    /// this at a scratch dir). An already-active run is finished first.
    /// In `full` mode this creates `<dir>/<name>.jsonl` and streams
    /// events to it; in `summary` mode only the final summary JSON will
    /// be written. Returns `false` in `Off` mode.
    pub fn begin_run_in(&self, name: &str, config: Json, dir: &Path) -> bool {
        let mode = self.mode();
        if mode == ObsMode::Off {
            return false;
        }
        // The calling thread's undrained kernel work belongs to what ran
        // before: the previous run, finished below, or nothing this run
        // reports (the reset below discards it).
        self.drain_kernel_counters();
        let started_ns = self.elapsed_ns();
        let mut inner = self.lock();
        if inner.run.is_some() {
            let _ = finish_locked(&mut inner, self.elapsed_ns());
        }
        // Each manifest summarises only its own run.
        inner.metrics.reset();
        inner.event_counts.clear();
        inner.profile = crate::profile::Profile::new();
        // Collision-free file stem: the n-th run named `name` in this
        // process writes `<name>.<n>.*` for n ≥ 2 (first run keeps the
        // plain name, so existing single-run paths are unchanged).
        let uses = inner.used_run_names.entry(name.to_string()).or_insert(0);
        *uses += 1;
        let stem = if *uses == 1 {
            name.to_string()
        } else {
            format!("{name}.{uses}")
        };
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!(
                "warning: cannot create {}: {e}; obs run disabled",
                dir.display()
            );
            return false;
        }
        if mode == ObsMode::Full {
            let path = dir.join(format!("{stem}.jsonl"));
            match fs::File::create(&path) {
                Ok(f) => inner.log = Some(BufWriter::new(f)),
                Err(e) => {
                    eprintln!(
                        "warning: cannot create {}: {e}; events not logged",
                        path.display()
                    );
                }
            }
        }
        inner.run = Some(RunState {
            name: name.to_string(),
            stem,
            dir: dir.to_path_buf(),
            config,
            mode,
            started_ns,
            phases: Vec::new(),
            annotations: Vec::new(),
        });
        drop(inner);
        self.point("run_start", vec![("run", Json::from(name))]);
        true
    }

    /// Opens a named phase, closing the previous one. Phase wall-times
    /// land in the run summary; a `phase` point event marks the
    /// boundary in the JSONL log. The calling thread's undrained kernel
    /// work is drained first, into the phase that closes. No-op without
    /// an active run, apart from that drain.
    pub fn phase(&self, title: &str) {
        self.drain_kernel_counters();
        let now = self.elapsed_ns();
        {
            let mut inner = self.lock();
            let Some(run) = inner.run.as_mut() else {
                return;
            };
            if let Some(open) = run.phases.last_mut() {
                open.end_ns.get_or_insert(now);
            }
            run.phases.push(Phase {
                title: title.to_string(),
                start_ns: now,
                end_ns: None,
            });
        }
        self.point("phase", vec![("title", Json::from(title))]);
    }

    /// Attaches an extra key/value to the run summary (e.g. a result
    /// file path, a table checksum). No-op without an active run.
    pub fn annotate(&self, key: &str, value: Json) {
        let mut inner = self.lock();
        if let Some(run) = inner.run.as_mut() {
            run.annotations.push((key.to_string(), value));
        }
    }

    /// Closes the active run: drains the calling thread's kernel work
    /// into the last phase (work that ran outside any executor job,
    /// such as a cluster plan trained on the caller, is counted here),
    /// flushes the JSONL log and writes `<name>.summary.json` (plus
    /// `<name>.folded` when the span profile is non-empty), returning
    /// the summary path. `None` when no run is active or the summary
    /// could not be written.
    pub fn finish_run(&self) -> Option<PathBuf> {
        self.drain_kernel_counters();
        let now = self.elapsed_ns();
        let mut inner = self.lock();
        finish_locked(&mut inner, now)
    }
}

fn finish_locked(inner: &mut crate::trace::Inner, now: u64) -> Option<PathBuf> {
    let mut run = inner.run.take()?;
    if let Some(open) = run.phases.last_mut() {
        open.end_ns.get_or_insert(now);
    }
    // Stop streaming before summarising. Dropping the writer would
    // swallow a failed final flush, so flush it here and say so.
    if let Some(mut log) = inner.log.take() {
        if let Err(e) = log.flush() {
            let path = run.dir.join(format!("{}.jsonl", run.stem));
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }

    let phases: Vec<Json> = run
        .phases
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("title", Json::from(p.title.as_str())),
                ("start_ns", Json::from(p.start_ns)),
                (
                    "wall_ns",
                    Json::from(p.end_ns.unwrap_or(now).saturating_sub(p.start_ns)),
                ),
            ])
        })
        .collect();
    let events = Json::Obj(
        inner
            .event_counts
            .iter()
            .map(|(k, &v)| (k.clone(), Json::from(v)))
            .collect(),
    );

    let profile = std::mem::take(&mut inner.profile);
    let mut pairs = vec![
        ("run", Json::from(run.name.as_str())),
        ("mode", Json::from(run.mode.label())),
        ("config", std::mem::replace(&mut run.config, Json::Null)),
        ("wall_ns", Json::from(now.saturating_sub(run.started_ns))),
        ("phases", Json::Arr(phases)),
        ("events", events),
        ("metrics", inner.metrics.snapshot()),
        ("profile", profile.to_json()),
    ];
    for (k, v) in &run.annotations {
        pairs.push((k.as_str(), v.clone()));
    }
    let summary = Json::obj(pairs);

    // Folded stacks ride along as `<stem>.folded` (flamegraph.pl /
    // speedscope input); skipped when no span closed during the run.
    if !profile.is_empty() {
        let folded_path = run.dir.join(format!("{}.folded", run.stem));
        if let Err(e) = fs::write(&folded_path, profile.folded()) {
            eprintln!("warning: cannot write {}: {e}", folded_path.display());
        }
    }

    let path = run.dir.join(format!("{}.summary.json", run.stem));
    match fs::write(&path, summary.pretty()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::trace::{recorder, set_mode};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serialises this crate's tests that use the recorder: each sets
    /// the mode, runs in a scratch directory and reads back what the run
    /// wrote.
    static RECORDER_LOCK: Mutex<()> = Mutex::new(());

    /// Takes the recorder lock and sets `mode`.
    pub(crate) fn exclusive(mode: ObsMode) -> MutexGuard<'static, ()> {
        let guard = RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_mode(mode);
        guard
    }

    /// An empty scratch directory `name` under the workspace target.
    pub(crate) fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("target")
            .join("obs-scratch")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// What a finished run wrote: its JSONL events (none without a
    /// log) and its summary.
    pub(crate) struct Written {
        pub(crate) events: Vec<Json>,
        pub(crate) summary: Json,
    }

    /// Runs `body` as run `name` in `mode`, under the recorder lock and
    /// in scratch directory `name`, and reads back what the run wrote.
    pub(crate) fn written_by(name: &str, mode: ObsMode, body: impl FnOnce()) -> Written {
        let _guard = exclusive(mode);
        assert!(recorder().begin_run_in(name, Json::Null, &scratch(name)));
        body();
        let summary = recorder().finish_run().expect("summary written");
        let stem = summary.to_str().unwrap().strip_suffix(".summary.json");
        let log = format!("{}.jsonl", stem.unwrap());
        Written {
            events: fs::read_to_string(log)
                .map(|text| {
                    text.lines()
                        .map(|line| Json::parse(line).expect("line parses"))
                        .collect()
                })
                .unwrap_or_default(),
            summary: Json::parse(&fs::read_to_string(summary).unwrap()).unwrap(),
        }
    }

    #[test]
    fn off_mode_creates_no_files() {
        let _guard = exclusive(ObsMode::Off);
        let dir = scratch("off");
        let rec = recorder();
        assert!(!rec.begin_run_in("probe", Json::Null, &dir));
        assert!(rec.finish_run().is_none());
        assert!(!dir.exists(), "off mode must not touch the filesystem");
    }

    #[test]
    fn full_mode_streams_jsonl_and_writes_summary() {
        let _guard = exclusive(ObsMode::Full);
        let dir = scratch("full");
        let rec = recorder();
        assert!(rec.begin_run_in("full", Json::obj(vec![("n", Json::from(2usize))]), &dir));
        rec.phase("work");
        {
            let _s = rec.span("step", vec![("i", Json::from(0usize))]);
            rec.point("train_epoch", vec![("loss", Json::Num(0.5))]);
        }
        rec.observe("train_loss", &crate::metrics::LOSS_BUCKETS, 0.5);
        rec.phase("report");
        let summary_path = rec.finish_run().expect("summary written");

        // Every JSONL line parses; the epoch event is present.
        let log = fs::read_to_string(dir.join("full.jsonl")).unwrap();
        let mut saw_epoch = false;
        for line in log.lines() {
            let ev = Json::parse(line).expect("line parses");
            if ev.get("name").and_then(Json::as_str) == Some("train_epoch") {
                saw_epoch = true;
                assert!(ev.require("t_ns").unwrap().to_f64().unwrap() >= 0.0);
            }
        }
        assert!(saw_epoch);

        // The summary captures phases, events and metrics.
        let summary = Json::parse(&fs::read_to_string(&summary_path).unwrap()).unwrap();
        assert_eq!(summary.require("run").unwrap().to_str().unwrap(), "full");
        assert_eq!(summary.require("mode").unwrap().to_str().unwrap(), "full");
        let phases = summary.require("phases").unwrap().to_arr().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(
            phases[0].require("title").unwrap().to_str().unwrap(),
            "work"
        );
        assert!(summary
            .require("events")
            .unwrap()
            .require("train_epoch")
            .is_ok());
        let hist = summary
            .require("metrics")
            .unwrap()
            .require("histograms")
            .unwrap()
            .require("train_loss")
            .unwrap();
        assert_eq!(hist.require("total").unwrap().to_usize().unwrap(), 1);
    }

    #[test]
    fn summary_mode_writes_summary_but_no_jsonl() {
        let _guard = exclusive(ObsMode::Summary);
        let dir = scratch("summary");
        let rec = recorder();
        assert!(rec.begin_run_in("summary", Json::Null, &dir));
        rec.point("train_epoch", vec![("loss", Json::Num(0.5))]);
        let path = rec.finish_run().expect("summary written");
        assert!(path.exists());
        assert!(
            !dir.join("summary.jsonl").exists(),
            "summary mode streams no JSONL"
        );
        let summary = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            summary
                .require("events")
                .unwrap()
                .require("train_epoch")
                .unwrap()
                .to_usize()
                .unwrap(),
            1
        );
    }

    #[test]
    fn summary_carries_the_profile_and_folded_stacks_land_on_disk() {
        let _guard = exclusive(ObsMode::Summary);
        let dir = scratch("profile");
        let rec = recorder();
        assert!(rec.begin_run_in("profile", Json::Null, &dir));
        rec.phase("work");
        {
            let _outer = rec.span("main", vec![]);
            let _inner = rec.span("step", vec![]);
        }
        let path = rec.finish_run().expect("summary written");
        let summary = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        let profile =
            crate::profile::Profile::from_json(summary.require("profile").unwrap()).unwrap();
        let (name, main) = profile.roots().next().expect("profiled root");
        assert_eq!(name, "main");
        assert_eq!(main.children().next().unwrap().0, "step");
        let folded = fs::read_to_string(dir.join("profile.folded")).unwrap();
        assert!(folded.lines().any(|l| l.starts_with("main;step ")));
        // The next run starts from an empty profile.
        assert!(rec.begin_run_in("profile_again", Json::Null, &dir));
        let again = rec.finish_run().unwrap();
        let summary = Json::parse(&fs::read_to_string(&again).unwrap()).unwrap();
        assert_eq!(
            summary.require("profile").unwrap().to_arr().unwrap().len(),
            0
        );
        assert!(
            !dir.join("profile_again.folded").exists(),
            "empty profiles write no folded file"
        );
    }

    #[test]
    fn repeated_run_names_get_distinct_file_stems() {
        let _guard = exclusive(ObsMode::Summary);
        let dir = scratch("collide");
        let rec = recorder();
        for i in 0..3usize {
            assert!(rec.begin_run_in("collide", Json::obj(vec![("i", Json::from(i))]), &dir));
            rec.finish_run().expect("summary written");
        }
        for stem in ["collide", "collide.2", "collide.3"] {
            let path = dir.join(format!("{stem}.summary.json"));
            assert!(path.exists(), "missing {}", path.display());
            let summary = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
            // The run *name* stays the plain name; only files get stems.
            assert_eq!(summary.require("run").unwrap().to_str().unwrap(), "collide");
        }
        // All three configs survived — nothing was overwritten.
        let i_of = |stem: &str| {
            let path = dir.join(format!("{stem}.summary.json"));
            let s = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
            s.require("config")
                .unwrap()
                .require("i")
                .unwrap()
                .to_usize()
                .unwrap()
        };
        assert_eq!(
            (i_of("collide"), i_of("collide.2"), i_of("collide.3")),
            (0, 1, 2)
        );
    }

    /// `kernel.<phase>.scalar.calls` in a metrics snapshot.
    fn calls(metrics: &Json, phase: &str) -> usize {
        let key = format!("kernel.{phase}.scalar.calls");
        metrics
            .require("counters")
            .unwrap()
            .require(&key)
            .unwrap()
            .to_usize()
            .unwrap()
    }

    /// Runs `n` small scalar matmuls on this thread.
    fn matmuls(n: usize) {
        use ema_tensor::{KernelBackend, Tensor};
        let _scope = KernelBackend::Scalar.scoped();
        for _ in 0..n {
            let _ = Tensor::filled(&[2, 3], 1.0).matmul(&Tensor::filled(&[3, 4], 1.0));
        }
    }

    #[test]
    fn current_phase_tracks_the_open_phase() {
        // A kernel drain lands in `kernel.<open phase>.*`, or in
        // `kernel.run.*` while no phase is open.
        let _guard = exclusive(ObsMode::Summary);
        let dir = scratch("phase");
        let rec = recorder();
        let matmuls_then_drain = |n: usize| {
            matmuls(n);
            rec.drain_kernel_counters();
        };
        assert!(rec.begin_run_in("phase", Json::Null, &dir));
        matmuls_then_drain(1);
        rec.phase("train");
        matmuls_then_drain(2);
        rec.phase("report");
        matmuls_then_drain(3);
        let path = rec.finish_run().expect("summary written");
        let summary = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        let metrics = summary.require("metrics").unwrap();
        assert_eq!(
            (
                calls(metrics, "run"),
                calls(metrics, "train"),
                calls(metrics, "report")
            ),
            (1, 2, 3)
        );
        // The run is over, so no phase is open.
        matmuls_then_drain(4);
        assert_eq!(calls(&rec.metrics_snapshot(), "run"), 5);
    }

    #[test]
    fn phases_and_the_run_end_drain_the_calling_thread() {
        // Work no executor job drained — a cluster plan trained on the
        // calling thread, say — lands in the phase it ran in.
        let _guard = exclusive(ObsMode::Summary);
        let rec = recorder();
        assert!(rec.begin_run_in("phase_drains", Json::Null, &scratch("phase_drains")));
        matmuls(1);
        rec.phase("train");
        matmuls(2);
        rec.phase("report");
        matmuls(3);
        let path = rec.finish_run().expect("summary written");
        let summary = Json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        let metrics = summary.require("metrics").unwrap();
        assert_eq!(
            (
                calls(metrics, "run"),
                calls(metrics, "train"),
                calls(metrics, "report")
            ),
            (1, 2, 3)
        );
    }

    #[test]
    fn beginning_a_run_finishes_the_previous_one() {
        let _guard = exclusive(ObsMode::Summary);
        let dir = scratch("restart");
        let rec = recorder();
        assert!(rec.begin_run_in("first", Json::Null, &dir));
        rec.annotate("note", Json::from("hello"));
        assert!(rec.begin_run_in("second", Json::Null, &dir));
        assert!(dir.join("first.summary.json").exists());
        let first =
            Json::parse(&fs::read_to_string(dir.join("first.summary.json")).unwrap()).unwrap();
        assert_eq!(first.require("note").unwrap().to_str().unwrap(), "hello");
        rec.finish_run();
        assert!(dir.join("second.summary.json").exists());
    }
}

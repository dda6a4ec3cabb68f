//! Property tests for the obs layer: histogram bucket/quantile
//! invariants, span-nesting balance and span-profile invariants,
//! driven by `ema_check`. The span properties run on the process's
//! recorder, one run per case under [`RECORDER_LOCK`], and check what
//! each run wrote: its JSONL log and the profile in its summary.

use ema_check::{gen, prop_assert, prop_assert_eq, prop_tests};
use ema_obs::{recorder, set_mode, Histogram, Json, ObsMode, Profile};
use ema_tensor::Rng64;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Serialises the properties that use the recorder.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

/// Strictly increasing finite bucket bounds (1–8 of them).
fn bounds_gen(rng: &mut Rng64) -> Vec<f64> {
    let n = gen::usize_in(rng, 1, 8);
    let mut bounds = Vec::with_capacity(n);
    let mut edge = gen::f64_in(rng, -100.0, 100.0);
    for _ in 0..n {
        bounds.push(edge);
        edge += gen::f64_in(rng, 1e-3, 50.0);
    }
    bounds
}

/// Observations spanning well below, inside, and above typical bounds.
fn observations_gen(rng: &mut Rng64) -> Vec<f64> {
    gen::vec_f64(rng, -500.0, 500.0, 0, 64)
}

/// A random span-nesting program: at each step open a new span or close
/// the deepest one; anything still open at the end closes implicitly
/// (guards drop LIFO).
fn program_gen(rng: &mut Rng64) -> Vec<bool> {
    (0..gen::usize_in(rng, 0, 40))
        .map(|_| rng.uniform() < 0.55)
        .collect()
}

/// Runs `body` as a `full`-mode run named `name` in a scratch
/// directory and returns the events it logged (after its `run_start`
/// point) and the profile its summary carries.
fn run_full(name: &str, body: impl FnOnce()) -> (Vec<Json>, Profile) {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    set_mode(ObsMode::Full);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("target/obs-scratch/properties");
    assert!(recorder().begin_run_in(name, Json::Null, &dir));
    body();
    let summary = recorder().finish_run().expect("summary written");
    let text = std::fs::read_to_string(&summary).unwrap();
    let profile = Json::parse(&text).unwrap();
    let profile = Profile::from_json(profile.require("profile").unwrap()).unwrap();
    let stem = summary.to_str().unwrap().strip_suffix(".summary.json");
    let log = std::fs::read_to_string(format!("{}.jsonl", stem.unwrap())).unwrap();
    let events = log
        .lines()
        .map(|line| Json::parse(line).expect("line parses"))
        .filter(|e| e.get("name").and_then(Json::as_str) != Some("run_start"))
        .collect();
    (events, profile)
}

/// Plays one nesting program's spans from the current thread.
fn drive_program(program: &[bool]) {
    let mut stack = Vec::new();
    for (i, &open) in program.iter().enumerate() {
        if open || stack.is_empty() {
            let name = format!("span{}", i % 5);
            stack.push(recorder().span(&name, vec![("step", Json::from(i))]));
        } else {
            drop(stack.pop());
        }
    }
    while let Some(guard) = stack.pop() {
        drop(guard);
    }
}

/// 2–4 independent nesting programs, one per simulated worker.
fn jobs_gen(rng: &mut Rng64) -> Vec<Vec<bool>> {
    (0..gen::usize_in(rng, 2, 4))
        .map(|_| program_gen(rng))
        .collect()
}

prop_tests! {
    fn histogram_counts_sum_to_total(bounds in bounds_gen, obs in observations_gen) {
        let mut h = Histogram::new(&bounds);
        for &v in &obs {
            h.observe(v);
        }
        prop_assert_eq!(h.counts().iter().sum::<u64>(), h.total());
        prop_assert_eq!(h.total(), obs.len() as u64);
        prop_assert_eq!(h.counts().len(), h.bounds().len() + 1);
    }

    fn histogram_buckets_match_naive_recount(bounds in bounds_gen, obs in observations_gen) {
        let mut h = Histogram::new(&bounds);
        let mut naive = vec![0u64; bounds.len() + 1];
        for &v in &obs {
            h.observe(v);
            let idx = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
            naive[idx] += 1;
        }
        prop_assert_eq!(h.counts(), &naive[..]);
    }

    fn histogram_bounds_stay_monotone_through_snapshot(bounds in bounds_gen, obs in observations_gen) {
        let mut h = Histogram::new(&bounds);
        for &v in &obs {
            h.observe(v);
        }
        prop_assert!(h.bounds().windows(2).all(|w| w[0] < w[1]));
        if let Some(mean) = h.mean() {
            prop_assert!(mean.is_finite());
        } else {
            prop_assert!(obs.is_empty());
        }
    }

    fn quantile_is_monotone_and_bracketed(bounds in bounds_gen, obs in observations_gen) {
        let mut h = Histogram::new(&bounds);
        for &v in &obs {
            h.observe(v);
        }
        if obs.is_empty() {
            prop_assert_eq!(h.quantile(0.5), None);
        } else {
            // The documented bracket: estimates never leave
            // [min(first bound, observed min), max(last bound, observed max)].
            let lo = obs.iter().copied().fold(bounds[0], f64::min);
            let hi = obs.iter().copied().fold(*bounds.last().unwrap(), f64::max);
            let mut prev = f64::NEG_INFINITY;
            for i in 0..=20 {
                let p = i as f64 / 20.0;
                let q = h.quantile(p).unwrap();
                prop_assert!(q.is_finite(), "quantile({p}) not finite: {q}");
                prop_assert!(q >= prev, "quantile not monotone: q({p}) = {q} < {prev}");
                prop_assert!(q >= lo && q <= hi, "q({p}) = {q} outside [{lo}, {hi}]");
                prev = q;
            }
        }
    }

    @cases(64)
    fn profile_tree_invariants_hold_and_replay_matches(program in program_gen) {
        let (events, live) = run_full("tree", || drive_program(program.as_slice()));
        // Live thread-local aggregation must agree exactly with an
        // offline replay of the very events those spans emitted.
        prop_assert_eq!(live.clone(), Profile::from_events(&events));
        for (path, node) in live.flatten() {
            prop_assert!(node.count() > 0, "{path}: empty node materialised");
            prop_assert!(
                node.children_total_ns() <= node.total_ns(),
                "{path}: children total {} exceeds node total {}",
                node.children_total_ns(),
                node.total_ns()
            );
            prop_assert_eq!(
                node.self_ns(),
                node.total_ns() - node.children_total_ns(),
                "{path}: self time is not total minus children"
            );
            prop_assert!(node.min_ns() <= node.max_ns());
            prop_assert!(node.total_ns() >= node.max_ns());
        }
    }

    @cases(32)
    fn parallel_worker_profiles_equal_sequential_replay(programs in jobs_gen) {
        let (events, live) = run_full("workers", || {
            std::thread::scope(|scope| {
                for (w, program) in programs.iter().enumerate() {
                    scope.spawn(move || {
                        let _ws = recorder().worker_scope(w);
                        let _job = recorder().span("job", vec![("w", Json::from(w))]);
                        drive_program(program.as_slice());
                    });
                }
            });
        });
        // Concurrent per-thread aggregation merges to exactly what a
        // sequential replay of the recorded events produces.
        prop_assert_eq!(live.clone(), Profile::from_events(&events));
        // Every worker's tree hangs under one "job" root, once each.
        let job = live.roots().find(|(name, _)| *name == "job");
        prop_assert!(job.is_some(), "job root missing");
        prop_assert_eq!(job.unwrap().1.count(), programs.len() as u64);
    }

    @cases(64)
    fn span_nesting_balances(program in program_gen) {
        let (events, _) = run_full("nesting", || drive_program(&program));
        // Replay the event stream: enters push, exits must match the
        // deepest open span, depths mirror the stack height, time is
        // monotone.
        let mut stack: Vec<String> = Vec::new();
        let mut enters = 0usize;
        let mut exits = 0usize;
        let mut last_t = 0.0f64;
        for ev in &events {
            let t = ev.require("t_ns").unwrap().to_f64().unwrap();
            prop_assert!(t >= last_t, "event time went backwards: {t} < {last_t}");
            last_t = t;
            let span = ev.require("span").unwrap().to_str().unwrap().to_string();
            let depth = ev.require("depth").unwrap().to_usize().unwrap();
            match ev.require("ev").unwrap().to_str().unwrap() {
                "enter" => {
                    prop_assert_eq!(depth, stack.len(), "enter depth off for {span}");
                    stack.push(span);
                    enters += 1;
                }
                "exit" => {
                    let open = stack.pop();
                    prop_assert_eq!(open.as_deref(), Some(span.as_str()), "exit without matching enter");
                    prop_assert_eq!(depth, stack.len(), "exit depth off for {span}");
                    prop_assert!(ev.require("dur_ns").unwrap().to_f64().unwrap() >= 0.0);
                    exits += 1;
                }
                other => prop_assert!(false, "unexpected event kind {other}"),
            }
        }
        prop_assert!(stack.is_empty(), "spans left open: {stack:?}");
        prop_assert_eq!(enters, exits);
    }
}

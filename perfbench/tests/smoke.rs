//! Tiny-size runs of every workload: the replay reproduces the
//! pipeline bit for bit, both kinds of run report every declared
//! metric, and a panicking pass is counted as failed.

use ema_core::Executor;
use ema_perfbench::replay::{replay, same_bits, Outcome};
use ema_perfbench::report::{END_TO_END, PER_LAYER};
use ema_perfbench::run::{check_pass, measure, time_passes, traced, Args};
use ema_perfbench::trace::Trace;
use ema_perfbench::workload::{Input, WORKLOADS};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Measured and traced runs set the process-wide telemetry mode; tests
/// that run them take this lock so one cannot switch telemetry off under
/// another's counters pass.
static OBS_MODE: Mutex<()> = Mutex::new(());

fn obs_mode_lock() -> MutexGuard<'static, ()> {
    OBS_MODE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn smoke_args(workload: ema_perfbench::workload::Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 5,
        seconds: 1,
        trace,
        smoke: true,
    }
}

#[test]
fn replay_reproduces_every_workload_bit_for_bit() {
    let executor = Executor::with_threads(2);
    for workload in WORKLOADS {
        let inst = workload.instance(5, true);
        let run = inst.run(&executor);
        assert_eq!(
            check_pass(&run, inst.individuals()),
            Ok(0),
            "{}",
            workload.name()
        );
        let want: Vec<Outcome> = run.iter().map(Outcome::of).collect();
        let trace = Trace::new();
        let (got, plan) = replay(&inst, &executor, &trace);
        same_bits(&want, &got).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(plan.is_some(), workload.name() == "stream_warmstart");
        assert!(!trace.spans().is_empty());
    }
}

#[test]
fn replay_mismatch_is_detected() {
    let executor = Executor::with_threads(2);
    let inst = WORKLOADS[0].instance(5, true);
    let want: Vec<Outcome> = inst.run(&executor).iter().map(Outcome::of).collect();
    let mut other = WORKLOADS[0].instance(5, true);
    other.spec.train_config.seed ^= 1;
    let (got, _) = replay(&other, &executor, &Trace::new());
    assert!(
        same_bits(&want, &got).is_err(),
        "a different dropout stream went unnoticed"
    );
}

#[test]
fn seeds_give_fresh_instances() {
    for workload in WORKLOADS {
        let data = |seed| match workload.instance(seed, true).input {
            Input::Cohort { dataset, .. } => dataset.individuals[0].data.data().to_vec(),
            Input::Stream { generator, .. } => {
                generator.generate_range(0, 1)[0].data.data().to_vec()
            }
        };
        assert_eq!(
            data(3),
            data(3),
            "{} is not a function of its seed",
            workload.name()
        );
        assert_ne!(data(3), data(4), "{} ignores its seed", workload.name());
        let a = workload.instance(3, true).spec.train_config.seed;
        assert_ne!(a, workload.instance(4, true).spec.train_config.seed);
    }
}

#[test]
fn measured_run_reports_every_end_to_end_metric() {
    let _obs = obs_mode_lock();
    for workload in WORKLOADS {
        let report = measure(&smoke_args(workload, false));
        assert!(report.correct, "{}", workload.name());
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 1);
        for (name, _) in END_TO_END {
            let value = report.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let _obs = obs_mode_lock();
    for workload in WORKLOADS {
        let (report, trace) = traced(&smoke_args(workload, true));
        assert!(report.correct, "{}", workload.name());
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _)| n).to_vec());
        assert!(report
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value >= 0.0));
        let get = |name| report.get(name).expect(name);
        assert!(get("core.train_s") > 0.0 && get("trace.coverage") > 0.0);
        assert_eq!(get("core.cohort.fallbacks"), 0.0);
        assert!(get("tensor.matmul_calls") > 0.0 && get("tensor.peak_gflops") > 0.0);
        let warm = workload.name() == "stream_warmstart";
        assert_eq!(
            get("core.cluster.cache_hit_rate") > 0.0,
            warm,
            "{}",
            workload.name()
        );
        assert!(trace.spans().len() > 1);
    }
}

#[test]
fn panicking_pass_counts_every_individual_as_failed() {
    let mut inst = WORKLOADS[2].instance(5, true);
    // Windows longer than any series: every pass panics.
    inst.spec.seq_len = 10_000;
    let passes = time_passes(&inst, &Executor::with_threads(2), Duration::ZERO);
    assert_eq!(passes.attempted, inst.individuals() as u64);
    assert_eq!(passes.failed, passes.attempted);
    assert!(passes.rates.is_empty() && passes.first.is_none());
}

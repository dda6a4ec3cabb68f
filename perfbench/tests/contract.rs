//! The metric names, units and workloads the binary emits agree with
//! `BENCHMARK.json` and obey its naming rules; the command line accepts
//! exactly the contract's flags.

use ema_obs::Json;
use ema_perfbench::report::{Report, END_TO_END, PER_LAYER};
use ema_perfbench::run::parse_args;
use ema_perfbench::workload::{Workload, WORKLOADS};

/// True for a valid metric or workload name: starts with a letter or
/// digit, at most 64 letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.require(key).and_then(Json::to_arr).expect(key)
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.require(key).and_then(Json::to_str).expect(key)
}

#[test]
fn declared_names_and_units_are_valid_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(*name), "metric {name} declared twice");
    }
    for w in WORKLOADS {
        assert!(valid_name(w.name()));
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

#[test]
fn name_rules_reject_what_the_contract_forbids() {
    assert!(valid_name("core.exec.job_p50_ms"));
    assert!(!valid_name(""));
    assert!(!valid_name("_leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"a".repeat(65)));
    assert!(valid_unit("GFLOP/s") && valid_unit("%") && valid_unit("1/s"));
    assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"b".repeat(17)));
}

#[test]
fn benchmark_json_matches_the_declared_metrics_and_workloads() {
    let json = benchmark_json();
    let e2e: Vec<(&str, &str)> = entries(&json, "end_to_end")
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect();
    assert_eq!(e2e, END_TO_END.to_vec());
    let layers: Vec<(&str, &str)> = entries(&json, "per_layer")
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect();
    assert_eq!(layers, PER_LAYER.to_vec());
    let workloads: Vec<&str> = entries(&json, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS.map(Workload::name).to_vec());
    for w in entries(&json, "workloads") {
        let why = field(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {} too long",
            field(w, "name")
        );
    }
}

#[test]
fn bounds_stay_within_the_contract_and_setup_has_the_largest() {
    let json = benchmark_json();
    let bound = |e: &Json| e.require("bound").and_then(Json::to_f64).expect("bound");
    let e2e = entries(&json, "end_to_end");
    let largest = e2e.iter().map(bound).fold(0.0, f64::max);
    for e in e2e {
        assert!(
            bound(e) > 0.0 && bound(e) <= 0.25,
            "bound of {}",
            field(e, "name")
        );
        assert!(matches!(field(e, "better"), "higher" | "lower"));
    }
    let setup = e2e
        .iter()
        .find(|e| field(e, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!(bound(setup), largest);
    assert_eq!(field(setup, "better"), "lower");
    for e in entries(&json, "per_layer") {
        assert!(
            matches!(field(e, "better"), "higher" | "lower"),
            "better of {}",
            field(e, "name")
        );
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let report = Report::new(
        true,
        3,
        0,
        &END_TO_END,
        &[
            ("individuals_per_s", 1.5),
            ("setup_s", 0.25),
            ("peak_heap_bytes", 1024.0),
            ("mse_mean", 0.8),
        ],
    );
    let line = Json::parse(&report.to_json()).expect("result line is JSON");
    let Json::Obj(pairs) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let setup = line
        .require("metrics")
        .and_then(|m| m.require("setup_s"))
        .unwrap();
    assert_eq!(setup.require("value").and_then(Json::to_f64).unwrap(), 0.25);
    assert_eq!(setup.require("unit").and_then(Json::to_str).unwrap(), "s");
}

#[test]
fn non_finite_metric_fails_the_run() {
    let report = Report::new(
        true,
        1,
        0,
        &END_TO_END,
        &[
            ("individuals_per_s", f64::NAN),
            ("setup_s", 0.1),
            ("peak_heap_bytes", 1.0),
            ("mse_mean", 1.0),
        ],
    );
    assert!(!report.correct);
    assert!(
        Json::parse(&report.to_json()).is_ok(),
        "still prints valid JSON"
    );
}

#[test]
fn command_line_takes_the_contract_flags() {
    let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = args("--workload stream_graph --seed 42 --seconds 7 --trace 1").unwrap();
    assert_eq!(a.workload, Workload::StreamGraph);
    assert_eq!((a.seed, a.seconds, a.trace), (42, 7, true));
    assert!(!args("--workload paper_cell --trace 0").unwrap().trace);
    for bad in [
        "",
        "--seed 1",
        "--workload nope",
        "--workload paper_cell --trace 2",
        "--workload paper_cell --seconds 0",
        "--workload paper_cell --seed -1",
        "--workload paper_cell --extra 1",
        "--workload paper_cell --seed",
    ] {
        assert!(args(bad).is_err(), "accepted {bad:?}");
    }
}

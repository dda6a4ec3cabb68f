//! Command-line entry point; see the crate docs for the contract.

use ema_perfbench::run::{measure, parse_args, traced, USAGE};
use std::path::Path;
use std::process::ExitCode;

/// Where the traced run writes its spans.
const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        let (report, trace) = traced(&args);
        let path = Path::new(SPAN_DIR).join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        match trace.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
        }
        report
    } else {
        measure(&args)
    };
    for m in &report.metrics {
        eprintln!("{:<32} {:>22} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("output check or replay mismatch: failing the run");
        ExitCode::FAILURE
    }
}

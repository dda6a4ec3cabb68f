//! Observability demo: train one individual with full tracing enabled,
//! then read the JSONL run log back and plot the loss curve it recorded.
//!
//! ```bash
//! EMA_OBS=full cargo run -p ema-core --example obs_loss_curve
//! ```
//!
//! This doubles as the CI smoke test for the obs layer (`scripts/ci.sh`
//! runs it): every JSONL line must parse with `ema_core::Json`, the
//! per-epoch `train_epoch` events must carry `loss` and `grad_norm`,
//! and the run summary must exist.

use ema_core::pipeline::{run_individual, GraphSpec, RunSpec};
use ema_core::train::TrainConfig;
use ema_core::Json;
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::DensityThreshold;
use ema_models::{ModelConfig, ModelKind};
use ema_obs::{default_obs_dir, recorder, ObsMode};
use ema_similarity::GraphMetric;

const RUN: &str = "obs_loss_curve";
const EPOCHS: usize = 40;

fn main() {
    // Only `full` mode streams per-event JSONL; escalate if the env
    // knob asked for less, so the example always has a log to read.
    if ema_obs::mode() != ObsMode::Full {
        println!("(escalating EMA_OBS to `full` so the run log exists)\n");
        ema_obs::set_mode(ObsMode::Full);
    }

    let config = Json::obj(vec![
        ("example", Json::from(RUN)),
        ("model", Json::from("MTGNN")),
        ("epochs", Json::from(EPOCHS)),
    ]);
    assert!(
        recorder().begin_run(RUN, config),
        "full mode must start a run"
    );

    // One small synthetic individual, trained with early stopping on.
    // The whole workload lives under one root `main` span so the run's
    // span profile covers (nearly) all of its wall time — `obs_report`
    // prints the coverage and the CI smoke checks the profile exists.
    let (individual_id, outcome) = {
        let _main = ema_obs::span!("main", example = RUN);
        recorder().phase("train");
        let dataset = EmaGenerator::new(GeneratorConfig::quick(1, 8, 42)).generate();
        let individual = &dataset.individuals[0];
        let spec = RunSpec {
            model_config: ModelConfig {
                hidden: 12,
                ..ModelConfig::default()
            },
            train_config: TrainConfig::quick(EPOCHS, 7),
            ..RunSpec::new(
                ModelKind::Mtgnn,
                GraphSpec::Static {
                    metric: GraphMetric::Correlation,
                    gdt: DensityThreshold::Gdt20,
                },
                5,
            )
        };
        let outcome = run_individual(individual.id, &individual.data, &spec);
        recorder().phase("report");
        recorder().annotate("test_mse", Json::from(outcome.mse));
        (individual.id, outcome)
    };

    let summary = recorder().finish_run().expect("run summary written");

    // Read the log back; every line must be valid JSON.
    let log = default_obs_dir().join(format!("{RUN}.jsonl"));
    let text = std::fs::read_to_string(&log)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", log.display()));
    let mut epochs: Vec<(usize, f64, f64)> = Vec::new();
    let mut early_stop_epoch = None;
    for (i, line) in text.lines().enumerate() {
        let event = Json::parse(line).unwrap_or_else(|e| {
            panic!(
                "line {} of {} is not valid JSON: {e:?}",
                i + 1,
                log.display()
            )
        });
        let name = event.get("name").and_then(Json::as_str).unwrap_or_default();
        let fields = event.get("fields");
        if name == "train_epoch" {
            let fields = fields.expect("train_epoch carries fields");
            epochs.push((
                fields.require("epoch").unwrap().to_usize().unwrap(),
                fields.require("loss").unwrap().to_f64().unwrap(),
                fields.require("grad_norm").unwrap().to_f64().unwrap(),
            ));
        } else if name == "early_stop" {
            early_stop_epoch = fields.and_then(|f| f.get("epoch")).and_then(Json::as_usize);
        }
    }
    assert!(
        !epochs.is_empty(),
        "full-mode log must contain train_epoch events"
    );
    assert_eq!(epochs.len(), outcome.epochs_run, "one event per epoch run");

    // ASCII loss curve straight from the telemetry.
    println!(
        "individual {individual_id} loss curve ({} epochs):\n",
        epochs.len()
    );
    let max_loss = epochs.iter().map(|e| e.1).fold(f64::MIN, f64::max);
    for &(epoch, loss, grad_norm) in &epochs {
        let width = ((loss / max_loss) * 50.0).round().max(1.0) as usize;
        println!(
            "  {epoch:>3} {:<50} {loss:>8.4}  |grad| {grad_norm:>8.3}",
            "#".repeat(width)
        );
    }
    match early_stop_epoch {
        Some(e) => println!("\nearly stop fired at epoch {e}"),
        None => println!("\nno early stop: ran the full schedule"),
    }
    println!("test MSE: {:.3}", outcome.mse);
    println!("\n{} events in {}", text.lines().count(), log.display());
    println!("run summary at {}", summary.display());
    println!("profile it:     cargo run -p ema-bench --bin obs_report -- {RUN}");
}

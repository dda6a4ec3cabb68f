//! End-to-end pipeline test: synthetic study → graphs → training →
//! evaluation, across every model family.

use ema_core::pipeline::{run_cohort_with, run_individual, GraphSpec, RunSpec};
use ema_core::train::TrainConfig;
use ema_core::Executor;
use ema_data::{EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::DensityThreshold;
use ema_models::{ModelConfig, ModelKind};
use ema_similarity::GraphMetric;

fn quick_spec(model: ModelKind, graph: GraphSpec, seq: usize) -> RunSpec {
    RunSpec {
        model_config: ModelConfig::tiny(1),
        train_config: TrainConfig::quick(12, 5),
        ..RunSpec::new(model, graph, seq)
    }
}

#[test]
fn every_model_family_runs_end_to_end() {
    let ds = EmaGenerator::new(GeneratorConfig::quick(2, 8, 42)).generate();
    ds.validate(30);
    let corr = GraphSpec::Static {
        metric: GraphMetric::Correlation,
        gdt: DensityThreshold::Gdt40,
    };
    for (kind, graph) in [
        (ModelKind::Lstm, GraphSpec::None),
        (ModelKind::A3tgcn, corr.clone()),
        (ModelKind::Astgcn, corr.clone()),
        (ModelKind::Mtgnn, corr),
    ] {
        let spec = quick_spec(kind, graph, 2);
        let out = run_individual(&ds.individuals[0], &spec);
        assert!(
            out.mse.is_finite() && out.mse > 0.0,
            "{} produced MSE {}",
            kind.label(),
            out.mse
        );
        assert!(
            out.final_train_loss.is_finite(),
            "{} diverged in training",
            kind.label()
        );
    }
}

#[test]
fn training_reduces_loss_on_every_model() {
    let ds = EmaGenerator::new(GeneratorConfig::quick(1, 6, 43)).generate();
    let corr = GraphSpec::Static {
        metric: GraphMetric::Correlation,
        gdt: DensityThreshold::Gdt100,
    };
    for (kind, graph) in [(ModelKind::Lstm, GraphSpec::None), (ModelKind::Mtgnn, corr)] {
        let mut spec = quick_spec(kind, graph, 2);
        spec.train_config = TrainConfig::quick(40, 9);
        spec.train_config.early_stop_rel = 0.0;
        let out = run_individual(&ds.individuals[0], &spec);
        // The trained model should at least approach the target-variance
        // level on the training loss.
        assert!(
            out.final_train_loss < 1.1,
            "{} final train loss {}",
            kind.label(),
            out.final_train_loss
        );
    }
}

#[test]
fn every_seq_len_works_for_every_model() {
    let ds = EmaGenerator::new(GeneratorConfig::quick(1, 6, 44)).generate();
    let graph = GraphSpec::Static {
        metric: GraphMetric::Euclidean,
        gdt: DensityThreshold::Gdt20,
    };
    for seq in [1usize, 2, 5] {
        for kind in ModelKind::all() {
            let g = if kind.uses_graph() {
                graph.clone()
            } else {
                GraphSpec::None
            };
            let mut spec = quick_spec(kind, g, seq);
            spec.train_config = TrainConfig::quick(4, 2);
            let out = run_individual(&ds.individuals[0], &spec);
            assert!(out.mse.is_finite(), "{} seq {seq} not finite", kind.label());
        }
    }
}

#[test]
fn cohort_parallelism_matches_serial() {
    let ds = EmaGenerator::new(GeneratorConfig::quick(4, 6, 45)).generate();
    let spec = quick_spec(ModelKind::Lstm, GraphSpec::None, 2);
    let parallel: Vec<f64> = run_cohort_with(&ds, &spec, &Executor::from_env())
        .iter()
        .map(|o| o.mse)
        .collect();
    let serial: Vec<f64> = ds
        .individuals
        .iter()
        .map(|ind| run_individual(ind, &spec).mse)
        .collect();
    assert_eq!(parallel, serial, "parallel cohort diverged from serial");
}

#[test]
fn trained_model_beats_untrained() {
    // Compare *training* losses: more epochs must fit the training data
    // better. (Test MSE can move either way on a single tiny individual
    // because of overfitting, so it is not asserted here; the cohort-
    // level test lives in paper_shape.rs.)
    let ds = EmaGenerator::new(GeneratorConfig::quick(1, 6, 46)).generate();
    let ind = &ds.individuals[0];
    let run = |epochs| {
        let mut spec = quick_spec(ModelKind::Lstm, GraphSpec::None, 2);
        spec.train_config = TrainConfig::quick(epochs, 3);
        spec.train_config.early_stop_rel = 0.0;
        run_individual(ind, &spec).final_train_loss
    };
    let trained = run(60);
    let untrained = run(1);
    assert!(
        trained < untrained,
        "training made things worse: {trained} vs {untrained}"
    );
}

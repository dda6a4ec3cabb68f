//! Warm-start restore hardening: a warm-started `train_model` with 0
//! fine-tune epochs is a pure restore of a trained model's cloned
//! `ParamStore` — it reproduces that model's predictions bitwise, for
//! every model kind.

use ema_core::pipeline::graph_for_individual;
use ema_core::train::{predict_all, train_model};
use ema_core::TrainConfig;
use ema_data::{make_windows, split_train_test, EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::DensityThreshold;
use ema_graph::AdjacencyMatrix;
use ema_models::{
    A3tgcn, Astgcn, CohortForecaster, LstmForecaster, ModelConfig, Mtgnn, VarForecaster,
};
use ema_similarity::GraphMetric;
use ema_tensor::Tensor;
use std::sync::Arc;

const SEQ_LEN: usize = 2;

fn study_individual() -> (Tensor, AdjacencyMatrix) {
    let generator = EmaGenerator::new(GeneratorConfig::quick(2, 4, 97));
    let ind = generator.generate_range(1, 2).pop().expect("individual 1");
    let (train, _) = split_train_test(&ind.data, 0.7);
    let graph = graph_for_individual(&train, GraphMetric::Correlation, DensityThreshold::Gdt40);
    (train, graph)
}

/// Runs `check` once per model kind, with a builder that constructs
/// that kind for the study individual from a `ModelConfig` seed.
macro_rules! for_each_kind {
    ($check:ident, $train:expr, $graph:expr) => {{
        let (train, graph): (&Tensor, &AdjacencyMatrix) = ($train, $graph);
        let v = train.dims()[1];
        $check("LSTM", train, |s| {
            LstmForecaster::new(v, &ModelConfig::tiny(s))
        });
        $check("A3TGCN", train, |s| {
            A3tgcn::new(v, graph, &ModelConfig::tiny(s))
        });
        $check("ASTGCN", train, |s| {
            Astgcn::new(v, SEQ_LEN, graph, &ModelConfig::tiny(s))
        });
        $check("MTGNN", train, |s| {
            Mtgnn::new(v, SEQ_LEN, Some(graph), &ModelConfig::tiny(s))
        });
        $check("VAR", train, |s| {
            VarForecaster::new(v, SEQ_LEN, &ModelConfig::tiny(s))
        });
    }};
}

fn trained_model<M: CohortForecaster>(train: &Tensor, build: &impl Fn(u64) -> M) -> M {
    let mut model = build(5);
    let windows = make_windows(train, SEQ_LEN);
    let config = TrainConfig::quick(3, 11);
    let _ = train_model(&mut model, &windows, &config);
    model
}

fn zero_epoch_restore<M: CohortForecaster>(label: &str, train: &Tensor, build: impl Fn(u64) -> M) {
    let windows = make_windows(train, SEQ_LEN);
    let source = trained_model(train, &build);
    let params = Arc::new(source.params().clone());
    let windows = std::slice::from_ref(&windows);
    let want = predict_all(std::slice::from_ref(&source), windows);

    // A different ModelConfig seed: the restore must overwrite every
    // parameter, so the init draws cannot matter.
    let mut restored = build(1234);
    let config = TrainConfig {
        epochs: 0,
        warm_start: Some(params),
        ..TrainConfig::quick(3, 11)
    };
    let report = train_model(&mut restored, &windows[0], &config);
    assert_eq!(report.epochs_run, 0, "{label}: restore must not train");
    let got = predict_all(std::slice::from_ref(&restored), windows);
    assert_eq!(
        got[0].data(),
        want[0].data(),
        "{label}: restored predictions are not bit-identical"
    );
}

/// A warm start with `epochs = 0` is a pure restore: a freshly built
/// model (different init seed) restored from the trained model's
/// parameters predicts bitwise what that model predicts — for every
/// model kind.
#[test]
fn zero_epoch_warm_start_reproduces_checkpoint_predictions_bitwise() {
    let (train, graph) = study_individual();
    for_each_kind!(zero_epoch_restore, &train, &graph);
}

//! Design-choice ablations beyond the paper's tables: how much each
//! MTGNN ingredient matters, plus trivial-baseline calibration rows.

use super::{cohort_mses, ExperimentScale};
use crate::evaluate::{persistence_mse, zero_prediction_mse};
use crate::exec::{expect_all, Executor, Job};
use crate::pipeline::{GraphSpec, RunSpec};
use crate::results::{CellStat, ResultTable};
use ema_data::{make_test_windows, split_train_test};
use ema_graph::sparsify::DensityThreshold;
use ema_models::ModelKind;
use ema_obs::span;
use ema_similarity::GraphMetric;

/// Input length used by the ablations.
pub const SEQ_LEN: usize = 5;

/// Runs the ablation suite. Rows:
///
/// * `Persistence` / `ZeroPrediction` — trivial baselines (no training);
/// * `VAR(5)` — the classic linear network-psychometrics baseline;
/// * `LSTM` — the paper's baseline;
/// * `MTGNN (learned, CORR prior)` — the full model;
/// * `MTGNN (learned, no prior)` — graph learning from scratch;
/// * `MTGNN (static only)` — graph-learning module disabled;
/// * `A3TGCN / ASTGCN (CORR)` — for context, each also with its
///   attention module ablated.
///
/// One column: test MSE at Seq5, GDT 20%.
#[must_use]
pub fn run_ablation(scale: &ExperimentScale, exec: &Executor) -> ResultTable {
    let _exp_span = span!("experiment", name = "ablation");
    let dataset = scale.dataset();
    let gdt = DensityThreshold::Gdt20;
    let corr = GraphMetric::Correlation;
    let mut table = ResultTable::new(
        "Ablation: MTGNN ingredients and trivial baselines (Seq5, GDT = 20%)",
        vec!["MSE".into()],
    );

    // Trivial baselines, evaluated per individual on the same split.
    // They train no model, so they run outside the cohort runner: one
    // executor job per individual of the materialised study.
    let jobs: Vec<Job<'_, (f64, f64)>> = dataset
        .individuals
        .iter()
        .map(|ind| {
            Job::new(format!("baseline_individual_{}", ind.id), move || {
                let (train, test) = split_train_test(&ind.data, 0.7);
                let w = make_test_windows(&train, &test, SEQ_LEN);
                (persistence_mse(&w), zero_prediction_mse(&w))
            })
        })
        .collect();
    let (persist, zeros): (Vec<f64>, Vec<f64>) = expect_all(exec.run(jobs), "ablation baselines")
        .into_iter()
        .unzip();
    table.push_row(
        "Persistence (x_t = x_{t-1})",
        vec![CellStat::from_samples(&persist)],
    );
    table.push_row(
        "ZeroPrediction (mean)",
        vec![CellStat::from_samples(&zeros)],
    );

    let mut add_row = |label: &str, spec: RunSpec| {
        let _row_span = span!("condition", row = label);
        let mses = cohort_mses(scale, &spec, exec);
        table.push_row(label, vec![CellStat::from_samples(&mses)]);
    };

    add_row(
        "VAR(5)",
        scale.spec(ModelKind::Var, GraphSpec::None, SEQ_LEN),
    );
    add_row(
        "LSTM",
        scale.spec(ModelKind::Lstm, GraphSpec::None, SEQ_LEN),
    );
    add_row(
        "MTGNN (learned, CORR prior)",
        scale.spec(
            ModelKind::Mtgnn,
            GraphSpec::Static { metric: corr, gdt },
            SEQ_LEN,
        ),
    );
    add_row(
        "MTGNN (learned, no prior)",
        scale.spec(ModelKind::Mtgnn, GraphSpec::None, SEQ_LEN),
    );
    add_row(
        "MTGNN (static only)",
        RunSpec {
            learn_graph: false,
            ..scale.spec(
                ModelKind::Mtgnn,
                GraphSpec::Static { metric: corr, gdt },
                SEQ_LEN,
            )
        },
    );
    // Direct (GTS-style) graph learner — paper future work compares
    // alternative graph-learning modules.
    add_row(
        "MTGNN (direct learner, CORR prior)",
        RunSpec {
            graph_learner: ema_models::GraphLearnerKind::Direct,
            ..scale.spec(
                ModelKind::Mtgnn,
                GraphSpec::Static { metric: corr, gdt },
                SEQ_LEN,
            )
        },
    );

    add_row(
        "A3TGCN (CORR)",
        scale.spec(
            ModelKind::A3tgcn,
            GraphSpec::Static { metric: corr, gdt },
            SEQ_LEN,
        ),
    );
    add_row(
        "A3TGCN (no temporal attention)",
        RunSpec {
            use_attention: false,
            ..scale.spec(
                ModelKind::A3tgcn,
                GraphSpec::Static { metric: corr, gdt },
                SEQ_LEN,
            )
        },
    );
    add_row(
        "ASTGCN (CORR)",
        scale.spec(
            ModelKind::Astgcn,
            GraphSpec::Static { metric: corr, gdt },
            SEQ_LEN,
        ),
    );
    add_row(
        "ASTGCN (no spatial attention)",
        RunSpec {
            use_spatial_attention: false,
            ..scale.spec(
                ModelKind::Astgcn,
                GraphSpec::Static { metric: corr, gdt },
                SEQ_LEN,
            )
        },
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_structure() {
        let mut scale = ExperimentScale::tiny();
        scale.epochs = 2;
        scale.num_individuals = 2;
        let table = run_ablation(&scale, &Executor::from_env());
        assert_eq!(table.rows.len(), 12);
        assert!(table.cell("LSTM", "MSE").is_some());
        assert!(table.cell("MTGNN (static only)", "MSE").is_some());
        // Zero prediction on z-normalised data should be around 1.
        let z = table.cell("ZeroPrediction (mean)", "MSE").unwrap();
        assert!(z.mean > 0.5 && z.mean < 2.0, "zero-pred MSE {z}");
    }
}

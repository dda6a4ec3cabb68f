//! Cluster-then-personalize comparison: idiographic vs K-medoids
//! cluster warm-start vs nomothetic training, per model.
//!
//! Complements the paper's experiments with the training-strategy axis
//! from the authors' companion clustering work: does fine-tuning from
//! a cluster model preserve idiographic accuracy at a fraction of the
//! training cost? Rows are the four models, columns the three
//! strategies, cells `mean(std)` test MSE across individuals (streamed
//! through [`crate::cohort::run_cohort_sharded`] one job per individual,
//! like every experiment cell, so every arm exercises the exact
//! production path).

use super::{cohort_mses, ExperimentScale};
use crate::cluster::TrainStrategy;
use crate::exec::Executor;
use crate::pipeline::GraphSpec;
use crate::results::{CellStat, ResultTable};
use ema_graph::sparsify::DensityThreshold;
use ema_models::ModelKind;
use ema_obs::span;
use ema_similarity::GraphMetric;

/// The strategy columns of the comparison table.
pub const STRATEGY_COLUMNS: [&str; 3] = ["Idiographic", "Cluster", "Nomothetic"];

/// Input window length used for every arm (the paper's multi-step
/// setting).
const SEQ_LEN: usize = 5;

/// The three training strategies at a given scale: the paper's
/// idiographic default, cluster-then-personalize (K from
/// [`ExperimentScale::cluster_k`], fine-tuning a quarter of the epoch
/// budget), and the nomothetic baseline (one shared model, `k = 1`,
/// no fine-tuning).
#[must_use]
pub fn strategies(scale: &ExperimentScale) -> [(&'static str, TrainStrategy); 3] {
    [
        ("Idiographic", TrainStrategy::Idiographic),
        (
            "Cluster",
            TrainStrategy::ClusterWarmStart {
                k: scale.cluster_k(),
                cluster_epochs: scale.epochs,
                fine_tune_epochs: (scale.epochs / 4).max(1),
            },
        ),
        (
            "Nomothetic",
            TrainStrategy::ClusterWarmStart {
                k: 1,
                cluster_epochs: scale.epochs,
                fine_tune_epochs: 0,
            },
        ),
    ]
}

/// Runs the comparison on `exec`. Rows are
/// [`ModelKind::all`] (LSTM graph-free, GNNs on the correlation graph
/// at GDT 40%), columns [`STRATEGY_COLUMNS`].
#[must_use]
pub fn run_cluster_compare(scale: &ExperimentScale, exec: &Executor) -> ResultTable {
    let _exp_span = span!("experiment", name = "cluster_compare");
    let mut table = ResultTable::new(
        "Cluster-then-personalize: idiographic vs cluster warm-start vs nomothetic \
         (test MSE, CORR graph @ GDT 40%)",
        STRATEGY_COLUMNS.iter().map(ToString::to_string).collect(),
    );

    for model in ModelKind::all() {
        let _row_span = span!("condition", row = model.label());
        let graph = if model.uses_graph() {
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt40,
            }
        } else {
            GraphSpec::None
        };
        let cells: Vec<CellStat> = strategies(scale)
            .into_iter()
            .map(|(name, strategy)| {
                let _arm_span = span!("strategy", name = name);
                let mut spec = scale.spec(model, graph.clone(), SEQ_LEN);
                spec.train_strategy = strategy;
                CellStat::from_samples(&cohort_mses(scale, &spec, exec))
            })
            .collect();
        table.push_row(model.label(), cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_compare_structure_and_determinism() {
        let mut scale = ExperimentScale::tiny();
        scale.epochs = 3;
        scale.num_individuals = 4;
        let sequential = run_cluster_compare(&scale, &Executor::sequential());
        assert_eq!(sequential.columns, STRATEGY_COLUMNS.to_vec());
        assert_eq!(sequential.rows.len(), 4);
        for (label, cells) in &sequential.rows {
            for c in cells {
                assert!(c.mean.is_finite() && c.mean > 0.0, "bad cell in {label}");
            }
        }
        // Byte-identical across thread counts: the cluster plan is
        // built on the caller thread, shards only fine-tune.
        let threaded = run_cluster_compare(&scale, &Executor::with_threads(4));
        assert_eq!(sequential.to_json(), threaded.to_json());
    }
}

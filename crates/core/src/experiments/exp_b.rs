//! Experiment B — Table III: the effect of graph construction metric
//! and density threshold (Seq5 input).

use super::{cohort_mses, ExperimentScale};
use crate::exec::Executor;
use crate::pipeline::GraphSpec;
use crate::results::{CellStat, ResultTable};
use ema_graph::sparsify::DensityThreshold;
use ema_models::ModelKind;
use ema_obs::span;
use ema_similarity::GraphMetric;

/// The input length used throughout Experiment B (the paper observed
/// identical trends for single- and multi-step, so only Seq5 is shown).
pub const SEQ_LEN: usize = 5;

/// Runs Experiment B and returns Table III: rows are
/// `{A3TGCN, ASTGCN, MTGNN} × {EUC, DTW, kNN, CORR, RAND}`, columns
/// `GDT = 20%, 40%, 100%`. The RAND condition averages
/// `scale.random_repeats` independently drawn graphs, as in the paper
/// ("the average score after using 5 randomly generated in training").
#[must_use]
pub fn run_experiment_b(scale: &ExperimentScale, exec: &Executor) -> ResultTable {
    let _exp_span = span!("experiment", name = "exp_b_table3");
    let columns: Vec<String> = DensityThreshold::all()
        .iter()
        .map(|g| format!("GDT = {}", g.label()))
        .collect();
    let mut table = ResultTable::new(
        "Table III: average MSE for different levels of graph sparsity (Seq5)",
        columns,
    );

    for metric in scale.static_metrics() {
        for model in ModelKind::gnns() {
            let row = format!("{}_{}", model.label(), metric.label());
            let _row_span = span!("condition", row = row.as_str());
            let cells: Vec<CellStat> = DensityThreshold::all()
                .iter()
                .map(|&gdt| {
                    let spec = scale.spec(model, GraphSpec::Static { metric, gdt }, SEQ_LEN);
                    CellStat::from_samples(&cohort_mses(scale, &spec, exec))
                })
                .collect();
            table.push_row(row, cells);
        }
    }

    // RAND control: averaged over independently seeded random graphs.
    for model in ModelKind::gnns() {
        let row = format!("{}_RAND", model.label());
        let _row_span = span!("condition", row = row.as_str());
        let cells: Vec<CellStat> = DensityThreshold::all()
            .iter()
            .map(|&gdt| {
                let mut samples = Vec::new();
                for rep in 0..scale.random_repeats {
                    // Stream-derived repeat seeds: a pure function of
                    // (data seed, repeat), independent of loop order.
                    let metric = GraphMetric::Random(ema_tensor::derive_stream_seed(
                        scale.data_seed,
                        rep as u64 + 1,
                    ));
                    let spec = scale.spec(model, GraphSpec::Static { metric, gdt }, SEQ_LEN);
                    samples.extend(cohort_mses(scale, &spec, exec));
                }
                CellStat::from_samples(&samples)
            })
            .collect();
        table.push_row(row, cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_structure() {
        let mut scale = ExperimentScale::tiny();
        scale.epochs = 2;
        scale.num_individuals = 2;
        scale.random_repeats = 1;
        let table = run_experiment_b(&scale, &Executor::from_env());
        // 4 metrics × 3 models + 3 RAND rows.
        assert_eq!(table.rows.len(), 15);
        assert_eq!(table.columns.len(), 3);
        assert!(table.cell("MTGNN_RAND", "GDT = 100%").is_some());
        assert!(table.cell("ASTGCN_DTW", "GDT = 20%").is_some());
    }
}

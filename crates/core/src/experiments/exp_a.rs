//! Experiment A — Table II: GNN models vs the LSTM baseline across
//! input sequence lengths (GDT fixed at 20%).

use super::{cohort_mses, ExperimentScale};
use crate::exec::Executor;
use crate::pipeline::GraphSpec;
use crate::results::{CellStat, ResultTable};
use ema_graph::sparsify::DensityThreshold;
use ema_models::ModelKind;
use ema_obs::span;

/// The sequence lengths of Table II.
pub const SEQ_LENS: [usize; 3] = [1, 2, 5];

/// Runs Experiment A and returns Table II: rows are
/// `LSTM, {A3TGCN, ASTGCN, MTGNN} × {EUC, kNN, DTW, CORR}`, columns
/// `Seq1, Seq2, Seq5`, cells `mean(std)` MSE across individuals.
#[must_use]
pub fn run_experiment_a(scale: &ExperimentScale, exec: &Executor) -> ResultTable {
    let _exp_span = span!("experiment", name = "exp_a_table2");
    let dataset = scale.dataset();
    let columns: Vec<String> = SEQ_LENS.iter().map(|s| format!("Seq{s}")).collect();
    let mut table = ResultTable::new(
        "Table II: GNN models vs LSTM, single- and multi-step input (GDT = 20%)",
        columns,
    );

    // Baseline LSTM row.
    let _baseline_span = span!("condition", row = "Baseline LSTM");
    let lstm_cells: Vec<CellStat> = SEQ_LENS
        .iter()
        .map(|&seq| {
            let spec = scale.spec(ModelKind::Lstm, GraphSpec::None, seq);
            CellStat::from_samples(&cohort_mses(&dataset, &spec, exec))
        })
        .collect();
    table.push_row("Baseline LSTM", lstm_cells);
    drop(_baseline_span);

    // GNN rows grouped by metric, then model — matching the paper's
    // ordering (model varies fastest within each metric block).
    for metric in scale.static_metrics() {
        for model in ModelKind::gnns() {
            let row = format!("{}_{}", model.label(), metric.label());
            let _row_span = span!("condition", row = row.as_str());
            let cells: Vec<CellStat> = SEQ_LENS
                .iter()
                .map(|&seq| {
                    let spec = scale.spec(
                        model,
                        GraphSpec::Static {
                            metric,
                            gdt: DensityThreshold::Gdt20,
                        },
                        seq,
                    );
                    CellStat::from_samples(&cohort_mses(&dataset, &spec, exec))
                })
                .collect();
            table.push_row(row, cells);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_structure() {
        // Tiny scale so the full grid stays fast enough for CI.
        let mut scale = ExperimentScale::tiny();
        scale.epochs = 2;
        scale.num_individuals = 2;
        let table = run_experiment_a(&scale, &Executor::from_env());
        assert_eq!(table.columns, vec!["Seq1", "Seq2", "Seq5"]);
        // 1 baseline + 4 metrics × 3 GNNs.
        assert_eq!(table.rows.len(), 13);
        assert!(table.cell("Baseline LSTM", "Seq1").is_some());
        assert!(table.cell("MTGNN_CORR", "Seq5").is_some());
        for (label, cells) in &table.rows {
            for c in cells {
                assert!(c.mean.is_finite() && c.mean > 0.0, "bad cell in {label}");
            }
        }
    }
}

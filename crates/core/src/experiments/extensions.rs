//! Future-work extensions the paper explicitly calls for:
//! a systematic input-length sweep and per-variable error analysis.

use super::{cohort, cohort_mses, ExperimentScale};
use crate::exec::Executor;
use crate::pipeline::GraphSpec;
use crate::results::{CellStat, ResultTable};
use ema_data::variables::variable_names;
use ema_graph::sparsify::DensityThreshold;
use ema_models::ModelKind;
use ema_similarity::GraphMetric;

/// Input lengths covered by the sweep (the paper tests only 1/2/5 and
/// notes "more experiments should be conducted on the most appropriate
/// length of the input data sequence").
pub const SWEEP_SEQ_LENS: [usize; 6] = [1, 2, 3, 5, 7, 10];

/// Sweeps the input window length for the LSTM baseline and the best
/// GNN (MTGNN with a CORR prior), columns = window lengths.
#[must_use]
pub fn run_seq_sweep(scale: &ExperimentScale, exec: &Executor) -> ResultTable {
    let columns: Vec<String> = SWEEP_SEQ_LENS.iter().map(|s| format!("Seq{s}")).collect();
    let mut table = ResultTable::new(
        "Input-length sweep (future work): MSE vs window length",
        columns,
    );
    let conditions = [
        ("LSTM", ModelKind::Lstm, GraphSpec::None),
        (
            "MTGNN_CORR",
            ModelKind::Mtgnn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt20,
            },
        ),
        (
            "ASTGCN_CORR",
            ModelKind::Astgcn,
            GraphSpec::Static {
                metric: GraphMetric::Correlation,
                gdt: DensityThreshold::Gdt20,
            },
        ),
    ];
    for (label, model, graph) in conditions {
        let cells: Vec<CellStat> = SWEEP_SEQ_LENS
            .iter()
            .map(|&seq| {
                let spec = scale.spec(model, graph.clone(), seq);
                CellStat::from_samples(&cohort_mses(scale, &spec, exec))
            })
            .collect();
        table.push_row(label, cells);
    }
    table
}

/// Per-variable test MSE for MTGNN (CORR prior, Seq5), aggregated across
/// individuals — the paper's future-work item on "the effects across
/// the MSE scores when predicting each of the variables".
#[must_use]
pub fn run_per_variable(scale: &ExperimentScale, exec: &Executor) -> ResultTable {
    let spec = scale.spec(
        ModelKind::Mtgnn,
        GraphSpec::Static {
            metric: GraphMetric::Correlation,
            gdt: DensityThreshold::Gdt20,
        },
        5,
    );
    let outcomes = cohort(scale, &spec, exec);
    let mut table = ResultTable::new(
        "Per-variable MSE, MTGNN_CORR at Seq5 (future work)",
        vec!["MSE".into()],
    );
    for (j, name) in variable_names(scale.num_variables).into_iter().enumerate() {
        let samples: Vec<f64> = outcomes.iter().map(|o| o.per_variable_mse[j]).collect();
        table.push_row(name, vec![CellStat::from_samples(&samples)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_scale() -> ExperimentScale {
        let mut s = ExperimentScale::tiny();
        s.epochs = 2;
        s.num_individuals = 2;
        s
    }

    #[test]
    fn seq_sweep_structure() {
        let table = run_seq_sweep(&micro_scale(), &Executor::from_env());
        assert_eq!(table.columns.len(), SWEEP_SEQ_LENS.len());
        assert_eq!(table.rows.len(), 3);
        assert!(table.cell("MTGNN_CORR", "Seq10").is_some());
    }

    #[test]
    fn per_variable_covers_all_variables() {
        let scale = micro_scale();
        let table = run_per_variable(&scale, &Executor::from_env());
        assert_eq!(table.rows.len(), scale.num_variables);
        assert!(table.cell("cheerful", "MSE").is_some());
        for (label, cells) in &table.rows {
            assert!(cells[0].mean.is_finite(), "bad cell for {label}");
        }
    }
}

//! Hyper-parameter exploration (paper Section V-D): the paper reports
//! tuning the learning rate and comparing 16 vs 32 hidden units before
//! settling on lr = 0.01, hidden = 32. This runner reproduces that
//! search for MTGNN.

use super::{cohort_mses, ExperimentScale};
use crate::exec::Executor;
use crate::pipeline::GraphSpec;
use crate::results::{CellStat, ResultTable};
use ema_graph::sparsify::DensityThreshold;
use ema_models::ModelKind;
use ema_similarity::GraphMetric;

/// Learning rates swept (the paper settles on 0.01).
pub const LEARNING_RATES: [f64; 3] = [0.001, 0.01, 0.05];
/// Hidden widths swept (the paper compares 16 and 32).
pub const HIDDEN_UNITS: [usize; 2] = [16, 32];

/// Runs the sweep: rows = hidden widths, columns = learning rates,
/// model = MTGNN with a CORR prior at Seq5 / GDT 20%.
#[must_use]
pub fn run_hyperparameter_sweep(scale: &ExperimentScale, exec: &Executor) -> ResultTable {
    let columns: Vec<String> = LEARNING_RATES.iter().map(|lr| format!("lr={lr}")).collect();
    let mut table = ResultTable::new(
        "Hyper-parameter sweep (Sec. V-D): MTGNN_CORR, Seq5, GDT = 20%",
        columns,
    );
    for &hidden in &HIDDEN_UNITS {
        let cells: Vec<CellStat> = LEARNING_RATES
            .iter()
            .map(|&lr| {
                let mut spec = scale.spec(
                    ModelKind::Mtgnn,
                    GraphSpec::Static {
                        metric: GraphMetric::Correlation,
                        gdt: DensityThreshold::Gdt20,
                    },
                    5,
                );
                spec.model_config.hidden = hidden;
                spec.model_config.attn_dim = (hidden / 2).max(4);
                spec.train_config.learning_rate = lr;
                CellStat::from_samples(&cohort_mses(scale, &spec, exec))
            })
            .collect();
        table.push_row(format!("hidden={hidden}"), cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_structure() {
        let mut scale = ExperimentScale::tiny();
        scale.epochs = 2;
        scale.num_individuals = 2;
        let table = run_hyperparameter_sweep(&scale, &Executor::from_env());
        assert_eq!(table.rows.len(), HIDDEN_UNITS.len());
        assert_eq!(table.columns.len(), LEARNING_RATES.len());
        assert!(table.cell("hidden=32", "lr=0.01").is_some());
    }
}

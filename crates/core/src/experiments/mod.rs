//! The paper's experiments: Table I (scenario grid), Experiment A
//! (Table II), Experiment B (Table III), Experiment C (Fig. 3) and
//! design-choice ablations.

mod ablation;
mod cluster_compare;
mod exp_a;
mod exp_b;
mod exp_c;
mod extensions;
mod hyperparams;

pub use ablation::run_ablation;
pub use cluster_compare::{run_cluster_compare, strategies, STRATEGY_COLUMNS};
pub use exp_a::run_experiment_a;
pub use exp_b::run_experiment_b;
pub use exp_c::{run_experiment_c, Fig3Entry, Fig3Results};
pub use extensions::{run_per_variable, run_seq_sweep, SWEEP_SEQ_LENS};
pub use hyperparams::{run_hyperparameter_sweep, HIDDEN_UNITS, LEARNING_RATES};

use crate::exec::Executor;
use crate::pipeline::{run_cohort_with, GraphSpec, RunSpec};
use crate::train::TrainConfig;
use ema_data::{EmaDataset, EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::DensityThreshold;
use ema_models::{ModelConfig, ModelKind};
use ema_similarity::GraphMetric;

/// How large an experiment run is. The paper's setting is
/// [`ExperimentScale::full`]; the reduced presets preserve orderings
/// while running in minutes (documented in EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Number of individuals N.
    pub num_individuals: usize,
    /// Number of variables V.
    pub num_variables: usize,
    /// Mean time points per individual.
    pub mean_time_points: usize,
    /// Training epochs per individual.
    pub epochs: usize,
    /// Random graphs averaged for the RAND condition (paper: 5).
    pub random_repeats: usize,
    /// Dataset seed.
    pub data_seed: u64,
    /// Model width (paper: 32; reduced presets shrink it).
    pub hidden: usize,
}

impl ExperimentScale {
    /// Smoke-test scale: seconds per table.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            num_individuals: 2,
            num_variables: 6,
            mean_time_points: 60,
            epochs: 8,
            random_repeats: 1,
            data_seed: 2024,
            hidden: 8,
        }
    }

    /// Default bench scale: minutes per table, orderings stable.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            num_individuals: 8,
            num_variables: 12,
            mean_time_points: 110,
            epochs: 60,
            random_repeats: 2,
            data_seed: 2024,
            hidden: 16,
        }
    }

    /// Paper scale: N=100, V=26, 300 epochs. Hours of CPU time.
    #[must_use]
    pub fn full() -> Self {
        Self {
            num_individuals: 100,
            num_variables: 26,
            mean_time_points: 140,
            epochs: 300,
            random_repeats: 5,
            data_seed: 2024,
            hidden: 32,
        }
    }

    /// The synthetic study's generator at this scale.
    #[must_use]
    pub fn generator(&self) -> EmaGenerator {
        EmaGenerator::new(GeneratorConfig {
            num_individuals: self.num_individuals,
            num_variables: self.num_variables,
            mean_time_points: self.mean_time_points,
            seed: self.data_seed,
            ..GeneratorConfig::default()
        })
    }

    /// Generates the synthetic study for this scale.
    #[must_use]
    pub fn dataset(&self) -> EmaDataset {
        self.generator().generate()
    }

    /// The shared model configuration at this scale.
    #[must_use]
    pub fn model_config(&self) -> ModelConfig {
        ModelConfig {
            hidden: self.hidden,
            attn_dim: (self.hidden / 2).max(4),
            embed_dim: (self.num_variables / 2).clamp(4, 10),
            graph_top_k: (self.num_variables / 3).clamp(2, 8),
            ..ModelConfig::default()
        }
    }

    /// The training configuration at this scale.
    #[must_use]
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            ..TrainConfig::default()
        }
    }

    /// A full [`RunSpec`] for one condition.
    #[must_use]
    pub fn spec(&self, model: ModelKind, graph: GraphSpec, seq_len: usize) -> RunSpec {
        RunSpec {
            model_config: self.model_config(),
            train_config: self.train_config(),
            ..RunSpec::new(model, graph, seq_len)
        }
    }

    /// The cluster count K for the cluster-warm-start strategy at this
    /// scale: roughly one cluster per four individuals, at least 2.
    #[must_use]
    pub fn cluster_k(&self) -> usize {
        (self.num_individuals / 4)
            .clamp(2, 8)
            .min(self.num_individuals)
    }

    /// The kNN `k` used for the kNN metric at this scale (the paper's
    /// "k connections per node"; k = 5 at V = 26).
    #[must_use]
    pub fn knn_k(&self) -> usize {
        (self.num_variables / 5).clamp(2, 5)
    }

    /// The paper's four static metrics at this scale.
    #[must_use]
    pub fn static_metrics(&self) -> [GraphMetric; 4] {
        [
            GraphMetric::Euclidean,
            GraphMetric::Knn(self.knn_k()),
            GraphMetric::Dtw,
            GraphMetric::Correlation,
        ]
    }
}

/// The per-individual test MSEs of one condition over `dataset`, in
/// individual order: the samples behind the experiments' table cells
/// and Fig. 3's static distributions.
fn cohort_mses(dataset: &EmaDataset, spec: &RunSpec, exec: &Executor) -> Vec<f64> {
    run_cohort_with(dataset, spec, exec)
        .iter()
        .map(|o| o.mse)
        .collect()
}

/// One row of Table I: the examined scenario space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// GNN model.
    pub model: ModelKind,
    /// Graph structure label (Table I column 2).
    pub graph: &'static str,
    /// Sparsity level.
    pub gdt: DensityThreshold,
}

/// Enumerates Table I: 3 GNN models × 6 graph structures × 3 sparsity
/// levels.
#[must_use]
pub fn scenario_grid() -> Vec<Scenario> {
    let graphs = [
        "Euclidean",
        "kNN",
        "DTW",
        "Correlation",
        "GNN-learned",
        "Random",
    ];
    let mut out = Vec::new();
    for model in ModelKind::gnns() {
        for graph in graphs {
            for gdt in DensityThreshold::all() {
                out.push(Scenario { model, graph, gdt });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_grid_matches_table1() {
        let grid = scenario_grid();
        // 3 models × 6 graph structures × 3 GDT levels.
        assert_eq!(grid.len(), 3 * 6 * 3);
        assert!(grid
            .iter()
            .any(|s| s.model == ModelKind::Mtgnn && s.graph == "GNN-learned"));
    }

    #[test]
    fn scales_are_ordered() {
        let t = ExperimentScale::tiny();
        let q = ExperimentScale::quick();
        let f = ExperimentScale::full();
        assert!(t.num_individuals < q.num_individuals);
        assert!(q.num_individuals < f.num_individuals);
        assert_eq!(f.num_individuals, 100);
        assert_eq!(f.num_variables, 26);
        assert_eq!(f.epochs, 300);
        assert_eq!(f.hidden, 32);
    }

    #[test]
    fn dataset_generation_respects_scale() {
        let s = ExperimentScale::tiny();
        let ds = s.dataset();
        assert_eq!(ds.num_individuals(), 2);
        assert_eq!(ds.num_variables(), 6);
    }

    #[test]
    fn knn_k_is_sane() {
        assert_eq!(ExperimentScale::full().knn_k(), 5);
        assert!(ExperimentScale::tiny().knn_k() >= 2);
    }
}

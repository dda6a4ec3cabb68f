//! Experiment C — Fig. 3: static vs MTGNN-learned graph structures.
//!
//! For every static metric, MTGNN is trained with that graph as its
//! initial structure; the learned graph is extracted per individual and
//! fed to A3TGCN and ASTGCN. The figure's boxplots become five-number
//! summaries; its red percentage annotations become
//! [`Fig3Entry::pct_change`].

use super::{cohort, cohort_mses, ExperimentScale};
use crate::exec::{expect_all, Executor, Job};
use crate::pipeline::{run_individual, GraphSpec, RunSpec};
use crate::results::{mean_relative_change_percent, BoxplotStats};
use crate::Json;
use ema_graph::sparsify::DensityThreshold;
use ema_graph::stats::edge_weight_correlation;
use ema_models::ModelKind;
use ema_obs::span;

/// Input length used in Experiment C (sparse graphs, Seq5 — Sec. VI-C).
pub const SEQ_LEN: usize = 5;

/// One (model, metric) comparison of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Entry {
    /// Model name (`A3TGCN`, `ASTGCN` or `MTGNN`).
    pub model: String,
    /// Static metric label (`EUC`, `kNN`, `DTW`, `CORR`).
    pub metric: String,
    /// Distribution of per-individual MSEs with the static graph.
    pub static_stats: BoxplotStats,
    /// Distribution with the MTGNN-learned graph.
    pub learned_stats: BoxplotStats,
    /// Mean per-individual relative MSE change in percent (negative =
    /// the learned graph improves the model; the red numbers in Fig. 3).
    pub pct_change: f64,
}

impl Fig3Entry {
    /// JSON encoding mirroring the struct's fields.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("model", Json::Str(self.model.clone())),
            ("metric", Json::Str(self.metric.clone())),
            ("static_stats", self.static_stats.to_json_value()),
            ("learned_stats", self.learned_stats.to_json_value()),
            ("pct_change", Json::Num(self.pct_change)),
        ])
    }
}

/// The complete Fig. 3 reproduction.
#[derive(Debug, Clone)]
pub struct Fig3Results {
    /// All (model, metric) comparisons.
    pub entries: Vec<Fig3Entry>,
    /// Mean edge-weight correlation between learned and static graphs
    /// (the paper reports ≈88% for ASTGCN's case).
    pub mean_graph_correlation: f64,
}

impl Fig3Results {
    /// Renders the figure as text: one block per model × metric.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Fig. 3: MSE distributions, static vs MTGNN-learned graphs (Seq5, GDT = 20%)\n",
        );
        out.push_str(&format!(
            "mean learned-vs-static graph correlation: {:.1}%\n\n",
            100.0 * self.mean_graph_correlation
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{} / {}  (Δ {:+.1}%)\n  static : {}\n  learned: {}\n",
                e.model, e.metric, e.pct_change, e.static_stats, e.learned_stats
            ));
        }
        out
    }

    /// Serialises to JSON for EXPERIMENTS.md bookkeeping.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            (
                "entries",
                Json::Arr(self.entries.iter().map(Fig3Entry::to_json_value).collect()),
            ),
            (
                "mean_graph_correlation",
                Json::Num(self.mean_graph_correlation),
            ),
        ])
        .pretty()
    }
}

/// Runs Experiment C.
#[must_use]
pub fn run_experiment_c(scale: &ExperimentScale, exec: &Executor) -> Fig3Results {
    let _exp_span = span!("experiment", name = "exp_c_fig3");
    let dataset = scale.dataset();
    let gdt = DensityThreshold::Gdt20;
    let mut entries = Vec::new();
    let mut graph_correlations = Vec::new();

    for metric in scale.static_metrics() {
        let _metric_span = span!("condition", metric = metric.label());
        // 1. MTGNN primed with this static graph; collect its MSEs and
        //    per-individual learned graphs.
        let mtgnn_spec = scale.spec(ModelKind::Mtgnn, GraphSpec::Static { metric, gdt }, SEQ_LEN);
        let mtgnn_outcomes = cohort(scale, &mtgnn_spec, exec);
        let mtgnn_mses: Vec<f64> = mtgnn_outcomes.iter().map(|o| o.mse).collect();

        for outcome in &mtgnn_outcomes {
            if let (Some(learned), Some(static_g)) = (&outcome.learned_graph, &outcome.graph_used) {
                graph_correlations.push(edge_weight_correlation(learned, static_g));
            }
        }

        // MTGNN entry: "learned" is its own trained result; "static" is
        // the graph-learning-disabled ablation run.
        let mtgnn_static_spec = RunSpec {
            learn_graph: false,
            ..scale.spec(ModelKind::Mtgnn, GraphSpec::Static { metric, gdt }, SEQ_LEN)
        };
        let mtgnn_static = cohort_mses(scale, &mtgnn_static_spec, exec);
        entries.push(Fig3Entry {
            model: "MTGNN".into(),
            metric: metric.label().into(),
            static_stats: BoxplotStats::from_samples(&mtgnn_static),
            learned_stats: BoxplotStats::from_samples(&mtgnn_mses),
            pct_change: mean_relative_change_percent(&mtgnn_static, &mtgnn_mses),
        });

        // 2. A3TGCN / ASTGCN with the static graph vs the per-individual
        //    MTGNN-learned graph.
        for model in [ModelKind::A3tgcn, ModelKind::Astgcn] {
            let static_spec = scale.spec(model, GraphSpec::Static { metric, gdt }, SEQ_LEN);
            let static_mses = cohort_mses(scale, &static_spec, exec);

            // Learned condition: each individual gets its own learned
            // graph, and a spec holds one graph, so each (individual,
            // graph) pair is one executor job outside the cohort runner.
            let jobs: Vec<Job<'_, f64>> = dataset
                .individuals
                .iter()
                .zip(mtgnn_outcomes.iter())
                .map(|(ind, outcome)| {
                    let learned = outcome
                        .learned_graph
                        .clone()
                        .expect("MTGNN produces learned graphs");
                    let spec = scale.spec(model, GraphSpec::Provided(learned), SEQ_LEN);
                    Job::new(format!("learned_individual_{}", ind.id), move || {
                        run_individual(ind, &spec).mse
                    })
                })
                .collect();
            let learned_mses = expect_all(exec.run(jobs), "exp_c learned condition");

            entries.push(Fig3Entry {
                model: model.label().into(),
                metric: metric.label().into(),
                static_stats: BoxplotStats::from_samples(&static_mses),
                learned_stats: BoxplotStats::from_samples(&learned_mses),
                pct_change: mean_relative_change_percent(&static_mses, &learned_mses),
            });
        }
    }

    let mean_graph_correlation = if graph_correlations.is_empty() {
        0.0
    } else {
        graph_correlations.iter().sum::<f64>() / graph_correlations.len() as f64
    };

    Fig3Results {
        entries,
        mean_graph_correlation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_structure() {
        let mut scale = ExperimentScale::tiny();
        scale.epochs = 2;
        scale.num_individuals = 2;
        let fig = run_experiment_c(&scale, &Executor::from_env());
        // 4 metrics × 3 models.
        assert_eq!(fig.entries.len(), 12);
        for e in &fig.entries {
            assert!(e.static_stats.mean.is_finite());
            assert!(e.learned_stats.mean.is_finite());
            assert!(e.pct_change.is_finite());
        }
        let rendered = fig.render();
        assert!(rendered.contains("MTGNN / EUC") || rendered.contains("MTGNN / CORR"));
    }
}

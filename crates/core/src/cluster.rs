//! Cluster-then-personalize training: K-medoids cluster models, one
//! checkpoint per cluster, and warm-start fine-tuning.
//!
//! At cohort scale, training every individual from scratch repeats most
//! of the work: EMA studies cluster into a few behavioural regimes
//! (cf. the authors' companion paper *Model-based Clustering of
//! Individuals' EMA Time-series for Improving Forecasting*). The
//! cluster phase ([`plan_clusters`]) samples representative
//! individuals, clusters their flattened **training-split** series with
//! seeded K-medoids ([`ema_similarity::k_medoids`] — no test leakage),
//! trains **one model per cluster** on the medoid individuals as one
//! shard of the pipeline's runner body, and keeps the resulting
//! parameters as one in-memory [`Checkpoint`] per cluster in the
//! [`ClusterPlan`]. A plan is built for one spec, so it holds one model
//! and one run condition. The fine-tune phase then assigns each
//! streamed individual to its nearest medoid and trains
//! `fine_tune_epochs` epochs from the cluster checkpoint instead of
//! `epochs` from scratch — K trainings plus N cheap fine-tunes instead
//! of N full trainings.
//!
//! **Determinism:** the plan is built once on the calling thread of
//! [`crate::cohort::run_cohort_sharded`] before any shard job spawns —
//! representative ids, medoids and checkpoints are identical at every
//! thread count and shard size. Cluster training seeds derive from
//! `(run seed, medoid id)` exactly as the medoid's idiographic run
//! would; fine-tune runs keep each individual's own derived stream (see
//! the warm-start RNG contract on
//! [`crate::train::TrainConfig::warm_start`]).
//!
//! Obs: `cluster_plan` / `cluster_distances` / `cluster_train` spans,
//! `cluster.cache_{hits,misses}` counters (misses = cluster trainings,
//! hits = [`ClusterPlan::checkpoint`] lookups) and a
//! `cluster.fine_tune_epochs` histogram.

use crate::checkpoint::Checkpoint;
use crate::pipeline::{train_shard, RunSpec};
use ema_data::{split_train_test, EmaGenerator, Individual};
use ema_obs::span;
use ema_similarity::{
    argmin_distance, flatten_series, k_medoids, pairwise_series_distances, series_distance,
};
use ema_tensor::Tensor;
use std::sync::Arc;

/// The RNG stream id the K-medoids init draws from, derived as
/// `derive_stream_seed(run seed, CLUSTER_SEED_STREAM)`. Individual
/// streams use ids `0..N`, so the clustering stream never collides.
const CLUSTER_SEED_STREAM: u64 = u64::MAX;

/// How sharded cohort runs train each individual
/// ([`RunSpec::train_strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainStrategy {
    /// The paper's default: every individual trains its own model from
    /// scratch for the spec's full epoch schedule.
    #[default]
    Idiographic,
    /// Cluster-then-personalize: K-medoids over representative
    /// training-split series, one cluster model trained per medoid,
    /// then each individual fine-tunes `fine_tune_epochs` epochs from
    /// its nearest cluster's checkpoint. `k = 1` with
    /// `fine_tune_epochs = 0` is the nomothetic baseline (one shared
    /// model, served as-is).
    ClusterWarmStart {
        /// Number of clusters K (clamped to the cohort size).
        k: usize,
        /// Epochs each cluster model trains on its medoid individual.
        cluster_epochs: usize,
        /// Epochs each individual fine-tunes from its cluster
        /// checkpoint (0 = pure restore, no personalization).
        fine_tune_epochs: usize,
    },
}

/// The trained cluster phase: medoid series for assignment plus one
/// checkpoint per cluster for warm starts. Built once per
/// [`crate::cohort::run_cohort_sharded`] run by [`plan_clusters`];
/// read-only afterwards, shared across shard jobs.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// Study ids of the K medoid individuals, in cluster order.
    pub medoid_ids: Vec<usize>,
    /// Epochs each individual fine-tunes from its cluster checkpoint.
    pub fine_tune_epochs: usize,
    /// Cluster `c`'s trained parameters at index `c`.
    checkpoints: Vec<Arc<Checkpoint>>,
    medoid_series: Vec<Vec<f64>>,
}

impl ClusterPlan {
    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.medoid_ids.len()
    }

    /// Assigns an individual to its nearest cluster by training-split
    /// series distance (ties to the lowest cluster index — the same
    /// rule K-medoids itself uses).
    #[must_use]
    pub fn assign(&self, train: &Tensor) -> usize {
        let flat = flatten_series(train);
        argmin_distance(self.medoid_series.iter().map(|m| series_distance(&flat, m)))
    }

    /// The cluster's checkpoint, counted as a `cluster.cache_hits`
    /// lookup.
    ///
    /// # Panics
    /// Panics if `cluster` is not one of the plan's clusters.
    #[must_use]
    pub fn checkpoint(&self, cluster: usize) -> Arc<Checkpoint> {
        let ckpt = self
            .checkpoints
            .get(cluster)
            .expect("every planned cluster has a checkpoint");
        ema_obs::recorder().inc_counter("cluster.cache_hits", 1);
        Arc::clone(ckpt)
    }
}

/// Runs the cluster phase for a sharded cohort run whose spec carries
/// [`TrainStrategy::ClusterWarmStart`]: sample representative
/// individuals, cluster their training-split series with seeded
/// K-medoids, train one model per cluster on the medoid individuals
/// (one shard of the runner body, each medoid trained exactly as its
/// idiographic run for `cluster_epochs` epochs), and keep the
/// resulting checkpoints.
///
/// # Panics
/// Panics when the spec's strategy is [`TrainStrategy::Idiographic`],
/// when `cluster_epochs` is zero, or on an empty study.
#[must_use]
pub fn plan_clusters(generator: &EmaGenerator, spec: &RunSpec) -> ClusterPlan {
    let TrainStrategy::ClusterWarmStart {
        k,
        cluster_epochs,
        fine_tune_epochs,
    } = spec.train_strategy
    else {
        panic!("plan_clusters requires TrainStrategy::ClusterWarmStart");
    };
    assert!(cluster_epochs > 0, "cluster models need at least one epoch");
    let n = generator.config().num_individuals;
    assert!(n > 0, "cannot cluster an empty study");
    let k = k.clamp(1, n);

    let _span = span!(
        "cluster_plan",
        model = spec.model.label(),
        k = k,
        cluster_epochs = cluster_epochs,
        fine_tune_epochs = fine_tune_epochs
    );

    // Representative sample: evenly spaced study ids (deterministic,
    // stream-order free), enough to give K-medoids texture without
    // materialising the study. Each representative is generated,
    // flattened (training split only) and dropped.
    let s = (4 * k).max(8).min(n);
    let rep_ids: Vec<usize> = (0..s).map(|j| j * n / s).collect();
    let rep_series: Vec<Vec<f64>> = {
        let _d = span!("cluster_distances", representatives = s);
        rep_ids
            .iter()
            .map(|&id| {
                let ind = generator
                    .generate_range(id, id + 1)
                    .pop()
                    .expect("generator yields the requested individual");
                let (train, _) = split_train_test(&ind.data, spec.train_fraction);
                flatten_series(&train)
            })
            .collect()
    };
    let distances = pairwise_series_distances(&rep_series);
    let clustering = k_medoids(
        &distances,
        k,
        ema_tensor::derive_stream_seed(spec.train_config.seed, CLUSTER_SEED_STREAM),
    );

    let medoid_ids: Vec<usize> = clustering.medoids.iter().map(|&m| rep_ids[m]).collect();
    let medoid_series: Vec<Vec<f64>> = clustering
        .medoids
        .iter()
        .map(|&m| rep_series[m].clone())
        .collect();

    // Train one model per cluster on its medoid individual.
    let checkpoints = {
        let _t = span!("cluster_train", clusters = k);
        let medoids: Vec<Individual> = medoid_ids
            .iter()
            .flat_map(|&id| generator.generate_range(id, id + 1))
            .collect();
        let mut cluster_spec = spec.clone();
        cluster_spec.train_config.epochs = cluster_epochs;
        cluster_spec.train_config.warm_start = None;
        let trained = train_shard(medoids.iter().map(|m| (m.id, &m.data)), &cluster_spec, None);
        // One miss per cluster trained (misses = trainings).
        ema_obs::recorder().inc_counter("cluster.cache_misses", medoids.len() as u64);
        (0..medoids.len())
            .map(|cluster| Arc::new(Checkpoint::capture(trained.models.get(cluster).params())))
            .collect()
    };

    ClusterPlan {
        medoid_ids,
        fine_tune_epochs,
        checkpoints,
        medoid_series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::run_cohort_sharded;
    use crate::exec::Executor;
    use crate::pipeline::{run_individual, GraphSpec, IndividualOutcome};
    use crate::train::TrainConfig;
    use ema_data::GeneratorConfig;
    use ema_models::{ModelConfig, ModelKind};

    fn warm_spec(model: ModelKind, graph: GraphSpec) -> RunSpec {
        RunSpec {
            model_config: ModelConfig::tiny(0),
            train_config: TrainConfig::quick(4, 3),
            train_strategy: TrainStrategy::ClusterWarmStart {
                k: 2,
                cluster_epochs: 3,
                fine_tune_epochs: 2,
            },
            ..RunSpec::new(model, graph, 2)
        }
    }

    fn generator() -> EmaGenerator {
        EmaGenerator::new(GeneratorConfig::quick(6, 4, 23))
    }

    #[test]
    fn plan_is_deterministic_and_complete() {
        let generator = generator();
        let spec = warm_spec(ModelKind::Lstm, GraphSpec::None);
        let a = plan_clusters(&generator, &spec);
        let b = plan_clusters(&generator, &spec);
        assert_eq!(a.medoid_ids, b.medoid_ids);
        assert_eq!(a.clusters(), 2);
        assert_eq!(a.checkpoints.len(), 2);
        for c in 0..a.clusters() {
            let x = a.checkpoint(c);
            let y = b.checkpoint(c);
            assert_eq!(x.to_json(), y.to_json(), "cluster {c} checkpoints differ");
        }
    }

    #[test]
    fn assign_maps_medoids_to_their_own_cluster() {
        let generator = generator();
        let spec = warm_spec(ModelKind::Lstm, GraphSpec::None);
        let plan = plan_clusters(&generator, &spec);
        for (c, &id) in plan.medoid_ids.iter().enumerate() {
            let ind = generator.generate_range(id, id + 1).pop().unwrap();
            let (train, _) = split_train_test(&ind.data, spec.train_fraction);
            assert_eq!(plan.assign(&train), c, "medoid {id} not in its own cluster");
        }
    }

    #[test]
    fn k_clamps_to_cohort_size() {
        let generator = EmaGenerator::new(GeneratorConfig::quick(2, 4, 5));
        let mut spec = warm_spec(ModelKind::Lstm, GraphSpec::None);
        spec.train_strategy = TrainStrategy::ClusterWarmStart {
            k: 10,
            cluster_epochs: 2,
            fine_tune_epochs: 1,
        };
        let plan = plan_clusters(&generator, &spec);
        assert_eq!(plan.clusters(), 2);
    }

    /// The per-individual oracle of the warm path: `run_individual`
    /// with the plan's fine-tune schedule and the checkpoint of the
    /// cluster the individual's training split is nearest to.
    fn manual_warm_start(
        plan: &ClusterPlan,
        ind: &Individual,
        spec: &RunSpec,
    ) -> IndividualOutcome {
        let (train, _) = split_train_test(&ind.data, spec.train_fraction);
        let mut manual = spec.clone();
        manual.train_config.epochs = plan.fine_tune_epochs;
        manual.train_config.warm_start = Some(plan.checkpoint(plan.assign(&train)));
        run_individual(ind.id, &ind.data, &manual)
    }

    fn key(outcomes: &[IndividualOutcome]) -> Vec<(usize, f64, f64, usize)> {
        outcomes
            .iter()
            .map(|o| (o.id, o.mse, o.final_train_loss, o.epochs_run))
            .collect()
    }

    #[test]
    fn warm_individual_matches_manual_warm_start() {
        let generator = generator();
        let spec = warm_spec(ModelKind::Lstm, GraphSpec::None);
        let plan = plan_clusters(&generator, &spec);
        let got = run_cohort_sharded(&generator, &spec, 1, &Executor::sequential());
        let ind = generator.generate_range(3, 4).pop().unwrap();
        assert_eq!(
            key(&got[3..4]),
            key(&[manual_warm_start(&plan, &ind, &spec)])
        );
    }

    #[test]
    fn sharded_warm_start_matches_per_individual_oracle() {
        let generator = generator();
        let spec = warm_spec(ModelKind::Lstm, GraphSpec::None);
        let plan = plan_clusters(&generator, &spec);
        let batched = run_cohort_sharded(&generator, &spec, 3, &Executor::sequential());
        let oracle: Vec<IndividualOutcome> = generator
            .generate()
            .individuals
            .iter()
            .map(|ind| manual_warm_start(&plan, ind, &spec))
            .collect();
        assert_eq!(key(&batched), key(&oracle));
        // Fine-tuned runs are capped at the fine-tune schedule.
        assert!(batched.iter().all(|o| o.epochs_run <= 2));
    }

    #[test]
    fn nomothetic_zero_finetune_serves_the_shared_model() {
        let generator = generator();
        let mut spec = warm_spec(ModelKind::Lstm, GraphSpec::None);
        spec.train_strategy = TrainStrategy::ClusterWarmStart {
            k: 1,
            cluster_epochs: 3,
            fine_tune_epochs: 0,
        };
        let out = run_cohort_sharded(&generator, &spec, 3, &Executor::sequential());
        assert_eq!(out.len(), 6);
        for o in &out {
            assert_eq!(o.epochs_run, 0, "individual {} trained", o.id);
            assert_eq!(o.final_train_loss, 0.0);
            assert!(o.mse.is_finite());
        }
    }
}

//! Cluster-then-personalize training: K-medoids cluster models, a
//! cluster-checkpoint cache, and warm-start fine-tuning.
//!
//! At cohort scale, training every individual from scratch repeats most
//! of the work: EMA studies cluster into a few behavioural regimes
//! (cf. the authors' companion paper *Model-based Clustering of
//! Individuals' EMA Time-series for Improving Forecasting*). The
//! cluster phase ([`plan_clusters`]) samples representative
//! individuals, clusters their flattened **training-split** series with
//! seeded K-medoids ([`ema_similarity::k_medoids`] — no test leakage),
//! trains **one model per cluster** on the medoid individuals as one
//! shard of the pipeline's runner body, and stores the
//! resulting parameters in an in-memory [`ClusterCheckpointCache`]
//! keyed `(model, outcome, cluster)` (persistable as checkpoint JSON).
//! The fine-tune phase then assigns each streamed individual to its
//! nearest medoid and trains `fine_tune_epochs` epochs from the
//! cluster checkpoint instead of `epochs` from scratch — K trainings
//! plus N cheap fine-tunes instead of N full trainings.
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
//! hits = fine-tune lookups) and a `cluster.fine_tune_epochs`
//! histogram.

use crate::checkpoint::Checkpoint;
use crate::json::Json;
use crate::pipeline::{train_shard, RunSpec};
use ema_data::{split_train_test, EmaGenerator, Individual};
use ema_obs::span;
use ema_similarity::{
    argmin_distance, flatten_series, k_medoids, pairwise_series_distances, series_distance,
    SeriesMetric,
};
use ema_tensor::Tensor;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// The RNG stream id the K-medoids init draws from, derived as
/// `derive_stream_seed(run seed, CLUSTER_SEED_STREAM)`. Individual
/// streams use ids `0..N`, so the clustering stream never collides.
const CLUSTER_SEED_STREAM: u64 = u64::MAX;

/// The Sakoe–Chiba band for the per-individual DTW distance (roughly
/// one EMA day at 8 beeps/day, matching [`ema_similarity::dtw`]'s
/// default; auto-widened for unequal study lengths).
const SERIES_DTW_BAND: usize = 10;

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

/// In-memory cluster-checkpoint cache, keyed
/// `(model label, outcome key, cluster index)`. The outcome key names
/// the run condition the checkpoints were trained under (graph spec +
/// window length); a cache never serves a checkpoint across
/// conditions. Persistable to/from JSON (each entry reuses the
/// [`Checkpoint`] JSON schema, bit-exact f64).
#[derive(Debug, Clone, Default)]
pub struct ClusterCheckpointCache {
    entries: BTreeMap<(String, String, usize), Arc<Checkpoint>>,
}

impl ClusterCheckpointCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached checkpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stores a cluster checkpoint.
    pub fn insert(&mut self, model: &str, outcome: &str, cluster: usize, ckpt: Arc<Checkpoint>) {
        self.entries.insert((model.to_string(), outcome.to_string(), cluster), ckpt);
    }

    /// Looks up a cluster checkpoint, bumping the
    /// `cluster.cache_hits` / `cluster.cache_misses` obs counters. A
    /// miss during [`plan_clusters`] is what triggers a cluster
    /// training, so misses count cluster trainings and hits count
    /// fine-tune lookups.
    #[must_use]
    pub fn get(&self, model: &str, outcome: &str, cluster: usize) -> Option<Arc<Checkpoint>> {
        let found = self
            .entries
            .get(&(model.to_string(), outcome.to_string(), cluster))
            .cloned();
        let obs = ema_obs::recorder();
        if found.is_some() {
            obs.inc_counter("cluster.cache_hits", 1);
        } else {
            obs.inc_counter("cluster.cache_misses", 1);
        }
        found
    }

    /// Serialises the cache to JSON:
    /// `{"entries": [{"model", "outcome", "cluster", "checkpoint"}, …]}`
    /// with each checkpoint in the bit-exact [`Checkpoint`] schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::obj(vec![(
            "entries",
            Json::Arr(
                self.entries
                    .iter()
                    .map(|((model, outcome, cluster), ckpt)| {
                        Json::obj(vec![
                            ("model", Json::Str(model.clone())),
                            ("outcome", Json::Str(outcome.clone())),
                            ("cluster", Json::Num(*cluster as f64)),
                            (
                                "checkpoint",
                                Json::parse(&ckpt.to_json())
                                    .expect("checkpoint JSON is well-formed"),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
        .pretty()
    }

    /// Parses a cache from [`Self::to_json`] output.
    ///
    /// # Errors
    /// Returns `io::Error` with `InvalidData` on malformed JSON.
    pub fn from_json(json: &str) -> io::Result<Self> {
        let invalid =
            |e: crate::json::JsonError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        let v = Json::parse(json).map_err(invalid)?;
        let mut entries = BTreeMap::new();
        for entry in v.require("entries").map_err(invalid)?.to_arr().map_err(invalid)? {
            let model = entry
                .require("model")
                .and_then(Json::to_str)
                .map_err(invalid)?
                .to_string();
            let outcome = entry
                .require("outcome")
                .and_then(Json::to_str)
                .map_err(invalid)?
                .to_string();
            let cluster = entry
                .require("cluster")
                .and_then(Json::to_usize)
                .map_err(invalid)?;
            let ckpt = Checkpoint::from_json(&entry.require("checkpoint").map_err(invalid)?.pretty())?;
            entries.insert((model, outcome, cluster), Arc::new(ckpt));
        }
        Ok(Self { entries })
    }

    /// Writes the cache to a file.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a cache from a file.
    ///
    /// # Errors
    /// Propagates filesystem and parse errors.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

/// The outcome key a spec's checkpoints are cached under: the run
/// condition (graph spec + window length) that must match for a
/// checkpoint to be reusable.
#[must_use]
pub fn outcome_key(spec: &RunSpec) -> String {
    format!("{}@seq{}", spec.graph.label(), spec.seq_len)
}

/// The trained cluster phase: medoid series for assignment plus the
/// checkpoint cache for warm starts. Built once per
/// [`crate::cohort::run_cohort_sharded`] run by [`plan_clusters`];
/// read-only afterwards, shared across shard jobs.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// Study ids of the K medoid individuals, in cluster order.
    pub medoid_ids: Vec<usize>,
    /// Epochs each individual fine-tunes from its cluster checkpoint.
    pub fine_tune_epochs: usize,
    /// The cluster-checkpoint cache.
    pub cache: ClusterCheckpointCache,
    medoid_series: Vec<Vec<f64>>,
    metric: SeriesMetric,
    model_key: String,
    outcome: String,
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
        argmin_distance(
            self.medoid_series
                .iter()
                .map(|m| series_distance(&flat, m, self.metric)),
        )
    }

    /// The cluster's checkpoint (a cache hit by construction).
    ///
    /// # Panics
    /// Panics if the cluster was never trained — [`plan_clusters`]
    /// fills every cluster, so this indicates a corrupted plan.
    #[must_use]
    pub fn checkpoint(&self, cluster: usize) -> Arc<Checkpoint> {
        self.cache
            .get(&self.model_key, &self.outcome, cluster)
            .expect("every planned cluster has a cached checkpoint")
    }
}

/// Runs the cluster phase for a sharded cohort run whose spec carries
/// [`TrainStrategy::ClusterWarmStart`]: sample representative
/// individuals, cluster their training-split series with seeded
/// K-medoids, train one model per cluster on the medoid individuals
/// (one shard of the runner body, each medoid trained exactly as its
/// idiographic run for `cluster_epochs` epochs), and cache the
/// resulting checkpoints.
///
/// # Panics
/// Panics when the spec's strategy is [`TrainStrategy::Idiographic`],
/// when `cluster_epochs` is zero, or on an empty study.
#[must_use]
pub fn plan_clusters(generator: &EmaGenerator, spec: &RunSpec) -> ClusterPlan {
    let TrainStrategy::ClusterWarmStart { k, cluster_epochs, fine_tune_epochs } =
        spec.train_strategy
    else {
        panic!("plan_clusters requires TrainStrategy::ClusterWarmStart");
    };
    assert!(cluster_epochs > 0, "cluster models need at least one epoch");
    let n = generator.config().num_individuals;
    assert!(n > 0, "cannot cluster an empty study");
    let k = k.clamp(1, n);
    let metric = SeriesMetric::DtwBanded { band: SERIES_DTW_BAND };

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
    let distances = pairwise_series_distances(&rep_series, metric);
    let clustering = k_medoids(
        &distances,
        k,
        ema_tensor::derive_stream_seed(spec.train_config.seed, CLUSTER_SEED_STREAM),
    );

    let medoid_ids: Vec<usize> = clustering.medoids.iter().map(|&m| rep_ids[m]).collect();
    let medoid_series: Vec<Vec<f64>> =
        clustering.medoids.iter().map(|&m| rep_series[m].clone()).collect();

    // Train one model per cluster on its medoid individual.
    let model_key = spec.model.label().to_string();
    let outcome = outcome_key(spec);
    let mut cache = ClusterCheckpointCache::new();
    {
        let _t = span!("cluster_train", clusters = k);
        let medoids: Vec<Individual> = medoid_ids
            .iter()
            .flat_map(|&id| generator.generate_range(id, id + 1))
            .collect();
        let mut cluster_spec = spec.clone();
        cluster_spec.train_config.epochs = cluster_epochs;
        cluster_spec.train_config.warm_start = None;
        let trained =
            train_shard(medoids.iter().map(|m| (m.id, &m.data)), &cluster_spec, None);
        for (cluster, model) in trained.models.iter().enumerate() {
            // The miss records this cluster's training in the
            // cache-counter ledger (misses = trainings).
            assert!(cache.get(&model_key, &outcome, cluster).is_none());
            let ckpt = Arc::new(Checkpoint::capture(model.params()));
            cache.insert(&model_key, &outcome, cluster, ckpt);
        }
    }

    ClusterPlan {
        medoid_ids,
        fine_tune_epochs,
        cache,
        medoid_series,
        metric,
        model_key,
        outcome,
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
        assert_eq!(a.cache.len(), 2);
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

    #[test]
    fn cache_round_trips_through_json() {
        let generator = generator();
        let spec = warm_spec(ModelKind::Lstm, GraphSpec::None);
        let plan = plan_clusters(&generator, &spec);
        let json = plan.cache.to_json();
        let parsed = ClusterCheckpointCache::from_json(&json).unwrap();
        assert_eq!(parsed.len(), plan.cache.len());
        // Byte-identical re-serialisation: bit-exact f64 all the way.
        assert_eq!(parsed.to_json(), json);
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
        assert_eq!(key(&got[3..4]), key(&[manual_warm_start(&plan, &ind, &spec)]));
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

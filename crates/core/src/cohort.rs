//! Sharded cohort runs: streaming shard jobs of B individuals on the
//! [`crate::exec`] engine.
//!
//! [`run_cohort_sharded`] streams a synthetic study through the
//! executor in shards of `shard_size` individuals: each shard job
//! *generates* its slice of the study on the worker
//! ([`EmaGenerator::generate_range`]), runs it through the pipeline's
//! runner body — each member end to end (prepare → train → one eval
//! forward), one after another on one tape, dropped before the next —
//! and drops the data, so peak memory is bounded by (workers × shard's
//! series), not the study size. Shard size sets job and generation
//! granularity, not a training group. Results are byte-identical at
//! every `(thread count, shard size)` pair and to
//! [`crate::pipeline::run_individual`] on each member.

use crate::cluster::{plan_clusters, TrainStrategy};
use crate::exec::{expect_all, Executor, Job};
use crate::pipeline::{run_shard, IndividualOutcome, RunSpec};
use ema_data::EmaGenerator;
use ema_obs::span;

/// Streams a synthetic study through the executor in shards of
/// `shard_size` individuals. Each shard becomes one [`Job`] that
/// generates its slice of the study on the worker, runs it through the
/// runner body (warm-started from the cluster plan when the spec's
/// strategy asks for one), and returns its outcomes; per-shard memory
/// is dropped when the job ends, and warm pool buffers are handed
/// across jobs by the executor.
///
/// Results come back in individual order and are byte-identical at
/// every `(thread count, shard size)` pair.
///
/// # Panics
/// Panics when `shard_size` is zero, or propagates the first shard
/// failure after the queue drains.
#[must_use]
pub fn run_cohort_sharded(
    generator: &EmaGenerator,
    spec: &RunSpec,
    shard_size: usize,
    executor: &Executor,
) -> Vec<IndividualOutcome> {
    assert!(shard_size > 0, "shard size must be positive");
    let n = generator.config().num_individuals;
    let _span = span!(
        "cohort_sharded",
        model = spec.model.label(),
        graph = spec.graph.label(),
        individuals = n,
        shard_size = shard_size,
        threads = executor.threads()
    );
    // Cluster phase (when the strategy asks for it) runs once on the
    // calling thread before any shard job is spawned, so the plan — and
    // through it every result — is identical at every thread count.
    let plan = match &spec.train_strategy {
        TrainStrategy::Idiographic => None,
        TrainStrategy::ClusterWarmStart { .. } => Some(plan_clusters(generator, spec)),
    };
    let plan = plan.as_ref();
    let jobs: Vec<Job<'_, Vec<IndividualOutcome>>> = (0..n)
        .step_by(shard_size)
        .map(|start| {
            let end = (start + shard_size).min(n);
            Job::new(format!("shard_{start}_{end}"), move || {
                let _shard_span = span!("shard", start = start, individuals = end - start);
                let recorder = ema_obs::recorder();
                recorder.inc_counter("exec.shard_batches", 1);
                recorder.inc_counter("exec.shard_individuals", (end - start) as u64);
                let individuals = generator.generate_range(start, end);
                run_shard(
                    individuals.iter().map(|ind| (ind.id, &ind.data)),
                    spec,
                    plan,
                )
            })
        })
        .collect();
    expect_all(executor.run(jobs), "sharded cohort")
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_individual, GraphSpec};
    use crate::train::{train_cohort, train_model, TrainConfig};
    use ema_data::{make_windows, split_train_test, GeneratorConfig, Individual};
    use ema_models::{Forecaster, LstmForecaster, ModelConfig, ModelKind};

    fn quick_spec() -> RunSpec {
        RunSpec {
            model_config: ModelConfig::tiny(0),
            train_config: TrainConfig::quick(12, 3),
            ..RunSpec::new(ModelKind::Lstm, GraphSpec::None, 2)
        }
    }

    fn generator() -> EmaGenerator {
        EmaGenerator::new(GeneratorConfig::quick(5, 4, 17))
    }

    /// One `train_cohort` call over B individuals must reproduce B
    /// separate `train_model` runs bit for bit — losses, gradient norms,
    /// epoch counts, and the trained parameters.
    #[test]
    fn train_cohort_matches_per_individual_train_model() {
        let ds = generator().generate();
        let spec = quick_spec();
        let prep = |ind: &Individual| {
            let (train, _) = split_train_test(&ind.data, spec.train_fraction);
            let mut config = spec.train_config.clone();
            config.seed = ema_tensor::derive_stream_seed(spec.train_config.seed, ind.id as u64);
            (make_windows(&train, spec.seq_len), config)
        };
        let mut models: Vec<LstmForecaster> = ds
            .individuals
            .iter()
            .map(|ind| LstmForecaster::new(ind.data.dims()[1], &spec.model_config))
            .collect();
        let (windows, configs): (Vec<_>, Vec<_>) = ds.individuals.iter().map(prep).unzip();
        let reports = train_cohort(&mut models, &windows, &configs);

        for (b, ind) in ds.individuals.iter().enumerate() {
            let mut reference = LstmForecaster::new(ind.data.dims()[1], &spec.model_config);
            let r = train_model(&mut reference, &windows[b], &configs[b]);
            assert_eq!(reports[b].losses, r.losses, "individual {b} losses");
            assert_eq!(
                reports[b].grad_norms, r.grad_norms,
                "individual {b} grad norms"
            );
            assert_eq!(reports[b].epochs_run, r.epochs_run, "individual {b} epochs");
            assert_eq!(reports[b].early_stopped, r.early_stopped);
            for id in reference.params().ids() {
                assert_eq!(
                    models[b].params().value(id).data(),
                    reference.params().value(id).data(),
                    "individual {b} param {} diverged",
                    reference.params().name(id)
                );
            }
        }
    }

    #[test]
    fn sharded_outcomes_match_oracle_at_any_shard_size_and_thread_count() {
        let generator = generator();
        let spec = quick_spec();
        let key = |outcomes: &[IndividualOutcome]| -> Vec<(usize, f64, f64, usize)> {
            outcomes
                .iter()
                .map(|o| (o.id, o.mse, o.final_train_loss, o.epochs_run))
                .collect()
        };
        let oracle: Vec<IndividualOutcome> = generator
            .generate()
            .individuals
            .iter()
            .map(|ind| run_individual(ind.id, &ind.data, &spec))
            .collect();
        assert_eq!(oracle.len(), 5);
        for (shard_size, threads) in [(1, 1), (2, 2), (3, 4), (5, 1)] {
            let got = run_cohort_sharded(
                &generator,
                &spec,
                shard_size,
                &Executor::with_threads(threads),
            );
            assert_eq!(
                key(&got),
                key(&oracle),
                "shard_size={shard_size} threads={threads}"
            );
        }
    }

    #[test]
    fn early_stopping_individuals_leave_the_active_group() {
        let ds = generator().generate();
        let spec = quick_spec();
        let mut configs: Vec<TrainConfig> = Vec::new();
        let mut models = Vec::new();
        let mut windows = Vec::new();
        for (b, ind) in ds.individuals.iter().enumerate() {
            let (train, _) = split_train_test(&ind.data, spec.train_fraction);
            let mut config = spec.train_config.clone();
            config.seed = ema_tensor::derive_stream_seed(config.seed, ind.id as u64);
            // Staggered schedules: each member runs exactly its own.
            config.epochs = 4 + 3 * b;
            config.early_stop_rel = 0.0;
            models.push(LstmForecaster::new(ind.data.dims()[1], &spec.model_config));
            windows.push(make_windows(&train, spec.seq_len));
            configs.push(config);
        }
        let reports = train_cohort(&mut models, &windows, &configs);
        for (b, report) in reports.iter().enumerate() {
            assert_eq!(report.epochs_run, 4 + 3 * b, "individual {b}");
            assert!(!report.early_stopped);
        }
    }

    /// One shard through the runner body must reproduce
    /// `run_individual` on each member bit for bit — MSEs, losses,
    /// epoch counts, and MTGNN's learned graph.
    fn assert_cohort_batch_matches_run_individual(spec: &RunSpec) {
        let ds = generator().generate();
        let model = spec.model;
        let got = run_shard(
            ds.individuals.iter().map(|ind| (ind.id, &ind.data)),
            spec,
            None,
        );
        for (o, ind) in got.iter().zip(&ds.individuals) {
            let want = run_individual(ind.id, &ind.data, spec);
            assert_eq!(o.mse, want.mse, "{model:?} individual {} mse", ind.id);
            assert_eq!(
                o.per_variable_mse, want.per_variable_mse,
                "{model:?} individual {} per-variable mse",
                ind.id
            );
            assert_eq!(
                o.final_train_loss, want.final_train_loss,
                "{model:?} individual {} final loss",
                ind.id
            );
            assert_eq!(
                o.epochs_run, want.epochs_run,
                "{model:?} individual {}",
                ind.id
            );
            assert_eq!(
                o.learned_graph
                    .as_ref()
                    .map(|g| g.weights().data().to_vec()),
                want.learned_graph
                    .as_ref()
                    .map(|g| g.weights().data().to_vec()),
                "{model:?} individual {} learned graph",
                ind.id
            );
        }
    }

    /// The VAR baseline runs through the shard body like every other
    /// model: each member trains and evaluates on its own forward, one
    /// window-group linear layer over that member's windows.
    #[test]
    fn var_cohort_batch_matches_run_individual() {
        assert_cohort_batch_matches_run_individual(&RunSpec {
            model_config: ModelConfig::tiny(0),
            train_config: TrainConfig::quick(6, 3),
            ..RunSpec::new(ModelKind::Var, GraphSpec::None, 2)
        });
    }

    #[test]
    fn graph_model_cohort_batch_matches_run_individual() {
        for model in [ModelKind::A3tgcn, ModelKind::Astgcn, ModelKind::Mtgnn] {
            assert_cohort_batch_matches_run_individual(&RunSpec {
                model_config: ModelConfig::tiny(0),
                train_config: TrainConfig::quick(6, 3),
                ..RunSpec::new(
                    model,
                    GraphSpec::Static {
                        metric: ema_similarity::GraphMetric::Correlation,
                        gdt: ema_graph::sparsify::DensityThreshold::Gdt40,
                    },
                    2,
                )
            });
        }
    }
}

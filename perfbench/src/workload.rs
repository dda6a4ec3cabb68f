//! The three workloads and the inputs each builds from a seed.
//!
//! Every input is a pure function of `(workload, seed)`: the data and
//! training (dropout) seeds are derived from the seed argument as
//! separate streams, so a second seed is a fresh instance of the same
//! shape. Model initialisation keeps the presets' fixed seed: every
//! individual of a stream starts from that one init, so deriving it
//! from the seed would move `mse_mean` for all 10k individuals at once.

use ema_core::experiments::ExperimentScale;
use ema_core::{
    run_cohort_sharded, run_cohort_with, Executor, GraphSpec, IndividualOutcome, RunSpec,
    TrainConfig, TrainStrategy,
};
use ema_data::{EmaDataset, EmaGenerator, GeneratorConfig};
use ema_graph::sparsify::DensityThreshold;
use ema_models::{ModelConfig, ModelKind};
use ema_similarity::GraphMetric;
use ema_tensor::derive_stream_seed;

/// Stream ids the per-instance seeds are derived under.
const DATA_STREAM: u64 = 1;
const TRAIN_STREAM: u64 = 2;

/// Individuals in each stream workload.
const STREAM_INDIVIDUALS: usize = 10_000;
/// Shard size of both stream workloads. At 64 the grouped backward
/// working set of the graph model is larger than a 4 MiB L2.
const STREAM_SHARD: usize = 64;
/// Shards per executor worker in a warm-up stream.
const WARMUP_SHARDS_PER_WORKER: usize = 6;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's claim-bearing cell, cut down: MTGNN on a correlation
    /// graph at GDT 40%, Seq5, V=26, T≈140, hidden 32, through
    /// `run_cohort_with`.
    PaperCell,
    /// 10k tiny MTGNN individuals streamed through
    /// `run_cohort_sharded` at shard 64.
    StreamGraph,
    /// 10k tiny LSTM individuals warm-started from K-medoids cluster
    /// checkpoints, streamed at shard 64.
    StreamWarmstart,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload::PaperCell,
    Workload::StreamGraph,
    Workload::StreamWarmstart,
];

/// Where a workload's individuals come from.
pub enum Input {
    /// A materialised study, run by `run_cohort_with` (one job per
    /// individual).
    Cohort {
        /// The generator the study was drawn from.
        generator: EmaGenerator,
        /// The generated study.
        dataset: EmaDataset,
    },
    /// A streamed study, run by `run_cohort_sharded` (one job per
    /// shard, generated on the worker).
    Stream {
        /// The study generator.
        generator: EmaGenerator,
        /// Individuals per shard job.
        shard: usize,
    },
}

/// A workload's inputs for one seed.
pub struct Instance {
    /// The run condition every individual is trained under.
    pub spec: RunSpec,
    /// The individuals.
    pub input: Input,
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCell => "paper_cell",
            Workload::StreamGraph => "stream_graph",
            Workload::StreamWarmstart => "stream_warmstart",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Builds this workload's inputs for `seed`. `smoke` shrinks every
    /// size to a few individuals and epochs for the crate's own tests;
    /// the shape of the run (model, graph, entry point, strategy) is
    /// unchanged.
    #[must_use]
    pub fn instance(self, seed: u64, smoke: bool) -> Instance {
        let data_seed = derive_stream_seed(seed, DATA_STREAM);
        let train_seed = derive_stream_seed(seed, TRAIN_STREAM);
        let correlation_gdt40 = GraphSpec::Static {
            metric: GraphMetric::Correlation,
            gdt: DensityThreshold::Gdt40,
        };
        match self {
            Workload::PaperCell => {
                let scale = if smoke {
                    ExperimentScale {
                        num_individuals: 2,
                        num_variables: 6,
                        mean_time_points: 40,
                        epochs: 2,
                        hidden: 8,
                        data_seed,
                        ..ExperimentScale::full()
                    }
                } else {
                    ExperimentScale {
                        num_individuals: 8,
                        epochs: 10,
                        data_seed,
                        ..ExperimentScale::full()
                    }
                };
                let mut spec = scale.spec(ModelKind::Mtgnn, correlation_gdt40, 5);
                spec.train_config.seed = train_seed;
                let generator = EmaGenerator::new(GeneratorConfig {
                    num_individuals: scale.num_individuals,
                    num_variables: scale.num_variables,
                    mean_time_points: scale.mean_time_points,
                    seed: data_seed,
                    ..GeneratorConfig::default()
                });
                let dataset = generator.generate();
                Instance {
                    spec,
                    input: Input::Cohort { generator, dataset },
                }
            }
            Workload::StreamGraph | Workload::StreamWarmstart => {
                let (individuals, shard) = if smoke {
                    (24, 8)
                } else {
                    (STREAM_INDIVIDUALS, STREAM_SHARD)
                };
                let generator = EmaGenerator::new(GeneratorConfig {
                    num_individuals: individuals,
                    num_variables: 3,
                    mean_time_points: 12,
                    seed: data_seed,
                    ..GeneratorConfig::default()
                });
                let mut spec = if self == Workload::StreamGraph {
                    RunSpec::new(ModelKind::Mtgnn, correlation_gdt40, 2)
                } else {
                    RunSpec {
                        train_strategy: TrainStrategy::ClusterWarmStart {
                            k: if smoke { 2 } else { 4 },
                            cluster_epochs: 4,
                            fine_tune_epochs: 1,
                        },
                        ..RunSpec::new(ModelKind::Lstm, GraphSpec::None, 2)
                    }
                };
                spec.model_config = ModelConfig::tiny(0);
                let epochs = if self == Workload::StreamGraph { 2 } else { 4 };
                spec.train_config = TrainConfig::quick(epochs, train_seed);
                Instance {
                    spec,
                    input: Input::Stream { generator, shard },
                }
            }
        }
    }
}

impl Instance {
    /// Individuals one pass processes.
    #[must_use]
    pub fn individuals(&self) -> usize {
        match &self.input {
            Input::Cohort { dataset, .. } => dataset.individuals.len(),
            Input::Stream { generator, .. } => generator.config().num_individuals,
        }
    }

    /// One pass through the pipeline's public entry point.
    #[must_use]
    pub fn run(&self, executor: &Executor) -> Vec<IndividualOutcome> {
        match &self.input {
            Input::Cohort { dataset, .. } => run_cohort_with(dataset, &self.spec, executor),
            Input::Stream { generator, shard } => {
                run_cohort_sharded(generator, &self.spec, *shard, executor)
            }
        }
    }

    /// A small instance of the same run shape, for warming the process
    /// up before timing: the same study trained for one epoch, or a
    /// stream of a few shards per worker.
    #[must_use]
    pub fn warmup(&self, workers: usize) -> Instance {
        let mut spec = self.spec.clone();
        let input = match &self.input {
            Input::Cohort { generator, dataset } => {
                spec.train_config.epochs = 1;
                Input::Cohort {
                    generator: generator.clone(),
                    dataset: dataset.clone(),
                }
            }
            Input::Stream { generator, shard } => {
                let individuals =
                    (shard * workers * WARMUP_SHARDS_PER_WORKER).min(self.individuals());
                let config = GeneratorConfig {
                    num_individuals: individuals,
                    ..generator.config().clone()
                };
                Input::Stream {
                    generator: EmaGenerator::new(config),
                    shard: *shard,
                }
            }
        };
        Instance { spec, input }
    }
}

//! # ema-core
//!
//! The paper's personalized EMA forecasting pipeline, end to end:
//!
//! 1. generate (or load) a study of `N` individuals ([`ema_data`]);
//! 2. per individual: sequential 70/30 split, similarity-graph
//!    construction **from the training portion only**, GDT
//!    sparsification ([`ema_similarity`], [`ema_graph`]);
//! 3. full-batch training of a personalized model for 300 epochs with
//!    Adam at lr 0.01 ([`train`]);
//! 4. test-set MSE per Eq. (1), aggregated as mean(std) across
//!    individuals ([`evaluate`]);
//! 5. the paper's three experiments ([`experiments`]): model comparison
//!    (Table II), graph structure & sparsity (Table III), and static vs
//!    MTGNN-learned graphs (Fig. 3), plus ablations.
//!
//! Cohorts are embarrassingly parallel (one personalized model per
//! individual), so step 3 is scheduled by the [`exec`] cohort execution
//! engine — a zero-dependency thread pool sized by `--threads` /
//! `EMA_THREADS` — with per-individual random streams split from the
//! run seed so results are byte-identical at every thread count.
//!
//! The pipeline is instrumented end to end with [`ema_obs`] telemetry:
//! per-individual/per-condition spans, per-epoch `train_epoch` events
//! (loss, gradient norm) and early-stop decisions, controlled by
//! `EMA_OBS=off|summary|full` (default `summary`). Telemetry is
//! determinism-safe — timing only ever appears in `results/obs/`
//! output, never in results or checkpoint JSON.
//!
//! ```no_run
//! use ema_core::experiments::{ExperimentScale, run_experiment_a};
//! use ema_core::Executor;
//!
//! let table2 = run_experiment_a(&ExperimentScale::quick(), &Executor::from_env());
//! println!("{}", table2.render());
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod cluster;
pub mod cohort;
pub mod evaluate;
pub mod exec;
pub mod experiments;
pub mod pipeline;
pub mod results;
pub mod train;

pub use checkpoint::Checkpoint;
pub use cluster::{plan_clusters, ClusterPlan, TrainStrategy};
pub use cohort::run_cohort_sharded;
pub use ema_obs::{Json, JsonError};
pub use ema_tensor::{KernelBackend, KernelScope};
pub use exec::{Executor, Job, JobError, JobResult};
pub use pipeline::{
    graph_for_individual, run_cohort_with, run_individual, GraphSpec, IndividualOutcome, RunSpec,
};
pub use results::{BoxplotStats, CellStat, ResultTable};
pub use train::{train_cohort, train_model, TrainConfig, TrainReport};

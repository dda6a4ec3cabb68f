//! # ema-models
//!
//! The four forecasting models compared by the paper, implemented on the
//! `ema-nn`/`ema-autodiff` substrate:
//!
//! | Model | Paper category | Graph usage |
//! |-------|----------------|-------------|
//! | [`LstmForecaster`] | baseline | none |
//! | [`A3tgcn`] | Recurrent GCN | static Â (GCN-gated GRU + temporal attention) |
//! | [`Astgcn`] | Temporal GAT | static Chebyshev stack ⊙ learned spatial attention |
//! | [`Mtgnn`] | Temporal GAT + graph learning | **learned** adjacency (node embeddings), optionally primed with a static graph |
//!
//! All models implement [`Forecaster`]: given a `[seq_len, V]` window
//! they predict the `[V]` vector at the next time point (the paper's
//! 1-lag forecasting task). All of them, the VAR baseline included,
//! also implement [`CohortForecaster`], which forwards a group of
//! individuals through one tape graph (training runs groups of one).
//! Model hyper-parameters follow Section V-D: 32 hidden units, kernel
//! 3, dropout 0.3.

#![warn(missing_docs)]

mod a3tgcn;
mod astgcn;
mod cohort;
mod config;
mod forecaster;
mod gcn;
mod lstm;
mod mtgnn;
mod var;

pub use a3tgcn::A3tgcn;
pub use astgcn::Astgcn;
pub use cohort::{CohortBatch, CohortCtx, CohortForecaster, WindowBatch};
pub use config::ModelConfig;
pub use forecaster::{Forecaster, ForwardCtx, ModelKind};
pub use lstm::LstmForecaster;
pub use mtgnn::{GraphLearnerKind, Mtgnn};
pub use var::VarForecaster;

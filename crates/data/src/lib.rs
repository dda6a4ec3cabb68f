//! # ema-data
//!
//! EMA dataset handling: synthetic data generation, preprocessing,
//! train/test splitting, input windowing and CSV interchange.
//!
//! ## The dataset substitution
//!
//! The paper evaluates on proprietary pilot data from the NSMD project
//! (269 → 100 Dutch university students, 26 EMA variables on a 7-point
//! Likert scale, 8 beeps/day × 28 days ≈ 140 usable time points each).
//! That data cannot be redistributed, so [`synthetic`] provides a
//! generative stand-in with the same statistical skeleton:
//!
//! * each individual has an **idiosyncratic sparse interaction graph**
//!   driving a stable VAR(1) process with tanh nonlinearity;
//! * a circadian component models diurnal affect cycles (8 beeps/day);
//! * responses are quantised to a 7-point Likert scale and beeps are
//!   dropped at a configurable non-compliance rate;
//! * per-individual z-normalisation matches the paper's preprocessing.
//!
//! Because the generator exposes each individual's ground-truth graph,
//! integration tests can verify that similarity graphs and GNN-learned
//! graphs recover real structure — something the original study could
//! not check.

#![warn(missing_docs)]

mod dataset;
pub mod io;
pub mod preprocess;
pub mod synthetic;
pub mod variables;
pub mod window;

pub use dataset::{EmaDataset, Individual};
pub use synthetic::{EmaGenerator, GeneratorConfig};
pub use window::{make_test_windows, make_windows, split_train_test, WindowedData};

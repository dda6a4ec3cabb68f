//! # ema-nn
//!
//! Neural-network building blocks on top of [`ema_autodiff`]: a parameter
//! store, layers (linear, LSTM cell, temporal attention, dilated
//! temporal convolution) and the Adam optimizer with global-norm
//! gradient clipping.
//!
//! ## Training protocol
//!
//! Parameters live *outside* any tape in a [`ParamStore`]. Each training
//! step:
//!
//! 1. create a fresh [`ema_autodiff::Tape`] and call
//!    [`ParamStore::bind`] to insert every parameter as a leaf;
//! 2. run the model forward using the returned [`Binding`];
//! 3. call [`ema_autodiff::Tape::backward`] on the scalar loss;
//! 4. call the optimizer's `step` with the store, binding and gradients.
//!
//! ```
//! use ema_autodiff::Tape;
//! use ema_nn::{Adam, Linear, Optimizer, OptimizerConfig, ParamStore};
//! use ema_tensor::{Rng64, Tensor};
//!
//! let mut store = ParamStore::new();
//! let mut rng = Rng64::seed_from(0);
//! let layer = Linear::new(&mut store, "demo", 3, 1, &mut rng);
//! let mut adam = Adam::new(OptimizerConfig::with_learning_rate(0.01));
//!
//! for _ in 0..50 {
//!     let tape = Tape::new();
//!     let binding = store.bind(&tape);
//!     let x = tape.leaf(Tensor::ones(&[4, 3]));
//!     let target = tape.leaf(Tensor::zeros(&[4, 1]));
//!     let y = layer.forward(&tape, &binding, x);
//!     let loss = tape.mse(y, target);
//!     let grads = tape.backward(loss);
//!     adam.step(&mut store, &binding, &grads);
//! }
//! ```

#![warn(missing_docs)]

mod attention;
mod conv;
mod init;
mod linear;
mod optim;
mod params;
mod rnn;

pub use attention::TemporalAttention;
pub use conv::DilatedTemporalConv;
pub use init::Initializer;
pub use linear::Linear;
pub use optim::{Adam, Optimizer, OptimizerConfig};
pub use params::{Binding, ParamId, ParamStore};
pub use rnn::{LstmCell, LstmState};

//! # ema-autodiff
//!
//! Reverse-mode automatic differentiation over [`ema_tensor::Tensor`].
//!
//! The design is a classic *tape*: every operation appends a node holding
//! its forward value and an op descriptor; [`Tape::backward`] walks the
//! tape in reverse, propagating gradients to every node. Variables are
//! plain `Copy` indices ([`Var`]), so model code reads naturally:
//!
//! ```
//! use ema_autodiff::Tape;
//! use ema_tensor::Tensor;
//!
//! let tape = Tape::new();
//! let w = tape.leaf(Tensor::from_vec2(vec![vec![2.0]]).unwrap());
//! let x = tape.leaf(Tensor::from_vec2(vec![vec![3.0]]).unwrap());
//! let y = tape.matmul(w, x);          // y = w · x
//! let loss = tape.sum_all(y);
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(w).unwrap().data(), &[3.0]); // ∂(wx)/∂w = x
//! ```
//!
//! Training loops in `ema-nn`/`ema-models` build a fresh tape per epoch:
//! parameters live outside the tape as plain tensors, are inserted as
//! leaves each forward pass, and their gradients are read back from the
//! returned [`Grads`].
//!
//! Every differentiable op is covered by a central-finite-difference
//! gradient check in this crate's tests (see [`check`]).

#![warn(missing_docs)]

pub mod check;
mod grads;
mod op;
mod tape;
mod tape_ops_batched;
mod tape_ops_group;
mod tape_ops_linalg;
mod tape_ops_nn;
mod tape_ops_shape;

pub use grads::Grads;
pub(crate) use op::Op;
pub use tape::{Tape, Var};

//! Reverse-mode automatic differentiation for the BikeCAP reproduction.
//!
//! The design is a *define-by-run tape*: every forward pass builds a fresh
//! [`Tape`] whose nodes record the operation graph; [`Tape::backward`] walks it
//! in reverse, accumulating gradients into a [`ParamStore`] shared across
//! steps. Model parameters live in the store; each step leafs them onto the
//! tape with [`Tape::param`].
//!
//! ```
//! use bikecap_autograd::{ParamStore, Tape};
//! use bikecap_tensor::Tensor;
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::from_vec(vec![2.0], &[1]));
//!
//! let mut tape = Tape::new();
//! let wv = tape.param(&store, w);
//! let x = tape.constant(Tensor::from_vec(vec![3.0], &[1]));
//! let y = tape.mul(wv, x);          // y = w * x
//! let loss = tape.sum(y);           // dL/dw = x = 3
//! tape.backward(loss, &mut store);
//! assert_eq!(store.grad(w).as_slice(), &[3.0]);
//! ```
//!
//! Ops cover everything the BikeCAP architecture and the paper's baselines
//! need: broadcasting arithmetic, matmul, 2-D/3-D convolution (plus masked and
//! transposed variants), softmax over trailing axes, the capsule squash
//! (composed from primitives), structural ops and L1/L2 losses.
//!
//! The [`check`] module provides a finite-difference gradient checker used
//! throughout the workspace's test suites.

pub mod check;
mod params;
mod tape;

pub use params::{ParamId, ParamStore};
pub use tape::{Tape, TraceOp, Var};

//! # BikeCAP — facade crate
//!
//! A Rust reproduction of *"BikeCAP: Deep Spatial-temporal Capsule Network for
//! Multi-step Bike Demand Prediction"* (ICDCS 2022). This crate re-exports the
//! whole workspace so applications can depend on a single crate:
//!
//! * [`tensor`] — dense f32 N-d tensors and convolution kernels.
//! * [`autograd`] — reverse-mode automatic differentiation.
//! * [`nn`] — layers, optimizers, parameter stores.
//! * [`sim`] — the synthetic Shenzhen-style city simulator (subway + bike trips).
//! * [`model`] — the BikeCAP capsule network and its ablation variants.
//! * [`baselines`] — the seven comparison forecasters from the paper.
//! * [`eval`] — metrics and the repeated-seed experiment harness.
//! * [`serve`] — batched multi-threaded inference serving (registry,
//!   micro-batching queue, std-only HTTP front end).
//! * [`live`] — the live-city adaptation loop: streaming ingestion into a
//!   rolling demand window, drift detection over prediction error and
//!   routing telemetry, and self-healing redeployment (fine-tune →
//!   shadow-eval → hot-swap, with rollback on any failure).
//! * [`faults`] — deterministic seeded failpoints; armed only with the
//!   `faultline` feature, compiled to no-ops otherwise.
//! * [`rt`] — deterministic parallel runtime: the chunk-stealing thread
//!   pool behind the conv/routing hot paths (`BIKECAP_THREADS`,
//!   `--threads`), bitwise-identical at every thread count.
//! * [`quant`] — post-training quantization as a storage format,
//!   dequantized at load: ggml-style Q8_0 block weights and software f16,
//!   and the checkpoint dtype policy behind `bikecap quantize`.
//! * [`verify`] — static verifier for compiled executor plans: proves slab
//!   disjointness, refcount balance, bounds, and schedule validity per
//!   plan (every compiled plan, strictly), plus the mutation harness
//!   that keeps the verifier itself honest.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough.

pub use bikecap_autograd as autograd;
pub use bikecap_baselines as baselines;
pub use bikecap_check as check;
pub use bikecap_city_sim as sim;
pub use bikecap_core as model;
pub use bikecap_eval as eval;
pub use bikecap_faults as faults;
pub use bikecap_ir as ir;
pub use bikecap_live as live;
pub use bikecap_nn as nn;
pub use bikecap_obs as obs;
pub use bikecap_quant as quant;
pub use bikecap_rt as rt;
pub use bikecap_serve as serve;
pub use bikecap_tensor as tensor;
pub use bikecap_verify as verify;

//! `bikecap-quant` — post-training quantization for the BikeCAP
//! reproduction.
//!
//! Q8_0 and f16 are *storage* formats: a quantized checkpoint is a fraction
//! of the f32 size on disk, and loading it dequantizes every entry into the
//! model's f32 parameter store, so inference runs the ordinary f32 kernels
//! on both the eager and the compiled path. Two pieces, std-only like the
//! rest of the workspace:
//!
//! * [`format`](mod@format) — the weight containers: ggml-style Q8_0
//!   blocks (32 elements per f32 scale, 36 bytes on disk) and a
//!   software-f16 format, plus the name/shape eligibility policy that
//!   routes conv and linear weights to blocks and everything else to f16;
//! * [`f16`](mod@f16) — the binary16 conversions behind the f16 format.
//!
//! Checkpoint container integration (format v4) lives in
//! `bikecap_nn::serialize`; this crate only defines the in-memory formats
//! and their byte payloads. The `quant.dequant.block` failpoint
//! (armed by the `faultline` feature) injects faults into block expansion
//! so chaos suites can prove corrupt-load error paths stay typed.

#![deny(missing_docs)]

pub mod f16;
pub mod format;

pub use format::{
    precision_label, q8_eligible, quantize_pairs, quantize_tensor, DequantError, F16Tensor, Q8Tensor, QuantEntry,
    QuantFormat, Q8_BLOCK_BYTES, QK8_0,
};

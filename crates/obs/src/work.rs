//! Analytic work model: FLOPs and bytes-moved per kernel, derived from
//! shapes alone.
//!
//! Each constructor encodes the arithmetic and memory traffic of one kernel
//! *as implemented* in `bikecap-tensor` (im2col + GEMM convolutions, two-pass
//! softmax, …), not a textbook lower bound — the point is to compare achieved
//! GFLOP/s and GB/s against the machine roofline and call a kernel memory- or
//! compute-bound. The exact formulas are documented in DESIGN.md Appendix I;
//! changing a kernel's data movement means updating the matching constructor.
//!
//! Usage: inside an existing kernel span, build the [`Work`] for the shapes
//! at hand and [`Work::record`] it. That emits two value events —
//! `perf.flops` and `perf.bytes` — which [`crate::table::roofline_table`]
//! attributes to the innermost enclosing span, so the roofline columns in
//! `bikecap profile` line up with the cost table's span names. Recording is
//! inert (one atomic load) while observability is off.

/// Analytic cost of one kernel invocation: floating-point operations and
/// bytes moved through memory (reads + writes of f32 elements).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Work {
    /// Floating-point operations (multiply and add counted separately).
    pub flops: f64,
    /// Bytes moved: every f32 element read or written, at 4 bytes each.
    pub bytes: f64,
}

/// Bytes per element everywhere in the numeric stack.
const F32: f64 = 4.0;

impl Work {
    /// `C = A·B` with `A (m,k)` and `B (k,n)`: `2mkn` flops; reads both
    /// operands once and writes the output once.
    pub fn matmul(m: usize, k: usize, n: usize) -> Work {
        let (m, k, n) = (m as f64, k as f64, n as f64);
        Work {
            flops: 2.0 * m * k * n,
            bytes: F32 * (m * k + k * n + m * n),
        }
    }

    /// im2col + GEMM 3-D convolution producing `(batch, c_out, od, oh, ow)`
    /// from a `c_in`-channel input with kernel `(kd, kh, kw)`.
    ///
    /// With `P = batch·od·oh·ow` output positions and `K = c_in·kd·kh·kw`
    /// patch length: `2·P·K·c_out` flops; traffic is the im2col gather read
    /// plus column write plus the GEMM's column re-read (`3·P·K`), the
    /// weights (`K·c_out`), and the output write (`P·c_out`).
    pub fn conv3d(
        batch: usize,
        c_in: usize,
        c_out: usize,
        out_dims: (usize, usize, usize),
        kernel: (usize, usize, usize),
    ) -> Work {
        let positions = (batch * out_dims.0 * out_dims.1 * out_dims.2) as f64;
        let patch = (c_in * kernel.0 * kernel.1 * kernel.2) as f64;
        let c_out = c_out as f64;
        Work {
            flops: 2.0 * positions * patch * c_out,
            bytes: F32 * (3.0 * positions * patch + patch * c_out + positions * c_out),
        }
    }

    /// GEMM + col2im transposed 3-D convolution: input `(batch, c_in, d, h,
    /// w)`, kernel `(kd, kh, kw)`, output `(batch, c_out, od, oh, ow)`.
    ///
    /// With `P = batch·d·h·w` input positions and `K = c_out·kd·kh·kw`: the
    /// GEMM is `2·P·c_in·K` flops and the col2im scatter adds another `P·K`;
    /// traffic is the input and weights once, the column matrix written and
    /// re-read (`2·P·K`), and the output's read-modify-write scatter
    /// (`2·batch·c_out·od·oh·ow`).
    pub fn conv_transpose3d(
        batch: usize,
        c_in: usize,
        c_out: usize,
        in_dims: (usize, usize, usize),
        out_dims: (usize, usize, usize),
        kernel: (usize, usize, usize),
    ) -> Work {
        let positions = (batch * in_dims.0 * in_dims.1 * in_dims.2) as f64;
        let patch = (c_out * kernel.0 * kernel.1 * kernel.2) as f64;
        let c_in = c_in as f64;
        let out_elems = (batch * c_out * out_dims.0 * out_dims.1 * out_dims.2) as f64;
        Work {
            flops: 2.0 * positions * c_in * patch + positions * patch,
            bytes: F32
                * (positions * c_in
                    + c_in * patch
                    + 2.0 * positions * patch
                    + 2.0 * out_elems),
        }
    }

    /// Numerically stable softmax over `groups` rows of `len` elements: per
    /// element one max-scan compare, a subtract, an exp (counted as one
    /// flop), a sum add, and a divide — `5n` flops; two read/write passes
    /// move each element four times.
    pub fn softmax(groups: usize, len: usize) -> Work {
        let n = (groups * len) as f64;
        Work {
            flops: 5.0 * n,
            bytes: F32 * 4.0 * n,
        }
    }

    /// Capsule squash of `vectors` vectors of dimension `dim` (paper Eq. 2):
    /// a `2·dim` dot product, the `norm²/(1+norm²)/√norm²` scale (counted as
    /// 8 flops including the sqrt), and a `dim` rescale per vector; each
    /// element is read once and written once.
    pub fn squash(vectors: usize, dim: usize) -> Work {
        let v = vectors as f64;
        let d = dim as f64;
        Work {
            flops: v * (3.0 * d + 8.0),
            bytes: F32 * 2.0 * v * d,
        }
    }

    /// Routing transform: per batch entry (fold grid cells into `batch`),
    /// every of the `s_in` input capsules predicts every of the `s_out`
    /// output capsules through its own `(d_out, d_in)` matrix — a batched
    /// matmul of `2·batch·s_in·s_out·d_in·d_out` flops; traffic is the input
    /// poses, the transform weights once, and the prediction writes.
    pub fn routing_transform(
        batch: usize,
        s_in: usize,
        s_out: usize,
        d_in: usize,
        d_out: usize,
    ) -> Work {
        let (b, si, so, di, dv) = (
            batch as f64,
            s_in as f64,
            s_out as f64,
            d_in as f64,
            d_out as f64,
        );
        Work {
            flops: 2.0 * b * si * so * di * dv,
            bytes: F32 * (b * si * di + si * so * di * dv + b * si * so * dv),
        }
    }

    /// Arithmetic intensity, flops per byte. Zero traffic yields 0 rather
    /// than a NaN so aggregations stay clean.
    pub fn intensity(&self) -> f64 {
        if self.bytes > 0.0 {
            self.flops / self.bytes
        } else {
            0.0
        }
    }

    /// Emits the model as `perf.flops` / `perf.bytes` value events inside
    /// the current span. One atomic load and out while observability is off,
    /// so kernels can call this unconditionally.
    #[inline]
    pub fn record(&self) {
        if !crate::enabled() {
            return;
        }
        crate::value("perf.flops", self.flops);
        crate::value("perf.bytes", self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_counts_multiply_add_pairs() {
        let w = Work::matmul(128, 256, 64);
        assert_eq!(w.flops, 2.0 * 128.0 * 256.0 * 64.0);
        assert_eq!(w.bytes, 4.0 * (128.0 * 256.0 + 256.0 * 64.0 + 128.0 * 64.0));
        assert!(w.intensity() > 0.0);
    }

    #[test]
    fn conv3d_matches_im2col_gemm_decomposition() {
        // 16x4x8x8x8 input, 3x3x3 same-padded, 4 -> 8 channels: the GEMM is
        // (16*512, 108) x (108, 8).
        let w = Work::conv3d(16, 4, 8, (8, 8, 8), (3, 3, 3));
        let positions = 16.0 * 512.0;
        let patch = 4.0 * 27.0;
        assert_eq!(w.flops, 2.0 * positions * patch * 8.0);
        let gemm = Work::matmul(16 * 512, 108, 8);
        // Conv moves strictly more than its GEMM: the im2col gather + column
        // materialisation add 2·P·K elements of traffic.
        assert_eq!(w.bytes - gemm.bytes, 4.0 * 2.0 * positions * patch);
    }

    #[test]
    fn conv_transpose_includes_scatter_traffic() {
        let w = Work::conv_transpose3d(2, 8, 4, (4, 6, 6), (4, 6, 6), (3, 3, 3));
        let positions = 2.0 * 4.0 * 6.0 * 6.0;
        let patch = 4.0 * 27.0;
        assert_eq!(w.flops, 2.0 * positions * 8.0 * patch + positions * patch);
        assert!(w.bytes > 4.0 * 2.0 * positions * patch);
    }

    #[test]
    fn elementwise_ops_are_memory_bound_by_construction() {
        // Softmax and squash land far below one flop per byte — the model
        // must classify them memory-bound under any sane machine balance.
        assert!(Work::softmax(1024, 16).intensity() < 2.0);
        assert!(Work::squash(4096, 8).intensity() < 2.0);
    }

    #[test]
    fn zero_traffic_has_zero_intensity() {
        let w = Work {
            flops: 12.0,
            bytes: 0.0,
        };
        assert_eq!(w.intensity(), 0.0);
    }
}

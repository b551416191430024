//! Group-wise INT8 quantization for weights and optimizer states.
//!
//! Two users in the reproduction:
//!
//! - **Q-APOLLO / Q-GaLore** (Table 6, Fig. 1 middle): model weights are
//!   held in INT8 with a per-group scale (group size 128, as in Q-GaLore)
//!   and updated through a dequantize → update → requantize round-trip
//!   (straight-through estimator).
//! - **8-bit Adam / 8-bit GaLore** (Table 3): optimizer moments are stored
//!   block-wise quantized and dequantized on use.
//!
//! The scheme is symmetric absmax quantization: within each group of
//! `group` consecutive elements, `q = round(x / scale)` with
//! `scale = absmax / 127`.
//!
//! # Example
//!
//! ```
//! use apollo_quant::QuantizedMatrix;
//! use apollo_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let w = Matrix::randn(8, 32, &mut rng);
//! let q = QuantizedMatrix::quantize(&w, 128);
//! let err = q.dequantize().sub(&w).max_abs();
//! assert!(err < 0.05); // bounded by scale/2 per group
//! ```

use apollo_tensor::{simd, Matrix};

/// An INT8 matrix with per-group absmax scales.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    group: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes a matrix with groups of `group` consecutive (row-major)
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if `group == 0`.
    pub fn quantize(m: &Matrix, group: usize) -> Self {
        assert!(group > 0, "group size must be positive");
        let flat = m.as_slice();
        let n_groups = flat.len().div_ceil(group);
        let mut data = Vec::with_capacity(flat.len());
        let mut scales = Vec::with_capacity(n_groups);
        for g in 0..n_groups {
            let chunk = &flat[g * group..((g + 1) * group).min(flat.len())];
            let absmax = chunk.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let scale = if absmax > 0.0 { absmax / 127.0 } else { 1.0 };
            scales.push(scale);
            for &x in chunk {
                data.push((x / scale).round().clamp(-127.0, 127.0) as i8);
            }
        }
        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            group,
            data,
            scales,
        }
    }

    /// Reconstructs the full-precision matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Vec::with_capacity(self.data.len());
        for (i, &q) in self.data.iter().enumerate() {
            out.push(q as f32 * self.scales[i / self.group]);
        }
        Matrix::from_vec(self.rows, self.cols, out)
    }

    /// `(rows, cols)` of the logical matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Group size.
    pub fn group(&self) -> usize {
        self.group
    }

    /// Bytes of storage: one byte per element plus 4 per group scale.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() + 4 * self.scales.len()
    }

    /// The worst-case absolute reconstruction error (`scale / 2` per group).
    pub fn max_quantization_error(&self) -> f32 {
        self.scales.iter().fold(0.0f32, |m, &s| m.max(s / 2.0))
    }

    /// Computes `out = x · W` for a single activation row without ever
    /// materializing the f32 weight matrix: each INT8 row segment with a
    /// constant group scale is folded into one fused `out += (x_p·scale)·q`
    /// pass (the INT8 decode fast path).
    ///
    /// Groups are laid out over *flat* row-major elements, so a group can
    /// span row boundaries; the inner loop walks constant-scale segments of
    /// each row, which degenerates to one segment per row whenever `cols`
    /// divides the group size.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn dequant_gemv_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "dequant_gemv_into: x length mismatch");
        assert_eq!(
            out.len(),
            self.cols,
            "dequant_gemv_into: out length mismatch"
        );
        out.fill(0.0);
        // One dispatched call for the whole GEMV — the constant-scale
        // segment walk happens inside the kernel.
        simd::i8_gemv(x, &self.data, &self.scales, self.cols, self.group, out);
    }

    /// Multi-row version of [`Self::dequant_gemv_into`]: `x · W` where `x`
    /// is `(m × rows)`, each output row from its input row alone — the
    /// projection of `apollo-nn`'s INT8 decode tier, prefill and decode
    /// step alike.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != rows`.
    pub fn dequant_matmul(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.dequant_matmul_into(x, &mut out);
        out
    }

    /// [`Self::dequant_matmul`] into `out`, reshaped to `m × cols` in its
    /// existing storage (no allocation when capacity suffices).
    pub fn dequant_matmul_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.rows, "dequant_matmul: inner dim mismatch");
        out.resize_to(x.rows(), self.cols);
        for r in 0..x.rows() {
            self.dequant_gemv_into(x.row(r), out.row_mut(r));
        }
    }

    /// Applies a full-precision update to the quantized weight:
    /// dequantize, add `delta`, requantize (straight-through estimator, as
    /// in Q-GaLore's quantized-weight training).
    pub fn apply_update(&mut self, delta: &Matrix) {
        assert_eq!(
            delta.shape(),
            (self.rows, self.cols),
            "apply_update: shape mismatch"
        );
        let mut full = self.dequantize();
        full.add_assign(delta);
        *self = QuantizedMatrix::quantize(&full, self.group);
    }
}

/// Convenience: round-trips a matrix through INT8 to simulate quantized
/// storage of optimizer states (8-bit Adam).
pub fn fake_quantize(m: &Matrix, group: usize) -> Matrix {
    QuantizedMatrix::quantize(m, group).dequantize()
}

/// Round-trips a matrix through a *companded* INT8 code:
/// `y = sign(x)·|x|^pow` is quantized linearly, stretching the usable
/// dynamic range by `1/pow` in dB. This mimics the nonlinear
/// (dynamic-exponent) codes real 8-bit optimizers (bitsandbytes) use for
/// their moment states — plain absmax INT8 zeroes out small second-moment
/// entries and destabilizes Adam.
///
/// Use `pow = 0.5` for first moments and `pow = 0.25` for second moments:
/// since `v ≈ m²`, the quartic code gives both states the same small-value
/// resolution, so `v` never rounds to zero while `m` survives (which would
/// blow up `m/√v`).
///
/// # Panics
///
/// Panics if `pow` is not in `(0, 1]`.
pub fn fake_quantize_companded(m: &Matrix, group: usize, pow: f32) -> Matrix {
    assert!(pow > 0.0 && pow <= 1.0, "pow must be in (0, 1]");
    let companded = m.map(|x| x.signum() * x.abs().powf(pow));
    let deq = QuantizedMatrix::quantize(&companded, group).dequantize();
    let inv = 1.0 / pow;
    deq.map(|y| y.signum() * y.abs().powf(inv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apollo_tensor::Rng;

    #[test]
    fn roundtrip_error_is_bounded_by_half_scale() {
        let mut rng = Rng::seed_from_u64(60);
        let m = Matrix::randn(16, 64, &mut rng);
        let q = QuantizedMatrix::quantize(&m, 128);
        let deq = q.dequantize();
        let bound = q.max_quantization_error() + 1e-6;
        for (a, b) in m.as_slice().iter().zip(deq.as_slice()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn zero_matrix_roundtrips_exactly() {
        let m = Matrix::zeros(4, 4);
        assert_eq!(QuantizedMatrix::quantize(&m, 8).dequantize(), m);
    }

    #[test]
    fn extreme_values_hit_plus_minus_127() {
        let m = Matrix::from_rows(&[&[1.0, -1.0, 0.5, 0.0]]);
        let q = QuantizedMatrix::quantize(&m, 4);
        let deq = q.dequantize();
        assert!((deq.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((deq.get(0, 1) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn memory_is_quarter_of_f32_plus_scales() {
        let mut rng = Rng::seed_from_u64(61);
        let m = Matrix::randn(32, 128, &mut rng);
        let q = QuantizedMatrix::quantize(&m, 128);
        let f32_bytes = m.len() * 4;
        assert_eq!(q.memory_bytes(), m.len() + 4 * (m.len() / 128));
        assert!(q.memory_bytes() * 3 < f32_bytes);
    }

    #[test]
    fn per_group_scaling_adapts_to_local_range() {
        // First group huge, second tiny: the tiny group must keep precision.
        let mut data = vec![100.0f32; 4];
        data.extend(vec![0.001f32; 4]);
        let m = Matrix::from_vec(1, 8, data);
        let q = QuantizedMatrix::quantize(&m, 4);
        let deq = q.dequantize();
        assert!((deq.get(0, 5) - 0.001).abs() < 1e-5);
    }

    #[test]
    fn apply_update_moves_the_weight() {
        let mut rng = Rng::seed_from_u64(62);
        let m = Matrix::randn(8, 16, &mut rng);
        let mut q = QuantizedMatrix::quantize(&m, 32);
        let delta = Matrix::full(8, 16, 0.5);
        q.apply_update(&delta);
        let got = q.dequantize();
        let expect = m.map(|x| x + 0.5);
        for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn ragged_tail_group_is_handled() {
        let mut rng = Rng::seed_from_u64(63);
        let m = Matrix::randn(1, 10, &mut rng); // 10 elements, group 4 → 3 groups
        let q = QuantizedMatrix::quantize(&m, 4);
        assert_eq!(q.dequantize().shape(), (1, 10));
        assert_eq!(q.memory_bytes(), 10 + 4 * 3);
    }

    #[test]
    fn dequant_gemv_matches_materialized_matmul() {
        // Shapes chosen so groups both align with and straddle row
        // boundaries (cols 64 with group 128 → 2 rows per group; cols 50
        // with group 16 → segments inside a row).
        let mut rng = Rng::seed_from_u64(65);
        for (rows, cols, group) in [(64usize, 64usize, 128usize), (37, 50, 16), (8, 512, 128)] {
            let w = Matrix::randn(rows, cols, &mut rng);
            let q = QuantizedMatrix::quantize(&w, group);
            let x = Matrix::randn(1, rows, &mut rng);
            let mut out = vec![0.0f32; cols];
            q.dequant_gemv_into(x.as_slice(), &mut out);
            let reference = x.matmul(&q.dequantize());
            for (a, b) in out.iter().zip(reference.as_slice()) {
                let tol = 1e-4 * b.abs().max(1.0);
                assert!((a - b).abs() <= tol, "{rows}x{cols}/g{group}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dequant_matmul_matches_per_row_gemv() {
        let mut rng = Rng::seed_from_u64(66);
        let w = Matrix::randn(24, 40, &mut rng);
        let q = QuantizedMatrix::quantize(&w, 128);
        let x = Matrix::randn(5, 24, &mut rng);
        let got = q.dequant_matmul(&x);
        for r in 0..x.rows() {
            let mut row = vec![0.0f32; 40];
            q.dequant_gemv_into(x.row(r), &mut row);
            assert_eq!(got.row(r), &row[..]);
        }
    }

    #[test]
    fn dequant_gemv_skips_zero_rows_consistently() {
        let mut rng = Rng::seed_from_u64(67);
        let w = Matrix::randn(16, 32, &mut rng);
        let q = QuantizedMatrix::quantize(&w, 8);
        let mut x = vec![0.0f32; 16];
        x[3] = 1.5;
        x[11] = -0.25;
        let mut out = vec![0.0f32; 32];
        q.dequant_gemv_into(&x, &mut out);
        let reference = Matrix::from_vec(1, 16, x).matmul(&q.dequantize());
        for (a, b) in out.iter().zip(reference.as_slice()) {
            assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn apply_update_drift_stays_near_fresh_quantization() {
        // Property (satellite): N straight-through updates must land within
        // one quantization step of quantizing the exactly-accumulated
        // weight from scratch — requantization error must not compound.
        let mut rng = Rng::seed_from_u64(68);
        let w0 = Matrix::randn(8, 32, &mut rng);
        let mut q = QuantizedMatrix::quantize(&w0, 32);
        let mut exact = w0.clone();
        for step in 0..50 {
            let delta = Matrix::randn(8, 32, &mut rng).scale(0.01);
            q.apply_update(&delta);
            exact.add_assign(&delta);
            let fresh = QuantizedMatrix::quantize(&exact, 32);
            let drift = q.dequantize().sub(&fresh.dequantize()).max_abs();
            let bound = q.max_quantization_error() + fresh.max_quantization_error();
            assert!(
                drift <= bound * (1.0 + step as f32),
                "step {step}: drift {drift} bound {bound}"
            );
        }
        // And the end state tracks the exact accumulation itself.
        let err = q.dequantize().sub(&exact).max_abs();
        assert!(err < 0.2, "terminal drift {err}");
    }

    #[test]
    fn fake_quantize_matches_quantize_dequantize() {
        let mut rng = Rng::seed_from_u64(64);
        let m = Matrix::randn(4, 32, &mut rng);
        assert_eq!(
            fake_quantize(&m, 16),
            QuantizedMatrix::quantize(&m, 16).dequantize()
        );
    }
}

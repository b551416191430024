//! The dense row-major `f32` matrix type.
//!
//! A [`Matrix`] owns its `Vec<f32>` and frees it on drop. Constructors whose
//! every element is known in order build the data without a zero-fill
//! first; [`Matrix::zeros`] is for outputs that are accumulated into.

use crate::rng::Rng;
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` matrix.
///
/// This is the single numeric container of the reproduction: model weights,
/// gradients, optimizer moments, and projection matrices are all `Matrix`
/// values. Vectors are represented as `1 × n` or `n × 1` matrices.
///
/// # Example
///
/// ```
/// use apollo_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = a.transpose();
/// assert_eq!(b.get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros, in storage exactly `rows · cols`
    /// long. For an output whose every element gets written in order, build
    /// the data instead ([`Matrix::from_vec`] of a `collect`).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::full(rows, cols, 0.0)
    }

    /// Drops the matrix, the same as letting it go out of scope. Kept only
    /// because the `optstep` workload in `benchmark/` calls it; new code
    /// should not.
    pub fn recycle(self) {
        drop(self)
    }

    /// Reshapes `self` to `src`'s shape and copies its contents, reusing
    /// the existing storage (no allocation when capacity suffices).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Reshapes `self` to `rows × cols`, zero-filled, reusing the existing
    /// storage (no allocation when capacity suffices). The output-buffer
    /// counterpart of [`Matrix::copy_from`] for the fused kernels, which
    /// overwrite every element and only need the shape set up.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Creates a matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: got {} elements for a {rows}x{cols} matrix",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix with i.i.d. standard-normal entries.
    pub fn randn(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gauss()).collect();
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with i.i.d. normal entries of the given std-dev.
    ///
    /// This is the generator used for weight init. (APOLLO's projection
    /// matrices draw from [`crate::fill_normal`] instead.)
    pub fn randn_scaled(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gauss() * std).collect();
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.uniform_in(lo, hi)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major data, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns the transpose, built in blocks of result rows without
    /// zero-filling the result.
    ///
    /// Each block is `LINE` columns of `self`, one 64-byte cache line per
    /// row: they are gathered into a small strip (every line of `self` read
    /// once, not once per result row), which is then appended to the result
    /// in order. Strip rows lie one cache line further apart than `rows`
    /// floats, so when `rows` is a power of two they do not all map to the
    /// same cache sets.
    pub fn transpose(&self) -> Matrix {
        const LINE: usize = 16;
        let (rows, cols) = self.shape();
        let stride = rows + LINE;
        let mut data = Vec::with_capacity(rows * cols);
        let mut strip = vec![0.0; LINE.min(cols) * stride];
        for c0 in (0..cols).step_by(LINE) {
            let w = LINE.min(cols - c0);
            for (r, src) in self.data.chunks_exact(cols).enumerate() {
                for (j, &v) in src[c0..c0 + w].iter().enumerate() {
                    strip[j * stride + r] = v;
                }
            }
            for j in 0..w {
                data.extend_from_slice(&strip[j * stride..][..rows]);
            }
        }
        Matrix::from_vec(cols, rows, data)
    }

    /// Returns a new matrix holding the given rows of `self`, in index
    /// order (duplicates allowed). The low-rank adapter path uses this to
    /// gather one tenant's rows out of a mixed batch; row-copying keeps
    /// every downstream kernel bit-identical to running that subset alone.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &r in idx {
            data.extend_from_slice(self.row(r));
        }
        Matrix::from_vec(idx.len(), self.cols, data)
    }

    /// In-place `self.row(idx[i]) += src.row(i)` for every `i` — the
    /// scatter half of [`Matrix::gather_rows`]. Element order within each
    /// row matches [`Matrix::add_assign`], so a gather → compute →
    /// scatter-add round trip is bit-identical to computing on the full
    /// matrix and adding.
    ///
    /// # Panics
    ///
    /// Panics if `src` has a different column count, `idx` and `src`
    /// disagree on length, or any index is out of bounds.
    pub fn scatter_add_rows(&mut self, idx: &[usize], src: &Matrix) {
        assert_eq!(self.cols, src.cols, "scatter_add_rows: column mismatch");
        assert_eq!(idx.len(), src.rows, "scatter_add_rows: row mismatch");
        for (i, &r) in idx.iter().enumerate() {
            for (a, b) in self.row_mut(r).iter_mut().zip(src.row(i)) {
                *a += b;
            }
        }
    }

    /// Returns a new matrix of the columns `lo..hi`.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Matrix {
        assert!(
            lo <= hi && hi <= self.cols,
            "slice_cols: bad range {lo}..{hi}"
        );
        let mut data = Vec::with_capacity(self.rows * (hi - lo));
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[lo..hi]);
        }
        Matrix::from_vec(self.rows, hi - lo, data)
    }

    // ----- elementwise arithmetic -------------------------------------------------

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Elementwise sum, returning a new matrix.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "add");
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference, returning a new matrix.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "sub");
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product, returning a new matrix.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "hadamard");
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        self.assert_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place exponential moving average: `self = beta*self + (1-beta)*other`.
    ///
    /// This is the first/second-moment update of Adam-family optimizers.
    pub fn ema_assign(&mut self, beta: f32, other: &Matrix) {
        self.assert_same_shape(other, "ema_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = beta * *a + (1.0 - beta) * b;
        }
    }

    /// In-place EMA of the elementwise square: `self = beta*self + (1-beta)*other²`.
    pub fn ema_square_assign(&mut self, beta: f32, other: &Matrix) {
        self.assert_same_shape(other, "ema_square_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = beta * *a + (1.0 - beta) * b * b;
        }
    }

    /// Scalar multiply, returning a new matrix.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|x| alpha * x)
    }

    /// In-place scalar multiply.
    pub fn scale_assign(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Overwrites `self` (reshaping to match) with `f(a[i], b[i])`
    /// elementwise. The allocation-free counterpart of [`Matrix::zip_map`]
    /// for an output buffer reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in shape.
    pub fn zip_map_from(&mut self, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) {
        a.assert_same_shape(b, "zip_map_from");
        self.rows = a.rows;
        self.cols = a.cols;
        self.data.clear();
        self.data
            .extend(a.data.iter().zip(&b.data).map(|(&x, &y)| f(x, y)));
    }

    /// Combines two same-shape matrices elementwise.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Multiplies each column by the corresponding entry of `s`
    /// (`self ← self · diag(s)` — APOLLO's channel-wise gradient scaling).
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != cols`.
    pub fn scale_cols(&mut self, s: &[f32]) {
        assert_eq!(s.len(), self.cols, "scale_cols: need one factor per column");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, &f) in row.iter_mut().zip(s) {
                *v *= f;
            }
        }
    }

    /// Multiplies each row by the corresponding entry of `s`
    /// (`self ← diag(s) · self`).
    pub fn scale_rows(&mut self, s: &[f32]) {
        assert_eq!(s.len(), self.rows, "scale_rows: need one factor per row");
        for (r, &f) in s.iter().enumerate() {
            for v in &mut self.data[r * self.cols..(r + 1) * self.cols] {
                *v *= f;
            }
        }
    }

    // ----- reductions -------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm (`ℓ₂` norm of the flattened matrix).
    pub fn fro_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// `ℓ₂` norm of each column (length-`cols` vector).
    ///
    /// This is the per-channel norm `‖G[:, j]‖₂` of Eq. 3 / Eq. 5.
    pub fn col_norms(&self) -> Vec<f32> {
        let mut acc = vec![0.0f64; self.cols];
        for r in 0..self.rows {
            for (a, &v) in acc.iter_mut().zip(self.row(r)) {
                *a += (v as f64) * (v as f64);
            }
        }
        acc.into_iter().map(|a| a.sqrt() as f32).collect()
    }

    /// `ℓ₂` norm of each row (length-`rows` vector).
    pub fn row_norms(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .map(|&v| (v as f64) * (v as f64))
                    .sum::<f64>()
                    .sqrt() as f32
            })
            .collect()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Returns true if every element is finite.
    pub fn all_finite(&self) -> bool {
        !self.has_non_finite()
    }

    /// Returns true if any element is NaN or ±Inf.
    ///
    /// This is the step sentinel's hot path: it runs on every gradient
    /// every step, so it is written as a branchless bitwise scan (a float
    /// is non-finite iff its exponent bits are all ones, i.e. its
    /// magnitude bits are ≥ `0x7F80_0000`) that reduces each chunk with
    /// `max` — LLVM turns this into vector `umax` — and compares once per
    /// chunk instead of once per element.
    pub fn has_non_finite(&self) -> bool {
        const EXP_MASK: u32 = 0x7F80_0000;
        const ABS_MASK: u32 = 0x7FFF_FFFF;
        let mut chunks = self.data.chunks_exact(32);
        for chunk in &mut chunks {
            let mut worst = 0u32;
            for &x in chunk {
                worst = worst.max(x.to_bits() & ABS_MASK);
            }
            if worst >= EXP_MASK {
                return true;
            }
        }
        chunks.remainder().iter().any(|x| !x.is_finite())
    }

    // ----- matmul front-ends (kernels live in `matmul.rs`) -------------------------

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        crate::matmul::matmul(self, other)
    }

    /// Matrix product `self · otherᵀ` without materializing the transpose.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        crate::matmul::matmul_transb(self, other)
    }

    /// Matrix product `selfᵀ · other` without materializing the transpose.
    pub fn matmul_transa(&self, other: &Matrix) -> Matrix {
        crate::matmul::matmul_transa(self, other)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn gather_then_scatter_add_matches_full_add() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = x.gather_rows(&[2, 0]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        let mut out = Matrix::zeros(3, 2);
        out.scatter_add_rows(&[2, 0], &g);
        assert_eq!(out.row(0), &[1.0, 2.0]);
        assert_eq!(out.row(1), &[0.0, 0.0]);
        assert_eq!(out.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = Matrix::identity(3);
        assert_eq!(i.sum(), 3.0);
        assert_eq!(i.get(2, 2), 1.0);
        assert_eq!(i.get(0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_wrong_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = Rng::seed_from_u64(1);
        // Narrower than a block, ragged last block, empty either way.
        for (r, c) in [(5, 7), (37, 20), (16, 33), (0, 3), (3, 0)] {
            let m = Matrix::randn(r, c, &mut rng);
            let t = m.transpose();
            assert_eq!(t.shape(), (c, r));
            for (i, j) in (0..r).flat_map(|i| (0..c).map(move |j| (i, j))) {
                assert_eq!(t.get(j, i), m.get(i, j));
            }
            assert_eq!(t.transpose(), m);
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]);
        assert_eq!(a.add(&b).get(1, 1), 44.0);
        assert_eq!(b.sub(&a).get(0, 0), 9.0);
        assert_eq!(a.hadamard(&b).get(0, 1), 40.0);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.get(0, 0), 21.0);
    }

    #[test]
    fn ema_matches_adam_moment_update() {
        let mut m = Matrix::full(1, 2, 1.0);
        let g = Matrix::from_rows(&[&[3.0, -1.0]]);
        m.ema_assign(0.9, &g);
        assert!((m.get(0, 0) - (0.9 + 0.1 * 3.0)).abs() < 1e-6);
        let mut v = Matrix::full(1, 2, 1.0);
        v.ema_square_assign(0.99, &g);
        assert!((v.get(0, 0) - (0.99 + 0.01 * 9.0)).abs() < 1e-6);
    }

    #[test]
    fn col_norms_match_manual() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 2.0]]);
        let n = m.col_norms();
        assert!((n[0] - 5.0).abs() < 1e-6);
        assert!((n[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn row_norms_match_manual() {
        let m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 2.0]]);
        let n = m.row_norms();
        assert!((n[0] - 5.0).abs() < 1e-6);
        assert!((n[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fro_norm_matches_flat_l2() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn scale_cols_applies_diag_right_multiply() {
        let mut m = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        m.scale_cols(&[2.0, 3.0]);
        assert_eq!(m, Matrix::from_rows(&[&[2.0, 3.0], &[2.0, 3.0]]));
    }

    #[test]
    fn scale_rows_applies_diag_left_multiply() {
        let mut m = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        m.scale_rows(&[2.0, 3.0]);
        assert_eq!(m, Matrix::from_rows(&[&[2.0, 2.0], &[3.0, 3.0]]));
    }

    #[test]
    fn slicing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        assert_eq!(m.slice_cols(1, 2).col(0), vec![2.0, 5.0, 8.0]);
    }

    #[test]
    fn randn_scaled_variance() {
        let mut rng = Rng::seed_from_u64(11);
        let r = 64;
        let p = Matrix::randn_scaled(r, 1000, (1.0 / r as f32).sqrt(), &mut rng);
        let var = p.as_slice().iter().map(|&x| x * x).sum::<f32>() / p.len() as f32;
        assert!((var - 1.0 / r as f32).abs() < 0.002, "var {var}");
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.all_finite());
        m.set(0, 1, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn has_non_finite_catches_every_position_and_kind() {
        // 7x11 = 77 elements: exercises both the 32-wide chunked path and
        // the remainder path, at every index.
        for kind in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for idx in 0..77 {
                let mut m = Matrix::zeros(7, 11);
                assert!(!m.has_non_finite());
                m.as_mut_slice()[idx] = kind;
                assert!(m.has_non_finite(), "missed {kind} at {idx}");
            }
        }
        // Large finite magnitudes must not trip the exponent test.
        let mut m = Matrix::zeros(7, 11);
        m.as_mut_slice().fill(f32::MAX);
        m.as_mut_slice()[3] = f32::MIN;
        assert!(!m.has_non_finite());
    }
}

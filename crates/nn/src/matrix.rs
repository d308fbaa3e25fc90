//! Dense row-major `f32` matrix used as the storage type for every tensor
//! in the autograd engine.
//!
//! Three products carry the compute: [`Matrix::matmul`] (the autograd
//! forward and every frozen-snapshot forward: serving, rollouts and
//! evaluation), and the two backward products [`Matrix::t_matmul`] and
//! [`Matrix::matmul_t`]. All three run the register-tiled nest of
//! [`crate::simd`] at the detected SIMD level. Neither the tiling nor the vector lanes change the order of the `f32` additions
//! *within* an output element (always ascending `k`), so every path is
//! bit-identical to the naive triple loop ([`Matrix::matmul_naive`], kept
//! as the audit/parity reference). The other routines stay deliberately
//! simple; everything is exercised by the
//! gradient-check suite in [`crate::gradcheck`].

use std::fmt;

use rand::Rng;

use crate::simd::{self, SimdLevel};

/// A dense, row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{})", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            let max_cols = 8.min(self.cols);
            let row: Vec<String> = (0..max_cols)
                .map(|c| format!("{:+.4}", self[(r, c)]))
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(", "),
                if self.cols > max_cols { ", …" } else { "" }
            )?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major `Vec`.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: {} elements for a {}x{} matrix",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a 1 x n row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self {
            rows: 1,
            cols,
            data,
        }
    }

    /// Creates an n x 1 column vector.
    pub fn col_vector(data: Vec<f32>) -> Self {
        let rows = data.len();
        Self {
            rows,
            cols: 1,
            data,
        }
    }

    /// Creates a matrix with entries drawn i.i.d. from `U(lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f32,
        hi: f32,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
        Self { rows, cols, data }
    }

    /// Creates a matrix with entries drawn i.i.d. from `N(0, std^2)`
    /// (Box-Muller; avoids an extra dependency on `rand_distr`).
    pub fn randn<R: Rng + ?Sized>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { rows, cols, data }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` out into a `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix product `self * rhs` at the detected SIMD level
    /// ([`SimdLevel::detect`]) — the one product behind the autograd
    /// forward ([`crate::tensor::Tensor::matmul`]) and every frozen
    /// snapshot (`Linear`/`Mlp`/`GruCell`/`Gru`/LSTM/conv), so serving,
    /// rollouts and evaluation all run it. On a vector level it runs the
    /// register-tiled nest of [`crate::simd`], which keeps an `MR × NR`
    /// tile of outputs in vector registers for the whole `k` walk; on
    /// [`SimdLevel::Scalar`] the blocked axpy nest.
    ///
    /// The result is still **bit-identical** to [`Matrix::matmul_naive`]
    /// at every level, because tiling changes where partial sums live,
    /// never how they are formed: each output element starts at `+0.0`
    /// and, for each `k` in ascending order, takes one `mul` and one `add`
    /// (no FMA), skipping `a == 0.0` terms like the reference. That is the
    /// grouping-invariance property the serving dataplane's batching and
    /// sharding are built on.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: ({}x{}) * ({}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, kk, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        let level = SimdLevel::detect();
        simd::matmul_into(level, &self.data, &rhs.data, &mut out.data, m, kk, n);
        out
    }

    /// Reference matrix product: the naive `i-k-j` triple loop the tiled
    /// [`Matrix::matmul`] must match bit-for-bit (pinned by the parity
    /// property test in `tests/algebra_props.rs`).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: ({}x{}) * ({}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self^T * rhs` without materialising the transpose — the autograd
    /// weight gradient. At the detected SIMD level the register-tiled nest
    /// reads `self` through a transposed view, so every output element
    /// sees the same `+0.0` start, ascending-`k` mul/add sequence and
    /// `a == 0.0` skip as `self.transpose().matmul_naive(rhs)`, and the
    /// result is bit-identical to it.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul: ({}x{})^T * ({}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, kk, n) = (self.cols, self.rows, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        simd::t_matmul_into(
            SimdLevel::detect(),
            &self.data,
            &rhs.data,
            &mut out.data,
            m,
            kk,
            n,
        );
        out
    }

    /// `self * rhs^T` without materialising the transpose in the caller —
    /// the autograd input gradient. Unlike [`Matrix::matmul`] it does not
    /// skip `a == 0.0` terms: each output element is the serial dot
    /// product `+0.0 + a₀b₀ + a₁b₁ + …` in ascending-`k` order, one `mul`
    /// and one `add` per term. The register-tiled nest (fed a transposed
    /// copy of `rhs`, with the skip off) performs exactly that sequence,
    /// so the result is bit-identical at every SIMD level.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t: ({}x{}) * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, kk, n) = (self.rows, self.cols, rhs.rows);
        let mut out = Matrix::zeros(m, n);
        simd::matmul_t_into(
            SimdLevel::detect(),
            &self.data,
            &rhs.data,
            &mut out.data,
            m,
            kk,
            n,
        );
        out
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data: transpose_slice(&self.data, self.rows, self.cols),
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise binary combination.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// Hadamard (elementwise) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// `self + rhs` in place.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// `self += scale * rhs` in place (axpy).
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, scale: f32) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "add_scaled_assign: shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds the 1 x cols `bias` row vector to every row.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "add_row_broadcast: bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "add_row_broadcast: width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            for (o, &b) in row.iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Column-wise sum, producing a 1 x cols row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for (o, &x) in out.data.iter_mut().zip(row.iter()) {
                *o += x;
            }
        }
        out
    }

    /// Row-wise sum, producing a rows x 1 column vector.
    pub fn sum_cols(&self) -> Matrix {
        let data = (0..self.rows).map(|r| self.row(r).iter().sum()).collect();
        Matrix {
            rows: self.rows,
            cols: 1,
            data,
        }
    }

    /// Sum of every element.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of every element (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Reinterprets the buffer with a new shape (element count preserved).
    ///
    /// # Panics
    /// Panics if `rows * cols != self.len()`.
    pub fn reshape(&self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(
            rows * cols,
            self.data.len(),
            "reshape: {}x{} -> {}x{}",
            self.rows,
            self.cols,
            rows,
            cols
        );
        Matrix {
            rows,
            cols,
            data: self.data.clone(),
        }
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn concat_cols(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "concat_cols: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Vertical concatenation `[self ; rhs]`.
    pub fn concat_rows(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "concat_rows: col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        }
    }

    /// Copies the column range `[start, end)` out into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols: range out of bounds"
        );
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Copies the row range `[start, end)` out into a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows: range out of bounds"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gathers the given rows into a new matrix (duplicates allowed).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (r, &i) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i));
        }
        out
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Transposes a row-major `(rows, cols)` buffer into a row-major
/// `(cols, rows)` one.
pub(crate) fn transpose_slice(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(data.len(), rows * cols, "transpose: size");
    let mut out = vec![0.0f32; rows * cols];
    for (r, row) in data.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "Matrix::from_vec")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert!(approx(c[(0, 0)], 58.0));
        assert!(approx(c[(0, 1)], 64.0));
        assert!(approx(c[(1, 0)], 139.0));
        assert!(approx(c[(1, 1)], 154.0));
    }

    /// The blocked kernel must be bit-identical to the naive reference,
    /// including shapes that straddle the NC/MR panel boundaries and
    /// matrices containing exact zeros (the skip path).
    #[test]
    fn blocked_matmul_matches_naive_bit_exact() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 2, 5),
            (4, 7, 256),
            (5, 3, 257),
            (9, 64, 300),
            (257, 33, 2),
        ] {
            let mut a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            // Sprinkle exact zeros to exercise the skip path.
            for v in a.as_mut_slice().iter_mut() {
                if *v < -0.8 {
                    *v = 0.0;
                }
            }
            let blocked = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            assert_eq!(blocked.shape(), naive.shape());
            for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k} * {k}x{n}");
            }
        }
    }

    #[test]
    fn matmul_empty_dims_are_zero() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        assert_eq!(a.matmul(&b).shape(), (2, 3));
        let c = Matrix::zeros(0, 4);
        let d = Matrix::zeros(4, 0);
        assert_eq!(c.matmul(&d).shape(), (0, 0));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::randn(4, 4, 1.0, &mut rng);
        let i = Matrix::eye(4);
        let prod = a.matmul(&i);
        for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn transposed_products_match_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Matrix::randn(3, 5, 1.0, &mut rng);
        let b = Matrix::randn(3, 4, 1.0, &mut rng);
        let via_helper = a.t_matmul(&b);
        let via_explicit = a.transpose().matmul(&b);
        for (x, y) in via_helper.as_slice().iter().zip(via_explicit.as_slice()) {
            assert!(approx(*x, *y));
        }

        let c = Matrix::randn(6, 5, 1.0, &mut rng);
        let d = Matrix::randn(2, 5, 1.0, &mut rng);
        let via_helper = c.matmul_t(&d);
        let via_explicit = c.matmul(&d.transpose());
        for (x, y) in via_helper.as_slice().iter().zip(via_explicit.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    /// The transpose moves every element to `(c, r)`, on square,
    /// rectangular and empty shapes.
    #[test]
    fn transpose_moves_every_element() {
        for (rows, cols) in [(1, 1), (3, 5), (16, 16), (17, 33), (40, 7), (0, 5), (4, 0)] {
            let data: Vec<f32> = (0..rows * cols).map(|v| v as f32).collect();
            let m = Matrix::from_vec(rows, cols, data);
            let t = m.transpose();
            assert_eq!(t.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t[(c, r)], m[(r, c)], "({rows},{cols}) at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn broadcast_add_and_sum_rows_are_adjoint() {
        // sum_rows is the adjoint of add_row_broadcast: <Ax, y> = <x, A^T y>.
        let mut rng = StdRng::seed_from_u64(3);
        let x = Matrix::randn(1, 4, 1.0, &mut rng);
        let y = Matrix::randn(5, 4, 1.0, &mut rng);
        let lhs = Matrix::zeros(5, 4).add_row_broadcast(&x).hadamard(&y).sum();
        let rhs = x.hadamard(&y.sum_rows()).sum();
        assert!(approx(lhs, rhs));
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert!(approx(m.sum(), -2.0));
        assert!(approx(m.mean(), -0.5));
        assert!(approx(m.max(), 3.0));
        assert!(approx(m.min(), -4.0));
        assert!(approx(m.norm(), (1.0f32 + 4.0 + 9.0 + 16.0).sqrt()));
        let sr = m.sum_rows();
        assert_eq!(sr.as_slice(), &[4.0, -6.0]);
        let sc = m.sum_cols();
        assert_eq!(sc.as_slice(), &[-1.0, -1.0]);
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![5.0, 6.0]);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.row(0), &[1.0, 2.0, 5.0]);
        let back = cat.slice_cols(0, 2);
        assert_eq!(back.as_slice(), a.as_slice());
        let right = cat.slice_cols(2, 3);
        assert_eq!(right.as_slice(), b.as_slice());

        let v = a.concat_rows(&Matrix::from_vec(1, 2, vec![9.0, 8.0]));
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[9.0, 8.0]);
        assert_eq!(v.slice_rows(0, 2).as_slice(), a.as_slice());
    }

    #[test]
    fn gather_rows_duplicates() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_order() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.reshape(3, 2);
        assert_eq!(b.row(0), &[1.0, 2.0]);
        assert_eq!(b.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = Matrix::randn(100, 100, 2.0, &mut rng);
        let mean = m.mean();
        let var = m.map(|x| (x - mean) * (x - mean)).mean();
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Matrix::uniform(50, 50, -0.25, 0.75, &mut rng);
        assert!(m.min() >= -0.25);
        assert!(m.max() < 0.75);
    }
}

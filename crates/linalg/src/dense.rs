//! Dense row-major matrix type and element-level operations.
//!
//! [`Matrix`] is the workhorse container of the workspace: a contiguous
//! `Vec<f64>` in row-major order with `rows * cols` elements. It is the
//! analogue of the `Eigen::MatrixXd` objects the reference C++ implementation
//! used, restricted to the operations the UoI solvers actually need.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major, `f64` matrix.
///
/// Storage is a single contiguous allocation; element `(i, j)` lives at
/// `data[i * cols + j]`. Row-major layout is chosen because the dominant
/// access patterns in the solvers are row-wise (sample-wise bootstrap
/// gathers, row-block striping across ranks).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build an `n x p` matrix by evaluating `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
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

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the backing row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrite column `j` from a slice.
    pub fn set_col(&mut self, j: usize, values: &[f64]) {
        assert_eq!(values.len(), self.rows);
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Copy of the sub-matrix with the given row range and all columns.
    pub fn rows_range(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows);
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gather the listed rows (with repetition allowed — this is exactly the
    /// bootstrap-resample operation).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (r, &i) in idx.iter().enumerate() {
            assert!(
                i < self.rows,
                "gather_rows: index {i} out of bounds ({})",
                self.rows
            );
            out.row_mut(r).copy_from_slice(self.row(i));
        }
        out
    }

    /// Gather the listed columns into a fresh matrix (the restrict-to-support
    /// operation used by the OLS estimation step).
    pub fn gather_cols(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, idx.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (c, &j) in idx.iter().enumerate() {
                dst[c] = src[j];
            }
        }
        out
    }

    /// Column-stacking vectorisation `vec(A)`: stacks columns of `self` into
    /// a single vector of length `rows * cols` (column-major flattening, the
    /// convention of eq. 9 in the paper).
    pub fn vectorize(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.len());
        for j in 0..self.cols {
            for i in 0..self.rows {
                v.push(self[(i, j)]);
            }
        }
        v
    }

    /// Inverse of [`Matrix::vectorize`]: rebuild an `rows x cols` matrix from
    /// its column-stacked vector.
    pub fn unvectorize(rows: usize, cols: usize, v: &[f64]) -> Matrix {
        assert_eq!(v.len(), rows * cols, "unvectorize: length mismatch");
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = v[j * rows + i];
            }
        }
        m
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Elementwise scale in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// `self -= other` (elementwise).
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// Mean of every column (length-`cols` vector).
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut m = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (mj, &x) in m.iter_mut().zip(self.row(i)) {
                *mj += x;
            }
        }
        let inv = 1.0 / self.rows as f64;
        for x in &mut m {
            *x *= inv;
        }
        m
    }

    /// A copy with `means[j]` subtracted from every element of column `j`,
    /// built in one pass: the bits of a clone followed by
    /// [`Self::center_cols`], without writing the matrix twice.
    pub fn centred(&self, means: &[f64]) -> Matrix {
        assert_eq!(means.len(), self.cols);
        let mut data = Vec::with_capacity(self.data.len());
        for row in self.data.chunks_exact(self.cols.max(1)) {
            data.extend(row.iter().zip(means).map(|(x, m)| x - m));
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Subtract `means[j]` from every element of column `j` (in place).
    pub fn center_cols(&mut self, means: &[f64]) {
        assert_eq!(means.len(), self.cols);
        for i in 0..self.rows {
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (x, m) in row.iter_mut().zip(means) {
                *x -= m;
            }
        }
    }

    /// Count of elements with absolute value above `tol`.
    pub fn count_nonzero(&self, tol: f64) -> usize {
        self.data.iter().filter(|x| x.abs() > tol).count()
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat: col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Approximate elementwise equality within `tol` (test helper).
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{x:>10.4}")).collect();
            let ell = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ell)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_index() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m[(2, 3)], 0.0);
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_and_transpose() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t[(2, 0)], 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_large_blocked() {
        let m = Matrix::from_fn(67, 41, |i, j| (i * 41 + j) as f64);
        let t = m.transpose();
        for i in 0..67 {
            for j in 0..41 {
                assert_eq!(t[(j, i)], m[(i, j)]);
            }
        }
    }

    #[test]
    fn gather_rows_bootstrap_style() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_cols_support_restriction() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let g = m.gather_cols(&[2, 0]);
        assert_eq!(g.row(0), &[3.0, 1.0]);
        assert_eq!(g.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn vectorize_column_major_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]);
        // Column stacking: first column then second column.
        assert_eq!(m.vectorize(), vec![1.0, 2.0, 3.0, 4.0]);
        let back = Matrix::unvectorize(2, 2, &m.vectorize());
        assert_eq!(back, m);
    }

    #[test]
    fn col_means_and_centering() {
        let mut m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 30.0]]);
        let means = m.col_means();
        assert_eq!(means, vec![2.0, 20.0]);
        m.center_cols(&means);
        assert_eq!(m.col_means(), vec![0.0, 0.0]);
    }

    #[test]
    fn centred_copy_has_the_bits_of_centring_in_place() {
        let m = Matrix::from_fn(7, 5, |i, j| ((i * 5 + j) as f64 * 0.37).sin() * 1e3);
        let means = m.col_means();
        let mut in_place = m.clone();
        in_place.center_cols(&means);
        let bits = |a: &Matrix| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m.centred(&means)), bits(&in_place));
        assert_eq!(Matrix::zeros(3, 0).centred(&[]).shape(), (3, 0));
    }

    #[test]
    fn hcat_vcat() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let h = a.hcat(&b);
        assert_eq!(h.row(0), &[1.0, 3.0]);
        let v = a.vcat(&b);
        assert_eq!(v.shape(), (4, 1));
        assert_eq!(v.col(0), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn rows_range_slice() {
        let m = Matrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
        let s = m.rows_range(1, 3);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), m.row(1));
        assert_eq!(s.row(1), m.row(2));
    }

    #[test]
    fn norms_and_nonzeros() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.count_nonzero(1e-12), 2);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}

//! Cholesky factorisation and triangular solves for symmetric
//! positive-definite systems.
//!
//! The ADMM x-update solves `(X^T X + rho I) x = b` once per iteration with a
//! *fixed* left-hand side, so the factorisation is computed once and cached
//! (see `uoi-solvers::admm`). This mirrors the `LLT` decomposition the
//! reference C++ used from Eigen3.

use crate::dense::Matrix;
use rayon::prelude::*;

/// Order below which the unblocked factorisation is used directly.
const CHOL_BLOCK_THRESHOLD: usize = 128;
/// Panel width of the blocked right-looking factorisation.
const CHOL_NB: usize = 64;

/// Error raised when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Pivot index at which the factorisation broke down.
    pub pivot: usize,
    /// The offending pivot value.
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} has value {:.3e}",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Small orders use the classic
    /// unblocked algorithm; larger ones switch to a blocked right-looking
    /// factorisation (panel factor + rayon-parallel trailing update) that
    /// keeps the working set cache-resident and parallelises the O(n³)
    /// syrk/gemm bulk of the work.
    pub fn factor(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "Cholesky: matrix must be square");
        // Copy the lower triangle; the factorisation proceeds in place.
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        Self::factor_in_place(l)
    }

    /// Like [`Cholesky::factor`], but reading only the **upper** triangle
    /// of `a` (i.e. factoring `a`'s transpose image, which for a symmetric
    /// matrix is the same thing).
    ///
    /// This is the entry point for upper-stored Grams from
    /// [`crate::gram`]: the batched SYRK engine never writes the strict
    /// lower triangle, and this constructor lets the solver consume such a
    /// matrix without the O(p²) mirror pass. For a fully symmetric input
    /// the result is bit-identical to [`Cholesky::factor`].
    pub fn factor_upper(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "Cholesky: matrix must be square");
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            let row = l.row_mut(i);
            for k in 0..=i {
                row[k] = a[(k, i)];
            }
        }
        Self::factor_in_place(l)
    }

    /// Dispatch on order once the lower triangle has been staged in `l`.
    fn factor_in_place(l: Matrix) -> Result<Self, NotPositiveDefinite> {
        if l.rows() < CHOL_BLOCK_THRESHOLD {
            Self::factor_unblocked(l)
        } else {
            Self::factor_blocked(l)
        }
    }

    fn factor_unblocked(mut l: Matrix) -> Result<Self, NotPositiveDefinite> {
        let n = l.rows();
        for j in 0..n {
            // Diagonal entry: the original value survives at (j, j) until
            // this very step overwrites it.
            let mut d = l[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(NotPositiveDefinite { pivot: j, value: d });
            }
            let dsqrt = d.sqrt();
            l[(j, j)] = dsqrt;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = l[(i, j)];
                // Dot of rows i and j of L restricted to [0, j).
                let (ri, rj) = (l.row(i), l.row(j));
                for k in 0..j {
                    s -= ri[k] * rj[k];
                }
                l[(i, j)] = s / dsqrt;
            }
        }
        Ok(Self { l })
    }

    /// Blocked right-looking variant: factor an NB-wide diagonal panel,
    /// triangular-solve the column panel below it, then apply the rank-NB
    /// trailing update with rows distributed across rayon workers.
    fn factor_blocked(mut l: Matrix) -> Result<Self, NotPositiveDefinite> {
        let n = l.rows();
        let mut panel = Vec::new();
        for k in (0..n).step_by(CHOL_NB) {
            let kb = CHOL_NB.min(n - k);
            let k_end = k + kb;
            // 1. Unblocked factor of the diagonal block L11. Contributions
            //    from columns < k were already subtracted by earlier trailing
            //    updates, so inner sums only span the current panel.
            for j in k..k_end {
                let mut d = l[(j, j)];
                {
                    let rj = &l.row(j)[k..j];
                    for v in rj {
                        d -= v * v;
                    }
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(NotPositiveDefinite { pivot: j, value: d });
                }
                let dsqrt = d.sqrt();
                l[(j, j)] = dsqrt;
                for i in (j + 1)..k_end {
                    let mut s = l[(i, j)];
                    let (ri, rj) = (l.row(i), l.row(j));
                    for t in k..j {
                        s -= ri[t] * rj[t];
                    }
                    l[(i, j)] = s / dsqrt;
                }
            }
            // 2. Panel solve: L21 = A21 * L11^-T, row by row.
            for i in k_end..n {
                for j in k..k_end {
                    let mut s = l[(i, j)];
                    let (ri, rj) = (l.row(i), l.row(j));
                    for t in k..j {
                        s -= ri[t] * rj[t];
                    }
                    l[(i, j)] = s / l[(j, j)];
                }
            }
            if k_end == n {
                break;
            }
            // 3. Trailing update A22 -= L21 L21^T. The panel is copied out so
            //    the row-parallel update borrows it immutably while each
            //    worker owns a disjoint row of the trailing block.
            let trailing = n - k_end;
            panel.clear();
            panel.reserve(trailing * kb);
            for i in k_end..n {
                panel.extend_from_slice(&l.row(i)[k..k_end]);
            }
            let ncols = n;
            l.as_mut_slice()[k_end * ncols..]
                .par_chunks_mut(ncols)
                .enumerate()
                .for_each(|(off, row)| {
                    let i = k_end + off;
                    let pi = &panel[off * kb..off * kb + kb];
                    for jj in k_end..=i {
                        let pj = &panel[(jj - k_end) * kb..(jj - k_end) * kb + kb];
                        row[jj] -= crate::blas::dot(pi, pj);
                    }
                });
        }
        // The strict upper triangle was never written and stays zero.
        Ok(Self { l })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor.
    pub fn factor_l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` via forward + back substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.solve_in_place(&mut y);
        y
    }

    /// In-place variant of [`Cholesky::solve`].
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.order();
        assert_eq!(b.len(), n, "Cholesky::solve: rhs length mismatch");
        forward_substitute(&self.l, b);
        back_substitute_transposed(&self.l, b);
    }

    /// Solve `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.order());
        let mut out = Matrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.col(j));
            out.set_col(j, &col);
        }
        out
    }

    /// log-determinant of `A` (`2 * sum log diag(L)`), used by
    /// information-criterion diagnostics.
    pub fn log_det(&self) -> f64 {
        (0..self.order()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// A Cholesky factor in packed lower-triangular storage (row `i` holds
/// `L[i][0..=i]` at offset `i (i + 1) / 2`), refactored in place: the
/// reusable factor of a system that changes shape inside a hot loop, such
/// as an ADMM active-set sub-problem. Half the memory of a square factor,
/// and once its storage has held an order-`m` factor, refactoring at
/// order `<= m` and solving never allocate. Both the factorisation and
/// the triangular solves stream contiguous rows (the back substitution
/// in `axpy` form).
#[derive(Debug, Clone, Default)]
pub struct PackedCholesky {
    order: usize,
    l: Vec<f64>,
}

impl PackedCholesky {
    /// An order-0 factor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Factor the order-`m` SPD matrix whose lower triangle is
    /// `entry(i, j)` (`j <= i`), replacing the current factor. On error
    /// the factor is left in an unspecified state.
    pub fn refactor_with(
        &mut self,
        m: usize,
        entry: impl FnMut(usize, usize) -> f64,
    ) -> Result<(), NotPositiveDefinite> {
        self.refactor_with_floor(m, entry, 0.0)
    }

    /// [`PackedCholesky::refactor_with`] that also rejects a pivot at or
    /// below `rel_floor` times its diagonal entry `entry(i, i)` — a
    /// matrix singular to that relative precision — and stops there, so
    /// a rank-`r` matrix costs only its first `r + 1` rows.
    pub fn refactor_with_floor(
        &mut self,
        m: usize,
        mut entry: impl FnMut(usize, usize) -> f64,
        rel_floor: f64,
    ) -> Result<(), NotPositiveDefinite> {
        self.order = m;
        self.l.clear();
        self.l.resize(m * (m + 1) / 2, 0.0);
        for i in 0..m {
            let (done, rest) = self.l.split_at_mut(i * (i + 1) / 2);
            let row_i = &mut rest[..=i];
            for j in 0..i {
                let row_j = &done[j * (j + 1) / 2..][..=j];
                let s = entry(i, j) - crate::kernels::dot(&row_i[..j], &row_j[..j]);
                row_i[j] = s / row_j[j];
            }
            let diag = entry(i, i);
            let d = diag - crate::kernels::dot(&row_i[..i], &row_i[..i]);
            if d <= rel_floor * diag || !d.is_finite() {
                return Err(NotPositiveDefinite { pivot: i, value: d });
            }
            row_i[i] = d.sqrt();
        }
        Ok(())
    }

    /// Diagonal entry `L_ii` of the factor: the square root of the
    /// `i`-th pivot.
    pub fn diag(&self, i: usize) -> f64 {
        self.l[i * (i + 3) / 2]
    }

    /// Solve `A x = b` in place: forward substitution, then the
    /// transposed back substitution as row-wise `axpy` updates.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let m = self.order;
        assert_eq!(b.len(), m, "PackedCholesky::solve: rhs length mismatch");
        for i in 0..m {
            let row = &self.l[i * (i + 1) / 2..][..=i];
            b[i] = (b[i] - crate::kernels::dot(&row[..i], &b[..i])) / row[i];
        }
        for i in (0..m).rev() {
            let row = &self.l[i * (i + 1) / 2..][..=i];
            b[i] /= row[i];
            let xi = b[i];
            crate::kernels::axpy(-xi, &row[..i], &mut b[..i]);
        }
    }
}

/// Solve `L y = b` in place for lower-triangular `L`.
pub fn forward_substitute(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    for i in 0..n {
        let row = l.row(i);
        let mut s = b[i];
        for k in 0..i {
            s -= row[k] * b[k];
        }
        b[i] = s / row[i];
    }
}

/// Solve `L^T x = y` in place for lower-triangular `L` (i.e. an
/// upper-triangular solve against the transpose, without materialising it).
pub fn back_substitute_transposed(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    for i in (0..n).rev() {
        let mut s = b[i];
        for k in (i + 1)..n {
            s -= l[(k, i)] * b[k];
        }
        b[i] = s / l[(i, i)];
    }
}

/// Convenience: solve the SPD system `a x = b` with a one-shot factorisation.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NotPositiveDefinite> {
    Ok(Cholesky::factor(a)?.solve(b))
}

/// Solve the regularised normal equations `(X^T X + ridge I) beta = X^T y`.
///
/// With `ridge = 0` this is ordinary least squares (requires full column
/// rank); a tiny positive `ridge` is the standard jitter fallback.
pub fn solve_normal_equations(
    x: &Matrix,
    y: &[f64],
    ridge: f64,
) -> Result<Vec<f64>, NotPositiveDefinite> {
    let mut gram = crate::blas::syrk_t(x);
    if ridge != 0.0 {
        for i in 0..gram.rows() {
            gram[(i, i)] += ridge;
        }
    }
    let rhs = crate::blas::gemv_t(x, y);
    solve_spd(&gram, &rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm, gemv};

    fn spd_test_matrix(n: usize) -> Matrix {
        // A = B^T B + n I is SPD for any B.
        let b = Matrix::from_fn(n + 3, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let mut a = crate::blas::syrk_t(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_test_matrix(8);
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.factor_l();
        let rec = gemm(l, &l.transpose());
        assert!(rec.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd_test_matrix(10);
        let x_true: Vec<f64> = (0..10).map(|i| (i as f64) - 4.5).collect();
        let b = gemv(&a, &x_true);
        let x = solve_spd(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = spd_test_matrix(6);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Matrix::from_fn(6, 3, |i, j| (i + j) as f64);
        let x = ch.solve_matrix(&b);
        assert!(gemm(&a, &x).approx_eq(&b, 1e-9));
    }

    #[test]
    fn blocked_factor_matches_unblocked() {
        // 150 > CHOL_BLOCK_THRESHOLD exercises the blocked right-looking path
        // (including a partial final panel); compare against the unblocked
        // reference on the same matrix.
        let a = spd_test_matrix(150);
        let blocked = Cholesky::factor(&a).unwrap();
        let mut staged = Matrix::zeros(150, 150);
        for i in 0..150 {
            staged.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        let reference = Cholesky::factor_unblocked(staged).unwrap();
        assert!(blocked.factor_l().approx_eq(reference.factor_l(), 1e-8));
        let rec = gemm(blocked.factor_l(), &blocked.factor_l().transpose());
        assert!(rec.approx_eq(&a, 1e-7));
        // Solves agree too.
        let x_true: Vec<f64> = (0..150).map(|i| ((i % 13) as f64) - 6.0).collect();
        let b = gemv(&a, &x_true);
        let x = blocked.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7, "{xi} vs {ti}");
        }
    }

    #[test]
    fn blocked_factor_rejects_non_spd() {
        // Indefinite matrix large enough for the blocked path: B^T B minus a
        // large diagonal shift flips eigenvalues negative.
        let mut a = spd_test_matrix(140);
        a[(133, 133)] = -5.0e4;
        let err = Cholesky::factor(&a).unwrap_err();
        assert!(err.pivot <= 133);
        assert!(err.value <= 0.0 || !err.value.is_finite());
    }

    #[test]
    fn factor_upper_bit_identical_on_symmetric_input() {
        // Both the unblocked (n < 128) and blocked dispatch, on a fully
        // symmetric matrix: reading the upper triangle must reproduce the
        // lower-triangle factorisation bit for bit.
        for n in [1, 9, 57, 150] {
            let a = spd_test_matrix(n);
            let lower = Cholesky::factor(&a).unwrap();
            let upper = Cholesky::factor_upper(&a).unwrap();
            for (g, w) in upper
                .factor_l()
                .as_slice()
                .iter()
                .zip(lower.factor_l().as_slice())
            {
                assert_eq!(g.to_bits(), w.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn factor_upper_ignores_strict_lower_garbage() {
        let a = spd_test_matrix(40);
        let mut upper_only = a.clone();
        for i in 0..40 {
            for j in 0..i {
                upper_only[(i, j)] = f64::NAN;
            }
        }
        let from_full = Cholesky::factor_upper(&a).unwrap();
        let from_upper = Cholesky::factor_upper(&upper_only).unwrap();
        for (g, w) in from_upper
            .factor_l()
            .as_slice()
            .iter()
            .zip(from_full.factor_l().as_slice())
        {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn packed_matches_dense_factor_and_reuses_storage() {
        let mut packed = PackedCholesky::new();
        for n in [0, 1, 5, 33, 140, 7] {
            let a = spd_test_matrix(n);
            packed.refactor_with(n, |i, j| a[(i, j)]).unwrap();
            assert_eq!(packed.order(), n);
            let dense = Cholesky::factor(&a).unwrap();
            for i in 0..n {
                let want = dense.factor_l()[(i, i)];
                assert!((packed.diag(i) - want).abs() < 1e-12 * want);
            }
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let mut x = b.clone();
            packed.solve_in_place(&mut x);
            let want = dense.solve(&b);
            for (g, w) in x.iter().zip(&want) {
                assert!((g - w).abs() < 1e-10 * (1.0 + w.abs()), "{g} vs {w}");
            }
        }
        let not_spd = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let err = packed.refactor_with(2, |i, j| not_spd[(i, j)]).unwrap_err();
        assert_eq!(err.pivot, 1);
    }

    #[test]
    fn pivot_floor_stops_at_the_first_small_pivot() {
        // Rows 0 and 1 equal: pivot 1 vanishes to round-off, far below a
        // 1e-10 floor, while the plain factor may accept it.
        let a = Matrix::from_rows(&[&[4.0, 2.0, 2.0], &[2.0, 1.0, 1.0], &[2.0, 1.0, 3.0]]);
        let mut packed = PackedCholesky::new();
        let mut calls = 0;
        let err = packed
            .refactor_with_floor(
                3,
                |i, j| {
                    calls += 1;
                    a[(i, j)]
                },
                1e-10,
            )
            .unwrap_err();
        assert_eq!(err.pivot, 1);
        assert_eq!(calls, 3, "rows past the failing pivot are never read");
        let spd = spd_test_matrix(3);
        packed
            .refactor_with_floor(3, |i, j| spd[(i, j)], 1e-10)
            .unwrap();
    }

    #[test]
    fn non_spd_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        let err = Cholesky::factor(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
    }

    #[test]
    fn log_det_identity_is_zero() {
        let ch = Cholesky::factor(&Matrix::identity(5)).unwrap();
        assert!(ch.log_det().abs() < 1e-14);
    }

    #[test]
    fn normal_equations_exact_fit() {
        // y = 2 x0 - 3 x1 exactly.
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]]);
        let y = [2.0, -3.0, -1.0, 1.0];
        let beta = solve_normal_equations(&x, &y, 0.0).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-10);
        assert!((beta[1] + 3.0).abs() < 1e-10);
    }
}

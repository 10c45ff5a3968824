//! Householder QR decomposition and QR-based least squares.
//!
//! The Cholesky normal-equations path (`chol`) squares the condition
//! number; the estimation step occasionally meets bootstrap resamples
//! with nearly collinear support columns, where the QR route stays
//! accurate without jitter.

use crate::dense::Matrix;

/// Compact Householder QR of an `m x n` matrix with `m >= n`.
///
/// Stores `R` in the upper triangle and the Householder vectors below the
/// diagonal (LAPACK-style), with the scalar factors in `tau`.
#[derive(Debug, Clone)]
struct Qr {
    qr: Matrix,
    tau: Vec<f64>,
}

/// Error for under-determined inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnderDetermined;

impl std::fmt::Display for UnderDetermined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QR least squares requires rows >= cols")
    }
}

impl std::error::Error for UnderDetermined {}

impl Qr {
    /// Factor `a` (`m x n`, `m >= n`).
    fn factor(a: &Matrix) -> Result<Qr, UnderDetermined> {
        let (m, n) = a.shape();
        if m < n {
            return Err(UnderDetermined);
        }
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Householder vector for column k below row k.
            let mut norm2 = 0.0;
            for i in k..m {
                norm2 += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm2.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // Normalise so v[k] = 1 implicitly; store v below diagonal.
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            tau[k] = -v0 / alpha;
            qr[(k, k)] = alpha;
            // Apply H_k = I - tau v v^T to the trailing columns.
            for j in (k + 1)..n {
                let mut dot = qr[(k, j)];
                for i in (k + 1)..m {
                    dot += qr[(i, k)] * qr[(i, j)];
                }
                let scale = tau[k] * dot;
                qr[(k, j)] -= scale;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= scale * vik;
                }
            }
        }
        Ok(Qr { qr, tau })
    }

    /// Apply `Q^T` to a vector (length `m`), in place.
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = self.qr.shape();
        assert_eq!(b.len(), m);
        for k in 0..n {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut dot = b[k];
            for i in (k + 1)..m {
                dot += self.qr[(i, k)] * b[i];
            }
            let scale = self.tau[k] * dot;
            b[k] -= scale;
            for i in (k + 1)..m {
                b[i] -= scale * self.qr[(i, k)];
            }
        }
    }

    /// Minimum-norm least-squares solve `argmin ||a x - b||`.
    ///
    /// Exactly singular `R` diagonals (within `tol`) get zero
    /// coefficients (basic solution).
    fn solve_least_squares(&self, b: &[f64], tol: f64) -> Vec<f64> {
        let (m, n) = self.qr.shape();
        assert_eq!(b.len(), m);
        let mut rhs = b.to_vec();
        self.apply_qt(&mut rhs);
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = rhs[k];
            for j in (k + 1)..n {
                s -= self.qr[(k, j)] * x[j];
            }
            let d = self.qr[(k, k)];
            x[k] = if d.abs() <= tol { 0.0 } else { s / d };
        }
        x
    }

    /// The `R` factor (upper-triangular `n x n`).
    #[cfg(test)]
    fn r(&self) -> Matrix {
        let n = self.qr.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// Absolute R-diagonal values — a cheap numerical-rank witness.
    #[cfg(test)]
    fn r_diag_abs(&self) -> Vec<f64> {
        (0..self.qr.cols()).map(|i| self.qr[(i, i)].abs()).collect()
    }
}

/// One-shot QR least squares.
pub fn qr_least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, UnderDetermined> {
    Ok(Qr::factor(a)?.solve_least_squares(b, 1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemv;

    #[test]
    fn exact_system_recovered() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0], &[0.0, 1.0]]);
        let x_true = [2.0, -1.0];
        let b = gemv(&a, &x_true);
        let x = qr_least_squares(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12, "{xi} vs {ti}");
        }
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = Matrix::from_fn(25, 6, |i, j| {
            (((i + 2) * (j + 3) * 97) % 41) as f64 / 20.0 - 1.0
        });
        let b: Vec<f64> = (0..25).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let via_qr = qr_least_squares(&a, &b).unwrap();
        let via_ne = crate::chol::solve_normal_equations(&a, &b, 0.0).unwrap();
        for (q, n) in via_qr.iter().zip(&via_ne) {
            assert!((q - n).abs() < 1e-8, "{q} vs {n}");
        }
    }

    #[test]
    fn r_is_upper_triangular_with_correct_gram() {
        let a = Matrix::from_fn(12, 4, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
        let qr = Qr::factor(&a).unwrap();
        let r = qr.r();
        for i in 0..4 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
        // R^T R == A^T A.
        let rtr = crate::blas::gemm(&r.transpose(), &r);
        let gram = crate::blas::syrk_t(&a);
        assert!(rtr.approx_eq(&gram, 1e-9), "{rtr:?} vs {gram:?}");
    }

    #[test]
    fn rank_deficient_gets_basic_solution() {
        // Duplicate column: exactly rank-deficient.
        let a = Matrix::from_fn(10, 3, |i, j| {
            let base = (i as f64) - 4.5;
            match j {
                0 => base,
                1 => base, // duplicate
                _ => (i * i) as f64 * 0.1,
            }
        });
        let b: Vec<f64> = (0..10).map(|i| 2.0 * ((i as f64) - 4.5)).collect();
        let qr = Qr::factor(&a).unwrap();
        let diag = qr.r_diag_abs();
        assert!(diag[1] < 1e-9, "second pivot must collapse: {diag:?}");
        let x = qr.solve_least_squares(&b, 1e-9);
        // Prediction still near-exact.
        let pred = gemv(&a, &x);
        for (p, t) in pred.iter().zip(&b) {
            assert!((p - t).abs() < 1e-8);
        }
    }

    #[test]
    fn underdetermined_rejected() {
        let a = Matrix::zeros(2, 5);
        assert!(Qr::factor(&a).is_err());
    }

    #[test]
    fn zero_column_handled() {
        let a = Matrix::from_fn(6, 2, |i, j| if j == 0 { 0.0 } else { (i + 1) as f64 });
        let b = vec![1.0; 6];
        let x = qr_least_squares(&a, &b).unwrap();
        assert_eq!(x[0], 0.0);
        assert!(x[1].is_finite());
    }
}

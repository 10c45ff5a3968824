//! Kronecker products, specialised to the identity-Kronecker operator
//! `I_m ⊗ X` of the vectorised VAR problem (paper eq. 9).
//!
//! The paper's central `UoI_VAR` difficulty is that `I ⊗ X` explodes the
//! problem size (≈ p^3): a `(N-d) x dp` lag matrix becomes a
//! `p(N-d) x dp^2` block-diagonal design. [`IdentityKron`] never
//! materialises that matrix — it stores `X` once and implements the
//! matrix-free products the solvers need.

use crate::blas::{gemv, gemv_t};
use crate::dense::Matrix;

/// Matrix-free representation of `I_m ⊗ X`.
#[derive(Debug, Clone)]
pub struct IdentityKron {
    x: Matrix,
    copies: usize,
}

impl IdentityKron {
    /// Wrap `X` as the operator `I_copies ⊗ X`.
    pub fn new(x: Matrix, copies: usize) -> Self {
        Self { x, copies }
    }

    /// Number of identity copies `m`.
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// The underlying block `X`.
    pub fn block(&self) -> &Matrix {
        &self.x
    }

    /// Shape of the full operator: `(m * n, m * q)` for `X: n x q`.
    pub fn shape(&self) -> (usize, usize) {
        (self.copies * self.x.rows(), self.copies * self.x.cols())
    }

    /// Total bytes the explicit matrix would occupy as dense `f64` — the
    /// "problem size" quantity the paper reports (GBs/TBs).
    pub fn dense_bytes(&self) -> u64 {
        let (r, c) = self.shape();
        r as u64 * c as u64 * 8
    }

    /// Sparsity of the explicit block-diagonal form: `1 - 1/m`
    /// (the paper's `1 - 1/p` with square-ish blocks).
    pub fn sparsity(&self) -> f64 {
        if self.copies == 0 {
            0.0
        } else {
            1.0 - 1.0 / self.copies as f64
        }
    }

    /// `(I ⊗ X) v` without materialising the operator: applies `X` to each
    /// of the `m` contiguous segments of `v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let (n, q) = self.x.shape();
        assert_eq!(
            v.len(),
            self.copies * q,
            "IdentityKron::matvec: length mismatch"
        );
        let mut out = Vec::with_capacity(self.copies * n);
        for k in 0..self.copies {
            out.extend(gemv(&self.x, &v[k * q..(k + 1) * q]));
        }
        out
    }

    /// `(I ⊗ X)^T v`.
    pub fn matvec_t(&self, v: &[f64]) -> Vec<f64> {
        let (n, q) = self.x.shape();
        assert_eq!(
            v.len(),
            self.copies * n,
            "IdentityKron::matvec_t: length mismatch"
        );
        let mut out = Vec::with_capacity(self.copies * q);
        for k in 0..self.copies {
            out.extend(gemv_t(&self.x, &v[k * n..(k + 1) * n]));
        }
        out
    }

    /// Gram matrix identity: `(I ⊗ X)^T (I ⊗ X) = I ⊗ (X^T X)`, so a single
    /// `q x q` Gram block suffices for all `m` diagonal blocks. This is the
    /// key structure the communication-avoiding solver variant exploits.
    pub fn gram_block(&self) -> Matrix {
        crate::blas::syrk_t(&self.x)
    }

    /// The `(row, col)` ranges of block `k` within the explicit operator.
    pub fn block_ranges(&self, k: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let (n, q) = self.x.shape();
        (k * n..(k + 1) * n, k * q..(k + 1) * q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemm;

    /// The operator materialised densely: `X` on each diagonal block.
    fn dense(op: &IdentityKron) -> Matrix {
        let (r, c) = op.shape();
        let (n, q) = op.block().shape();
        Matrix::from_fn(r, c, |i, j| {
            if i / n == j / q {
                op.block()[(i % n, j % q)]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn matvec_matches_dense() {
        let x = Matrix::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f64 - 2.0);
        let op = IdentityKron::new(x, 5);
        let v: Vec<f64> = (0..15).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let fast = op.matvec(&v);
        let slow = gemv(&dense(&op), &v);
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_t_matches_dense() {
        let x = Matrix::from_fn(4, 3, |i, j| ((i + j) % 3) as f64);
        let op = IdentityKron::new(x, 2);
        let v: Vec<f64> = (0..8).map(|i| i as f64 - 4.0).collect();
        let fast = op.matvec_t(&v);
        let slow = gemv_t(&dense(&op), &v);
        for (f, s) in fast.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_block_identity() {
        let x = Matrix::from_fn(5, 3, |i, j| ((i * 7 + j) % 4) as f64 - 1.5);
        let op = IdentityKron::new(x, 3);
        // Full Gram of the explicit operator should be I ⊗ (X^T X).
        let explicit = dense(&op);
        let full_gram = gemm(&explicit.transpose(), &explicit);
        let expected = dense(&IdentityKron::new(op.gram_block(), 3));
        assert!(full_gram.approx_eq(&expected, 1e-10));
    }

    #[test]
    fn sparsity_formula() {
        let x = Matrix::filled(2, 2, 1.0);
        let op = IdentityKron::new(x, 10);
        assert!((op.sparsity() - 0.9).abs() < 1e-15);
        let explicit = dense(&op);
        let zeros = explicit.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!((zeros as f64 / explicit.as_slice().len() as f64 - 0.9).abs() < 1e-15);
    }

    #[test]
    fn dense_bytes_explosion() {
        // p=100-ish block: explicit dense size grows with copies^2.
        let x = Matrix::zeros(10, 10);
        let small = IdentityKron::new(x.clone(), 2).dense_bytes();
        let big = IdentityKron::new(x, 20).dense_bytes();
        assert_eq!(big, small * 100);
    }

    #[test]
    fn block_ranges_cover_operator() {
        let x = Matrix::zeros(3, 2);
        let op = IdentityKron::new(x, 4);
        assert_eq!(op.shape(), (12, 8));
        let (r, c) = op.block_ranges(2);
        assert_eq!(r, 6..9);
        assert_eq!(c, 4..6);
    }
}

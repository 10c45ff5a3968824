//! Spectral-radius estimation for (possibly non-symmetric) matrices.
//!
//! The VAR(d) stability constraint (paper eq. 6) — `det(I - Σ A_j z^j) ≠ 0`
//! for `|z| ≤ 1` — is equivalent to the spectral radius of the companion
//! matrix being `< 1`. Power iteration on a non-symmetric matrix can
//! oscillate when the dominant eigenvalues are a complex pair, so we
//! estimate `ρ(A)` from the geometric growth rate of `||A^k v||`, which is
//! robust to complex dominant pairs.

use crate::blas::{gemv, norm2};
use crate::dense::Matrix;

/// Estimate the spectral radius of a square matrix.
///
/// Runs `iters` matrix-vector products starting from a deterministic
/// pseudo-random vector and returns the average per-step growth factor over
/// the tail half of the iteration (Gelfand's formula in practice).
pub fn spectral_radius(a: &Matrix, iters: usize) -> f64 {
    let n = a.rows();
    assert_eq!(n, a.cols(), "spectral_radius: matrix must be square");
    if n == 0 {
        return 0.0;
    }
    // Deterministic quasi-random start vector (SplitMix-style hash) to avoid
    // pathological alignment with an eigen-null direction.
    let mut v: Vec<f64> = (0..n)
        .map(|i| {
            let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();
    let nv = norm2(&v);
    if nv == 0.0 {
        return 0.0;
    }
    for x in &mut v {
        *x /= nv;
    }

    let iters = iters.max(8);
    let mut log_growth_tail = 0.0;
    let tail_start = iters / 2;
    let mut tail_count = 0usize;
    for k in 0..iters {
        let w = gemv(a, &v);
        let nw = norm2(&w);
        if nw == 0.0 || !nw.is_finite() {
            // Nilpotent directions collapse to zero: radius estimate from
            // what we have so far (or 0).
            return if tail_count > 0 {
                (log_growth_tail / tail_count as f64).exp()
            } else {
                0.0
            };
        }
        if k >= tail_start {
            log_growth_tail += nw.ln();
            tail_count += 1;
        }
        v = w;
        for x in &mut v {
            *x /= nw;
        }
    }
    (log_growth_tail / tail_count.max(1) as f64).exp()
}

/// Build the `dp x dp` companion matrix of a VAR(d) system with coefficient
/// matrices `a_mats = [A_1, ..., A_d]`, each `p x p`:
///
/// ```text
/// [ A_1 A_2 ... A_d ]
/// [  I   0  ...  0  ]
/// [  0   I  ...  0  ]
/// [  0   0 ... I 0  ]
/// ```
pub fn companion_matrix(a_mats: &[Matrix]) -> Matrix {
    assert!(!a_mats.is_empty(), "companion_matrix: need at least one A");
    let p = a_mats[0].rows();
    for a in a_mats {
        assert_eq!(
            a.shape(),
            (p, p),
            "companion_matrix: A matrices must be p x p"
        );
    }
    let d = a_mats.len();
    let mut c = Matrix::zeros(d * p, d * p);
    for (j, a) in a_mats.iter().enumerate() {
        for r in 0..p {
            for cc in 0..p {
                c[(r, j * p + cc)] = a[(r, cc)];
            }
        }
    }
    for k in 1..d {
        for i in 0..p {
            c[(k * p + i, (k - 1) * p + i)] = 1.0;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_radius() {
        let a = Matrix::from_rows(&[&[0.5, 0.0], &[0.0, -0.9]]);
        let r = spectral_radius(&a, 200);
        assert!((r - 0.9).abs() < 1e-3, "got {r}");
    }

    #[test]
    fn rotation_complex_pair() {
        // 0.8 * rotation: complex eigenvalues of magnitude 0.8 — the case
        // plain power iteration fails on.
        let c = 0.8 * (0.3_f64).cos();
        let s = 0.8 * (0.3_f64).sin();
        let a = Matrix::from_rows(&[&[c, -s], &[s, c]]);
        let r = spectral_radius(&a, 200);
        assert!((r - 0.8).abs() < 1e-6, "got {r}");
    }

    #[test]
    fn nilpotent_radius_zero() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let r = spectral_radius(&a, 50);
        assert!(r < 0.3, "nilpotent radius estimate too large: {r}");
    }

    #[test]
    fn companion_var1_is_a1() {
        let a1 = Matrix::from_rows(&[&[0.2, 0.1], &[0.0, 0.3]]);
        let c = companion_matrix(std::slice::from_ref(&a1));
        assert_eq!(c, a1);
    }

    #[test]
    fn companion_var2_structure() {
        let a1 = Matrix::filled(2, 2, 0.1);
        let a2 = Matrix::filled(2, 2, 0.2);
        let c = companion_matrix(&[a1, a2]);
        assert_eq!(c.shape(), (4, 4));
        assert_eq!(c[(0, 0)], 0.1);
        assert_eq!(c[(0, 2)], 0.2);
        assert_eq!(c[(2, 0)], 1.0); // identity block
        assert_eq!(c[(3, 1)], 1.0);
        assert_eq!(c[(2, 2)], 0.0);
    }
}

//! Support-restricted ordinary least squares — the unbiased estimator of
//! the UoI model-estimation step (Algorithm 1 line 18): given a candidate
//! support `S_j`, fit OLS on the columns of `X` indexed by `S_j` and embed
//! the coefficients back into a full-length vector.

use crate::resilience::FactorHealth;
use uoi_linalg::{factor_jittered, qr_least_squares, solve_normal_equations, JitterLadder, Matrix};

/// OLS restricted to `support`; returns a length-`p` vector with zeros off
/// the support. An empty support returns all zeros.
///
/// The fast path is the Cholesky normal-equations solve; singular or
/// near-singular restricted designs (bootstrap resamples with collinear
/// or duplicated columns) fall back to a rank-revealing Householder QR
/// basic solution, and supports wider than the sample count fall back to
/// a minimum-norm ridge solve.
pub fn ols_on_support(x: &Matrix, y: &[f64], support: &[usize]) -> Vec<f64> {
    let p = x.cols();
    let mut beta = vec![0.0; p];
    if support.is_empty() {
        return beta;
    }
    let xs = x.gather_cols(support);
    let coef = if xs.rows() >= xs.cols() {
        match solve_normal_equations(&xs, y, 0.0) {
            Ok(c) => c,
            Err(_) => match qr_least_squares(&xs, y) {
                Ok(c) => c,
                // Rank-deficient past what QR pivoting resolves (e.g.
                // non-finite data): a zero estimate is the defined
                // degraded outcome, not a panic.
                Err(_) => return beta,
            },
        }
    } else {
        // Over-wide support (possible for tiny evaluation folds): a small
        // ridge keeps the system determined. Should even the ridge break
        // down (adversarial scaling), return the zero estimate.
        match solve_normal_equations(&xs, y, 1e-6) {
            Ok(c) => c,
            Err(_) => return beta,
        }
    };
    for (&j, &c) in support.iter().zip(&coef) {
        beta[j] = c;
    }
    beta
}

/// Support-restricted OLS solved entirely in Gram space: given the full
/// Gram `G = X^T X` and rhs `X^T y` (e.g. from the weighted bootstrap
/// kernels), extract the |S|×|S| sub-system `G[S,S] c = (X^T y)[S]` and
/// solve it — O(|S|²) extraction plus an O(|S|³) factor, with no O(n·|S|²)
/// rebuild from the design. Returns a length-`G.rows()` vector with zeros
/// off the support.
///
/// `n_train` is the (resampled) row count backing the Gram; supports wider
/// than it take the same ridge fallback as [`ols_on_support`]. Singular
/// sub-Grams (collinear bootstrap columns) fall back to escalating diagonal
/// jitter — the Gram-space analogue of the QR basic solution.
pub fn ols_on_support_gram(
    gram: &Matrix,
    xty: &[f64],
    support: &[usize],
    n_train: usize,
) -> Vec<f64> {
    ols_on_support_gram_health(gram, xty, support, n_train).0
}

/// The principal sub-system of a Gram and its rhs on `idx`. Canonical
/// (min, max) indexing reads only the upper triangle of the Gram, so
/// upper-stored matrices from the batched engine work without a mirror
/// pass; for a full symmetric input the bits are the same.
pub fn sub_system(gram: &Matrix, xty: &[f64], idx: &[usize]) -> (Matrix, Vec<f64>) {
    let s = idx.len();
    let sub = Matrix::from_fn(s, s, |a, b| {
        let (i, j) = (idx[a], idx[b]);
        if i <= j {
            gram[(i, j)]
        } else {
            gram[(j, i)]
        }
    });
    (sub, idx.iter().map(|&j| xty[j]).collect())
}

/// [`ols_on_support_gram`] that also reports how the sub-Gram
/// factorisation went: jitter attempts consumed by the escalation
/// ladder (0 = clean, bit-identical to the plain solve). A sub-Gram
/// that exhausts the ladder yields the zero estimate with
/// `attempts == u32::MAX` as the exhaustion marker.
pub fn ols_on_support_gram_health(
    gram: &Matrix,
    xty: &[f64],
    support: &[usize],
    n_train: usize,
) -> (Vec<f64>, FactorHealth) {
    let p = gram.rows();
    assert_eq!(p, gram.cols(), "ols_on_support_gram: Gram must be square");
    assert_eq!(p, xty.len(), "ols_on_support_gram: rhs length mismatch");
    let mut beta = vec![0.0; p];
    if support.is_empty() {
        return (beta, FactorHealth::clean());
    }
    let s = support.len();
    let (mut sub, rhs) = sub_system(gram, xty, support);
    if s > n_train {
        // Over-wide support: determined only with the same small ridge the
        // design-space path uses; the ladder backstops adversarial scaling
        // where even the ridge is not enough.
        for i in 0..s {
            sub[(i, i)] += 1e-6;
        }
    }
    // The ladder attempts the plain factorisation first (no copy, same
    // bits as the historical `Cholesky::factor` path), then escalates
    // trace-scaled diagonal jitter — replacing the old fixed
    // `[1e-10 .. 1e-4]` schedule with one deterministic policy shared by
    // every factorisation site.
    let ladder = JitterLadder::for_matrix(&sub);
    match factor_jittered(&sub, &ladder) {
        Ok(jf) => {
            embed(&mut beta, support, &jf.chol.solve(&rhs));
            (
                beta,
                FactorHealth {
                    attempts: jf.attempts,
                    jitter: jf.jitter,
                    condest: None,
                },
            )
        }
        Err(b) => (
            beta,
            FactorHealth {
                attempts: u32::MAX,
                jitter: b.last_jitter,
                condest: None,
            },
        ),
    }
}

fn embed(beta: &mut [f64], support: &[usize], coef: &[f64]) {
    for (&j, &c) in support.iter().zip(coef) {
        beta[j] = c;
    }
}

/// The support (indices of entries with `|b| > tol`) of a coefficient
/// vector, sorted.
pub fn support_of(beta: &[f64], tol: f64) -> Vec<usize> {
    beta.iter()
        .enumerate()
        .filter(|(_, b)| b.abs() > tol)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_recovery_on_true_support() {
        let n = 30;
        let x = Matrix::from_fn(n, 5, |i, j| {
            (((i + 1) * (j + 2) * 2654435761_usize) % 97) as f64 / 48.5 - 1.0
        });
        let y: Vec<f64> = (0..n).map(|i| 3.0 * x[(i, 1)] - 2.0 * x[(i, 3)]).collect();
        let beta = ols_on_support(&x, &y, &[1, 3]);
        assert!((beta[1] - 3.0).abs() < 1e-8);
        assert!((beta[3] + 2.0).abs() < 1e-8);
        assert_eq!(beta[0], 0.0);
        assert_eq!(beta[2], 0.0);
        assert_eq!(beta[4], 0.0);
    }

    #[test]
    fn empty_support_all_zero() {
        let x = Matrix::identity(4);
        let beta = ols_on_support(&x, &[1.0, 2.0, 3.0, 4.0], &[]);
        assert_eq!(beta, vec![0.0; 4]);
    }

    #[test]
    fn collinear_columns_fall_back_to_qr() {
        // Two identical columns: the restricted Gram is singular.
        let x = Matrix::from_fn(10, 2, |i, _| (i as f64) - 4.5);
        let y: Vec<f64> = (0..10).map(|i| 2.0 * ((i as f64) - 4.5)).collect();
        let beta = ols_on_support(&x, &y, &[0, 1]);
        // The QR basic solution zeroes the redundant pivot; prediction
        // must still be near-exact.
        let pred = uoi_linalg::gemv(&x, &beta);
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-4);
        }
    }

    #[test]
    fn over_wide_support_uses_ridge() {
        // More support columns than rows: must not panic, and must
        // still predict reasonably.
        let x = Matrix::from_fn(4, 8, |i, j| ((i * 8 + j * 3) % 7) as f64 - 3.0);
        let y = [1.0, -1.0, 2.0, 0.5];
        let beta = ols_on_support(&x, &y, &(0..8).collect::<Vec<_>>());
        assert!(beta.iter().all(|b| b.is_finite()));
        let pred = uoi_linalg::gemv(&x, &beta);
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 0.1, "{p} vs {t}");
        }
    }

    #[test]
    fn gram_ols_matches_design_space_ols() {
        let n = 30;
        let x = Matrix::from_fn(n, 6, |i, j| {
            (((i + 1) * (j + 2) * 2654435761_usize) % 97) as f64 / 48.5 - 1.0
        });
        let y: Vec<f64> = (0..n)
            .map(|i| 3.0 * x[(i, 1)] - 2.0 * x[(i, 3)] + 0.5 * x[(i, 5)])
            .collect();
        let gram = uoi_linalg::syrk_t(&x);
        let xty = uoi_linalg::gemv_t(&x, &y);
        for support in [
            vec![1, 3],
            vec![0, 1, 3, 5],
            vec![2],
            (0..6).collect::<Vec<_>>(),
        ] {
            let a = ols_on_support(&x, &y, &support);
            let b = ols_on_support_gram(&gram, &xty, &support, n);
            for (va, vb) in a.iter().zip(&b) {
                assert!((va - vb).abs() < 1e-8, "support {support:?}: {va} vs {vb}");
            }
        }
    }

    #[test]
    fn gram_ols_empty_support_and_overwide() {
        let x = Matrix::from_fn(4, 8, |i, j| ((i * 8 + j * 3) % 7) as f64 - 3.0);
        let y = [1.0, -1.0, 2.0, 0.5];
        let gram = uoi_linalg::syrk_t(&x);
        let xty = uoi_linalg::gemv_t(&x, &y);
        assert_eq!(ols_on_support_gram(&gram, &xty, &[], 4), vec![0.0; 8]);
        // Over-wide support takes the ridge fallback, mirroring ols_on_support.
        let wide: Vec<usize> = (0..8).collect();
        let a = ols_on_support(&x, &y, &wide);
        let b = ols_on_support_gram(&gram, &xty, &wide, 4);
        for (va, vb) in a.iter().zip(&b) {
            assert!((va - vb).abs() < 1e-6, "{va} vs {vb}");
        }
    }

    #[test]
    fn gram_ols_singular_subgram_jitter_fallback() {
        // Identical columns make the sub-Gram singular; the jitter fallback
        // must return finite coefficients that still predict well.
        let x = Matrix::from_fn(10, 2, |i, _| (i as f64) - 4.5);
        let y: Vec<f64> = (0..10).map(|i| 2.0 * ((i as f64) - 4.5)).collect();
        let gram = uoi_linalg::syrk_t(&x);
        let xty = uoi_linalg::gemv_t(&x, &y);
        let beta = ols_on_support_gram(&gram, &xty, &[0, 1], 10);
        assert!(beta.iter().all(|b| b.is_finite()));
        let pred = uoi_linalg::gemv(&x, &beta);
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-3, "{p} vs {t}");
        }
    }

    #[test]
    fn support_of_thresholds() {
        assert_eq!(support_of(&[0.0, 1e-12, -0.5, 2.0], 1e-10), vec![2, 3]);
        assert_eq!(support_of(&[], 0.0), Vec::<usize>::new());
    }
}

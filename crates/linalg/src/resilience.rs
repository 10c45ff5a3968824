//! Ill-conditioning defense for per-bootstrap Gram systems.
//!
//! Bootstrap resamples routinely produce rank-deficient or near-singular
//! Grams at high dimension (duplicated rows, constant columns after
//! centring, p > n supports). This module turns Cholesky breakdown from a
//! fit-aborting panic into a bounded, deterministic recovery:
//!
//! * [`JitterLadder`] — the deterministic ridge-jitter escalation
//!   schedule `tau_k = tau0 * growth^k` with `tau0 = eps * tr(G)/p`,
//!   bounded by `max_attempts`;
//! * [`factor_upper_jittered`] / [`factor_jittered`] — attempt the plain
//!   factorisation first (so clean inputs stay bit-identical and pay no
//!   copy), then walk the ladder on breakdown.
//!
//! Everything here is deterministic: the same input produces the same
//! jitter level, the same factor, and the same [`FactorBreakdown`] on
//! exhaustion, on every run and every rank.

use crate::chol::Cholesky;
use crate::dense::Matrix;

/// Default ladder growth factor per retry.
pub const JITTER_GROWTH: f64 = 10.0;
/// Default bound on jittered factorisation attempts (after the plain
/// attempt). `eps * 10^7` relative jitter is already ~2e-9 of the trace;
/// anything that survives past that is not meaningfully a Gram any more.
pub const JITTER_MAX_ATTEMPTS: u32 = 8;

/// Trace of a square matrix (diagonal is shared by both triangles, so
/// this is storage-convention agnostic).
pub fn trace(a: &Matrix) -> f64 {
    debug_assert_eq!(a.rows(), a.cols());
    (0..a.rows()).map(|i| a[(i, i)]).sum()
}

/// Deterministic ridge-jitter escalation schedule.
///
/// Attempt 0 is the *plain* factorisation (no copy, no jitter — the
/// clean path stays bit-identical). Attempt `k >= 1` adds
/// `tau0 * growth^(k-1)` to the diagonal of a fresh copy. `tau0` is
/// scaled to the problem via `eps * tr(G) / p`, the machine-epsilon
/// fraction of the mean diagonal, so the first rung is the smallest
/// perturbation that can plausibly matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterLadder {
    /// First rung of the ladder (attempt 1's jitter).
    pub tau0: f64,
    /// Multiplicative escalation per retry.
    pub growth: f64,
    /// Number of jittered attempts after the plain one.
    pub max_attempts: u32,
}

impl JitterLadder {
    /// Ladder scaled to a Gram with the given trace and order:
    /// `tau0 = eps * tr / p` (floored at `eps` for all-zero Grams).
    pub fn for_gram(trace: f64, p: usize) -> Self {
        let mean_diag = if p == 0 { 0.0 } else { trace / p as f64 };
        let tau0 = (f64::EPSILON * mean_diag.abs()).max(f64::EPSILON);
        Self {
            tau0,
            growth: JITTER_GROWTH,
            max_attempts: JITTER_MAX_ATTEMPTS,
        }
    }

    /// Ladder for an upper-stored Gram matrix.
    pub fn for_matrix(a: &Matrix) -> Self {
        Self::for_gram(trace(a), a.rows())
    }

    /// Jitter applied on attempt `k` (1-based; attempt 0 is plain).
    pub fn jitter_at(&self, attempt: u32) -> f64 {
        debug_assert!(attempt >= 1);
        self.tau0 * self.growth.powi(attempt as i32 - 1)
    }
}

/// A factorisation that may have needed diagonal jitter to succeed.
#[derive(Debug, Clone)]
pub struct JitteredFactor {
    /// The (possibly jittered) Cholesky factor.
    pub chol: Cholesky,
    /// Diagonal jitter that was added; `0.0` on the clean path.
    pub jitter: f64,
    /// Jittered attempts consumed; `0` means the plain factorisation
    /// succeeded and the factor is bit-identical to `Cholesky::factor*`.
    pub attempts: u32,
}

/// Breakdown after the ladder is exhausted: every rung, including the
/// largest jitter, hit a non-positive pivot.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorBreakdown {
    /// Pivot index of the final failed attempt.
    pub pivot: usize,
    /// Pivot value of the final failed attempt.
    pub value: f64,
    /// Total attempts made (1 plain + `attempts - 1` jittered).
    pub attempts: u32,
    /// Largest jitter tried.
    pub last_jitter: f64,
}

impl std::fmt::Display for FactorBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cholesky breakdown after {} attempts (last jitter {:.3e}): \
             pivot {} has value {:.3e}",
            self.attempts, self.last_jitter, self.pivot, self.value
        )
    }
}

impl std::error::Error for FactorBreakdown {}

fn factor_with_ladder(
    a: &Matrix,
    ladder: &JitterLadder,
    plain: impl Fn(&Matrix) -> Result<Cholesky, crate::chol::NotPositiveDefinite>,
    upper: bool,
) -> Result<JitteredFactor, FactorBreakdown> {
    // Attempt 0: no copy, no jitter. Clean inputs never reach the ladder.
    let first_err = match plain(a) {
        Ok(chol) => {
            return Ok(JitteredFactor {
                chol,
                jitter: 0.0,
                attempts: 0,
            })
        }
        Err(e) => e,
    };
    let mut last = first_err;
    for attempt in 1..=ladder.max_attempts {
        let tau = ladder.jitter_at(attempt);
        if !tau.is_finite() {
            break;
        }
        let mut jittered = a.clone();
        for i in 0..jittered.rows() {
            jittered[(i, i)] += tau;
        }
        let result = if upper {
            Cholesky::factor_upper(&jittered)
        } else {
            Cholesky::factor(&jittered)
        };
        match result {
            Ok(chol) => {
                return Ok(JitteredFactor {
                    chol,
                    jitter: tau,
                    attempts: attempt,
                })
            }
            Err(e) => last = e,
        }
    }
    Err(FactorBreakdown {
        pivot: last.pivot,
        value: last.value,
        attempts: 1 + ladder.max_attempts,
        last_jitter: ladder.jitter_at(ladder.max_attempts.max(1)),
    })
}

/// [`Cholesky::factor_upper`] with the jitter ladder: plain attempt
/// first (bit-identical when it succeeds), then escalating diagonal
/// jitter on a copy.
pub fn factor_upper_jittered(
    a: &Matrix,
    ladder: &JitterLadder,
) -> Result<JitteredFactor, FactorBreakdown> {
    factor_with_ladder(a, ladder, Cholesky::factor_upper, true)
}

/// [`Cholesky::factor`] (lower-triangle reads) with the jitter ladder.
pub fn factor_jittered(
    a: &Matrix,
    ladder: &JitterLadder,
) -> Result<JitteredFactor, FactorBreakdown> {
    factor_with_ladder(a, ladder, Cholesky::factor, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::syrk_t;

    fn spd(n: usize) -> Matrix {
        let b = Matrix::from_fn(n + 3, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let mut a = syrk_t(&b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn clean_input_factors_without_jitter_bit_identical() {
        let a = spd(12);
        let ladder = JitterLadder::for_matrix(&a);
        let jf = factor_upper_jittered(&a, &ladder).unwrap();
        assert_eq!(jf.attempts, 0);
        assert_eq!(jf.jitter, 0.0);
        let plain = Cholesky::factor_upper(&a).unwrap();
        for (g, w) in jf
            .chol
            .factor_l()
            .as_slice()
            .iter()
            .zip(plain.factor_l().as_slice())
        {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn rank_deficient_gram_factors_with_recorded_jitter() {
        // Two identical columns -> exactly singular Gram.
        let x = Matrix::from_fn(10, 4, |i, j| {
            let jj = if j == 3 { 0 } else { j };
            ((i * 5 + jj * 3) % 7) as f64 - 3.0
        });
        let gram = syrk_t(&x);
        let ladder = JitterLadder::for_matrix(&gram);
        let jf = factor_upper_jittered(&gram, &ladder).unwrap();
        assert!(jf.attempts >= 1, "singular Gram must climb the ladder");
        assert!(jf.jitter > 0.0);
        // The jittered system solves (it is SPD by construction).
        let rhs = vec![1.0; 4];
        let sol = jf.chol.solve(&rhs);
        assert!(sol.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn hopeless_matrix_reports_breakdown() {
        // A large negative diagonal cannot be rescued by eps-scale jitter.
        let mut a = Matrix::identity(5);
        a[(2, 2)] = -1.0e6;
        let ladder = JitterLadder::for_matrix(&a);
        let err = factor_upper_jittered(&a, &ladder).unwrap_err();
        assert_eq!(err.attempts, 1 + ladder.max_attempts);
        assert!(err.value <= 0.0);
        assert_eq!(err.pivot, 2);
    }

    #[test]
    fn ladder_is_deterministic() {
        let x = Matrix::from_fn(6, 8, |i, j| ((i * 3 + j) % 5) as f64); // p > n
        let gram = syrk_t(&x);
        let ladder = JitterLadder::for_matrix(&gram);
        let a = factor_upper_jittered(&gram, &ladder).unwrap();
        let b = factor_upper_jittered(&gram, &ladder).unwrap();
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.jitter.to_bits(), b.jitter.to_bits());
        for (g, w) in a
            .chol
            .factor_l()
            .as_slice()
            .iter()
            .zip(b.chol.factor_l().as_slice())
        {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn ladder_scales_with_trace() {
        let ladder = JitterLadder::for_gram(100.0, 10);
        assert!((ladder.tau0 - f64::EPSILON * 10.0).abs() < 1e-30);
        assert_eq!(ladder.jitter_at(1), ladder.tau0);
        assert_eq!(ladder.jitter_at(3), ladder.tau0 * 100.0);
    }
}

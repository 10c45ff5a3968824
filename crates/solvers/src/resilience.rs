//! Divergence recovery and factorisation-health plumbing for the ADMM
//! solver stack.
//!
//! The serial/distributed solvers defend *factorisation* breakdown with
//! the deterministic jitter ladder in `uoi_linalg::resilience`; this
//! module adds the *iteration*-level defenses both executors share:
//!
//! * [`FactorHealth`] — how much jitter a factorisation had to consume;
//! * [`ResilienceConfig`] — the divergence cap and the bounded
//!   rho-restart budget;
//! * [`restart_tripped`] — the one ρ-restart ladder: a λ whose residuals
//!   tripped the divergence cap is re-solved under an escalated or
//!   relaxed penalty (Boyd residual balancing, §3.4.1), bounded and
//!   deterministic. [`LassoAdmm::solve_path_guarded`] and the
//!   distributed `UoI_LASSO` fit both run it, each passing the one-λ
//!   re-solve of its executor;
//! * [`PathHealth`] — the per-path ledger (jitter attempts, restarts,
//!   recovered and dropped lambdas) the pipeline layers fold into the
//!   run-level `NumericalHealthReport`.
//!
//! The clean path is sacred: when nothing trips, every coefficient is
//! bit-identical to the unguarded solver, and the guard itself adds no
//! allocations to the inner loop (a pair of comparisons per iteration).

use crate::admm::AdmmSolution;
#[cfg(doc)]
use crate::admm::LassoAdmm;
use uoi_linalg::FactorBreakdown;

/// Default bound on rho restarts per diverged lambda.
pub const DEFAULT_MAX_RHO_RESTARTS: u32 = 3;
/// Default residual cap for the divergence tripwire. Large enough that
/// no legitimate iterate ever approaches it (residuals of converging
/// ADMM runs are bounded by problem scale), small enough to abort well
/// before the iterates overflow to infinity.
pub const DEFAULT_DIVERGENCE_CAP: f64 = 1.0e150;

/// How a solver's factorisation went: jitter attempts consumed by the
/// escalation ladder (0 = clean plain factorisation, bit-identical to
/// the historical behaviour) and the jitter they added.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorHealth {
    /// Jittered attempts consumed; 0 means the plain factorisation
    /// succeeded.
    pub attempts: u32,
    /// Diagonal jitter that was added; 0.0 on the clean path.
    pub jitter: f64,
}

impl FactorHealth {
    /// A clean factorisation: no jitter.
    pub fn clean() -> Self {
        Self {
            attempts: 0,
            jitter: 0.0,
        }
    }
}

/// Numerical-resilience policy knobs. The defaults arm the tripwire and
/// a small restart budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Residual cap for the divergence tripwire.
    pub divergence_cap: f64,
    /// Bounded rho-restart budget per diverged lambda.
    pub max_rho_restarts: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            divergence_cap: DEFAULT_DIVERGENCE_CAP,
            max_rho_restarts: DEFAULT_MAX_RHO_RESTARTS,
        }
    }
}

impl ResilienceConfig {
    pub fn divergence_cap(mut self, cap: f64) -> Self {
        self.divergence_cap = cap;
        self
    }

    pub fn max_rho_restarts(mut self, n: u32) -> Self {
        self.max_rho_restarts = n;
        self
    }
}

/// A numerical failure the resilience ladder could not absorb.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Cholesky breakdown that survived the whole jitter ladder.
    Factorization(FactorBreakdown),
    /// A lambda whose iteration diverged and stayed diverged through
    /// every rho restart.
    Divergence {
        /// Index into the lambda path.
        lambda_idx: usize,
        /// Restarts that were attempted before giving up.
        restarts: u32,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Factorization(b) => write!(f, "factorisation breakdown: {b}"),
            SolverError::Divergence {
                lambda_idx,
                restarts,
            } => write!(
                f,
                "ADMM diverged at lambda index {lambda_idx} and did not recover \
                 after {restarts} rho restarts"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<FactorBreakdown> for SolverError {
    fn from(b: FactorBreakdown) -> Self {
        SolverError::Factorization(b)
    }
}

/// Per-path numerical-health ledger, folded upward by the pipeline
/// layers into the run-level report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathHealth {
    /// Jittered attempts the factor-health probe of `G + rho I` consumed.
    pub factor_attempts: u32,
    /// Diagonal jitter the probe consumed (0.0 = clean).
    pub factor_jitter: f64,
    /// Total rho-restart solves performed across the path.
    pub rho_restarts: u32,
    /// Lambda indices that diverged but recovered under a restarted rho.
    pub recovered: Vec<usize>,
    /// Lambda indices that stayed diverged through the restart budget;
    /// their solutions carry `converged = false` and a zero iterate.
    pub diverged: Vec<usize>,
}

impl PathHealth {
    /// True when the path needed no jitter, no restarts, and saw no
    /// divergence — the bit-identical clean path.
    pub fn is_clean(&self) -> bool {
        self.factor_attempts == 0
            && self.rho_restarts == 0
            && self.recovered.is_empty()
            && self.diverged.is_empty()
    }

    /// Error out if any lambda stayed diverged (strict callers).
    pub fn require_recovered(&self) -> Result<(), SolverError> {
        match self.diverged.first() {
            None => Ok(()),
            Some(&lambda_idx) => Err(SolverError::Divergence {
                lambda_idx,
                restarts: self.rho_restarts,
            }),
        }
    }
}

/// The penalties a diverged solve restarts under, in order: Boyd
/// residual balancing (§3.4.1). A dominant (or non-finite) primal
/// residual wants a larger rho, a dominant dual residual a smaller one;
/// non-finite *both* defaults to increase — the conservative direction
/// (larger rho = more SPD, more damping). Rung `k` of
/// `1..=max_restarts` is `rho * 10^k` when increasing, `rho / 10^k`
/// otherwise.
fn rho_restarts(rho: f64, failed: &AdmmSolution, max_restarts: u32) -> impl Iterator<Item = f64> {
    let (r, s) = (failed.primal_residual, failed.dual_residual);
    let increase = !s.is_finite() || !r.is_finite() || r >= s;
    (1..=max_restarts).map(move |rung| {
        let scale = 10f64.powi(rung as i32);
        if increase {
            rho * scale
        } else {
            rho / scale
        }
    })
}

/// The divergence tripwire: a non-finite residual, or either residual
/// above `cap`.
pub(crate) fn tripped(r_norm: f64, s_norm: f64, cap: f64) -> bool {
    !r_norm.is_finite() || !s_norm.is_finite() || r_norm > cap || s_norm > cap
}

/// The ρ-restart ladder of a guarded path. Every solution in `sols` that
/// tripped — not converged, with a residual over
/// [`ResilienceConfig::divergence_cap`] or non-finite — is re-solved by
/// `resolve(i, rho)` under the penalties of `rho_restarts`, in order,
/// `rho` being the rung's `AdmmConfig::rho`: the configured multiplier
/// `cfg_rho` times `10^±k`. `resolve` returns `None` when the rung's
/// system does not factor; the rung still counts against the budget.
///
/// The first re-solve that does not trip replaces the solution, and its
/// path index goes to [`PathHealth::recovered`]. A λ that exhausts
/// [`ResilienceConfig::max_rho_restarts`] gets a zero iterate with
/// `converged = false`, and its index goes to [`PathHealth::diverged`];
/// the pipeline layers feed those into the degraded-mode quorum
/// accounting. The health's factor fields are left to the caller.
pub fn restart_tripped(
    res: &ResilienceConfig,
    cfg_rho: f64,
    sols: &mut [AdmmSolution],
    mut resolve: impl FnMut(usize, f64) -> Option<AdmmSolution>,
) -> PathHealth {
    let trips = |s: &AdmmSolution| {
        !s.converged && tripped(s.primal_residual, s.dual_residual, res.divergence_cap)
    };
    let mut health = PathHealth::default();
    for (i, sol) in sols.iter_mut().enumerate() {
        if !trips(sol) {
            continue;
        }
        let mut recovered = false;
        for rho in rho_restarts(cfg_rho, sol, res.max_rho_restarts) {
            health.rho_restarts += 1;
            if let Some(redo) = resolve(i, rho).filter(|s| !trips(s)) {
                *sol = redo;
                recovered = true;
                break;
            }
        }
        if recovered {
            health.recovered.push(i);
        } else {
            sol.beta.iter_mut().for_each(|b| *b = 0.0);
            sol.converged = false;
            health.diverged.push(i);
        }
    }
    health
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admm::{AdmmConfig, LassoAdmm};
    use uoi_linalg::{gemv_t, syrk_t, testgen, Matrix};

    fn guarded(gram: Matrix, xty: &[f64], lambdas: &[f64]) -> (Vec<AdmmSolution>, PathHealth) {
        LassoAdmm::from_gram(gram, AdmmConfig::default())
            .solve_path_guarded(xty, lambdas, &ResilienceConfig::default())
            .expect("the Gram factors")
    }

    fn scripted(r: f64, s: f64, converged: bool) -> AdmmSolution {
        AdmmSolution {
            beta: vec![1.0, -2.0],
            iterations: 7,
            primal_residual: r,
            dual_residual: s,
            converged,
            curve: Vec::new(),
        }
    }

    /// The ladder on scripted re-solves: a primal-dominant (or
    /// non-finite) failure climbs `rho * 10^k`, a dual-dominant one
    /// descends `rho / 10^k`; the first rung that does not trip recovers
    /// the λ, a rung whose system does not factor still counts, and an
    /// exhausted λ keeps a zero, unconverged iterate.
    #[test]
    fn ladder_walks_the_rungs_then_recovers_or_zeroes() {
        let res = ResilienceConfig::default().divergence_cap(1e3);
        let mut sols = vec![
            scripted(1.0, 1.0, true),
            scripted(1e4, 1.0, false),
            scripted(1.0, 1e4, false),
            scripted(f64::NAN, f64::INFINITY, false),
            // Converged: large residuals alone are no trip.
            scripted(1e4, 1e4, true),
        ];
        let mut calls = Vec::new();
        let health = restart_tripped(&res, 2.0, &mut sols, |i, rho| {
            calls.push((i, rho));
            match (i, calls.iter().filter(|c| c.0 == i).count()) {
                (1, 1) => None,
                (1, 2) => Some(scripted(0.5, 0.25, true)),
                _ => Some(scripted(1e4, 1e4, false)),
            }
        });
        assert_eq!(
            calls,
            [
                (1, 20.0),
                (1, 200.0),
                (2, 0.2),
                (2, 0.02),
                (2, 0.002),
                (3, 20.0),
                (3, 200.0),
                (3, 2000.0),
            ]
        );
        assert_eq!(health.rho_restarts, 8);
        assert_eq!(health.recovered, [1]);
        assert_eq!(health.diverged, [2, 3]);
        assert!(sols[1].converged && sols[1].primal_residual == 0.5);
        for s in &sols[2..4] {
            assert!(!s.converged && s.beta.iter().all(|&b| b == 0.0));
        }
        assert_eq!(sols[0].beta, [1.0, -2.0]);
        assert_eq!(sols[4].beta, [1.0, -2.0]);
    }

    #[test]
    fn clean_path_bit_identical_to_unguarded() {
        let x = testgen::random_design(3, 40, 8);
        let y = testgen::matched_response(3, &x);
        let gram = syrk_t(&x);
        let xty = gemv_t(&x, &y);
        let lambdas = [0.5, 0.2, 0.05, 0.01];

        let base = LassoAdmm::from_gram(gram.clone(), AdmmConfig::default())
            .solve_path_with_rhs(&xty, &lambdas);
        let (sols, health) = guarded(gram, &xty, &lambdas);

        assert!(health.is_clean(), "clean input must not trip: {health:?}");
        for (a, b) in base.iter().zip(&sols) {
            assert_eq!(a.iterations, b.iterations);
            for (x, y) in a.beta.iter().zip(&b.beta) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn singular_gram_factors_with_jitter_and_solves() {
        // Exactly singular Gram (duplicated columns, p close to n).
        let x = testgen::duplicated_columns_design(7, 12, 8, 3);
        let y = testgen::matched_response(7, &x);
        // Note: the effective-rho ridge usually rescues singular Grams
        // on its own; jitter fires only when even the ridge is not
        // enough, so attempts may legitimately be zero here.
        let (sols, health) = guarded(syrk_t(&x), &gemv_t(&x, &y), &[0.3, 0.1, 0.03]);
        assert!(health.diverged.is_empty());
        for s in &sols {
            assert!(s.beta.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn recovery_is_deterministic() {
        let x = testgen::scale_disparity_design(5, 24, 8, 1e12);
        let y = testgen::matched_response(5, &x);
        let gram = syrk_t(&x);
        let xty = gemv_t(&x, &y);
        let run = |gram: Matrix| guarded(gram, &xty, &[1e8, 1e4, 1.0]);
        let (a, ha) = run(gram.clone());
        let (b, hb) = run(gram);
        assert_eq!(ha, hb);
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.converged, sb.converged);
            for (x, y) in sa.beta.iter().zip(&sb.beta) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// A cap the base penalty's first iterations exceed trips every λ;
    /// each recovers on a restarted penalty, at the same solution.
    #[test]
    fn tripped_lambdas_restart_and_recover() {
        let x = testgen::random_design(3, 40, 8);
        let y = testgen::matched_response(3, &x);
        let xty = gemv_t(&x, &y);
        let lambdas = [0.5, 0.2, 0.05];
        let solver = LassoAdmm::from_gram(syrk_t(&x), AdmmConfig::default());
        let base = solver.solve_path_with_rhs(&xty, &lambdas);
        let res = ResilienceConfig::default().divergence_cap(10.0);
        let (sols, health) = solver.solve_path_guarded(&xty, &lambdas, &res).unwrap();
        assert!(health.rho_restarts > 0, "{health:?}");
        assert_eq!(health.recovered, [0, 1, 2]);
        assert!(health.diverged.is_empty());
        for (a, b) in base.iter().zip(&sols) {
            assert!(b.converged);
            for (u, v) in a.beta.iter().zip(&b.beta) {
                assert!((u - v).abs() < 1e-6, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn path_health_require_recovered() {
        let mut h = PathHealth::default();
        assert!(h.require_recovered().is_ok());
        h.diverged.push(2);
        h.rho_restarts = 3;
        assert_eq!(
            h.require_recovered(),
            Err(SolverError::Divergence {
                lambda_idx: 2,
                restarts: 3
            })
        );
    }
}

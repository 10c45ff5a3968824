//! Divergence recovery and factorisation-health plumbing for the ADMM
//! solver stack.
//!
//! The serial/distributed solvers defend *factorisation* breakdown with
//! the deterministic jitter ladder in `uoi_linalg::resilience`; this
//! module adds the *iteration*-level defenses:
//!
//! * [`FactorHealth`] — how much jitter a constructor had to consume,
//!   plus an optional Hager 1-norm condition estimate of the factored
//!   system;
//! * [`ResilienceConfig`] — the divergence cap and the bounded
//!   rho-restart budget;
//! * [`ResilientLasso`] — a wrapper around [`LassoAdmm`] that keeps the
//!   pristine (un-ridged) Gram so diverged lambdas can be re-solved under
//!   an escalated/relaxed penalty (Boyd residual balancing, §3.4.1),
//!   bounded and deterministic;
//! * [`PathHealth`] — the per-path ledger (jitter attempts, restarts,
//!   recovered and dropped lambdas) the pipeline layers fold into the
//!   run-level `NumericalHealthReport`.
//!
//! The clean path is sacred: when nothing trips, every coefficient is
//! bit-identical to the unguarded solver, and the guard itself adds no
//! allocations to the inner loop (a pair of comparisons per iteration).

use crate::admm::{effective_rho, AdmmConfig, AdmmSolution, LassoAdmm};
use std::collections::BTreeMap;
use uoi_linalg::{
    condest_1norm, factor_upper_jittered, sym_norm1_upper, FactorBreakdown, JitterLadder, Matrix,
};

/// Default bound on rho restarts per diverged lambda.
pub const DEFAULT_MAX_RHO_RESTARTS: u32 = 3;
/// Default residual cap for the divergence tripwire. Large enough that
/// no legitimate iterate ever approaches it (residuals of converging
/// ADMM runs are bounded by problem scale), small enough to abort well
/// before the iterates overflow to infinity.
pub const DEFAULT_DIVERGENCE_CAP: f64 = 1.0e150;

/// How a solver's factorisation went: jitter attempts consumed by the
/// escalation ladder (0 = clean plain factorisation, bit-identical to
/// the historical behaviour) and, when requested, a cheap 1-norm
/// condition estimate of the system actually factored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorHealth {
    /// Jittered attempts consumed; 0 means the plain factorisation
    /// succeeded.
    pub attempts: u32,
    /// Diagonal jitter that was added; 0.0 on the clean path.
    pub jitter: f64,
    /// Hager 1-norm condition estimate of the (ridged) system, when
    /// estimation was enabled.
    pub condest: Option<f64>,
}

impl FactorHealth {
    /// A clean factorisation: no jitter, no estimate.
    pub fn clean() -> Self {
        Self {
            attempts: 0,
            jitter: 0.0,
            condest: None,
        }
    }
}

/// Numerical-resilience policy knobs. The defaults arm the tripwire and
/// a small restart budget; condition estimation is off (it costs a few
/// O(p²) solves per factorisation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Residual cap for the divergence tripwire.
    pub divergence_cap: f64,
    /// Bounded rho-restart budget per diverged lambda.
    pub max_rho_restarts: u32,
    /// Compute a Hager 1-norm condition estimate at construction.
    pub estimate_condition: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            divergence_cap: DEFAULT_DIVERGENCE_CAP,
            max_rho_restarts: DEFAULT_MAX_RHO_RESTARTS,
            estimate_condition: false,
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

    pub fn estimate_condition(mut self, on: bool) -> Self {
        self.estimate_condition = on;
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
    /// Jittered factorisation attempts consumed at construction.
    pub factor_attempts: u32,
    /// Diagonal jitter consumed at construction (0.0 = clean).
    pub factor_jitter: f64,
    /// Condition estimate of the factored system, when enabled.
    pub condest: Option<f64>,
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
pub fn rho_restarts(
    rho: f64,
    failed: &AdmmSolution,
    max_restarts: u32,
) -> impl Iterator<Item = f64> {
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

/// A Gram-backed LASSO-ADMM solver with the full numerical-resilience
/// ladder: jitter-defended factorisation, per-solve divergence
/// tripwires, and bounded rho restarts for diverged lambdas.
///
/// Factors the full system eagerly, so breakdown and conditioning are
/// known (and reported) at construction; clean paths then run the same
/// screened Sequential solves as [`LassoAdmm`]. The wrapped solver keeps
/// the pristine (un-ridged) Gram, so restart factors can be rebuilt
/// under an escalated or relaxed penalty without access to the design.
pub struct ResilientLasso {
    /// The wrapped solver; it keeps the un-ridged Gram, which restart
    /// refactorisations read.
    inner: LassoAdmm,
    cfg: AdmmConfig,
    res: ResilienceConfig,
    factor_health: FactorHealth,
    /// Base effective penalty (`effective_rho` of the pristine Gram).
    base_rho: f64,
    /// Restart solvers, keyed by the bits of their penalty; rebuilt
    /// factors are cached so many diverged lambdas share one
    /// refactorisation.
    restarts: BTreeMap<u64, LassoAdmm>,
}

impl ResilientLasso {
    /// Build from a precomputed Gram (consumed). Equivalent to
    /// [`LassoAdmm::from_gram`] on the clean path: same penalty, same
    /// factorisations, same bits.
    pub fn from_gram(
        gram: Matrix,
        cfg: AdmmConfig,
        res: ResilienceConfig,
    ) -> Result<Self, SolverError> {
        assert!(cfg.rho > 0.0, "rho must be positive");
        let p = gram.rows();
        assert_eq!(p, gram.cols(), "from_gram: Gram matrix must be square");
        let diag_sum: f64 = (0..p).map(|i| gram[(i, i)]).sum();
        let base_rho = effective_rho(cfg.rho, diag_sum, p);
        let mut ridged = gram.clone();
        for i in 0..p {
            ridged[(i, i)] += base_rho;
        }
        let ladder = JitterLadder::for_matrix(&ridged);
        let jf = factor_upper_jittered(&ridged, &ladder)?;
        let condest = if res.estimate_condition {
            // The norm of the un-jittered ridged system; for jittered
            // factors the estimate is within O(jitter/trace) of exact.
            Some(condest_1norm(&jf.chol, sym_norm1_upper(&ridged)))
        } else {
            None
        };
        let factor_health = FactorHealth {
            attempts: jf.attempts,
            jitter: jf.jitter,
            condest,
        };
        let inner = LassoAdmm::from_factor(gram, jf.chol, cfg.clone(), base_rho);
        Ok(Self {
            inner,
            cfg,
            res,
            factor_health,
            base_rho,
            restarts: BTreeMap::new(),
        })
    }

    /// The wrapped solver (for unguarded entry points and metrics).
    pub fn inner(&self) -> &LassoAdmm {
        &self.inner
    }

    /// Attach a metrics registry to the wrapped solver (chainable).
    /// Restart solvers are cold re-solves outside the warm-start
    /// accounting, so they deliberately stay unregistered.
    pub fn with_metrics(mut self, metrics: std::sync::Arc<uoi_telemetry::MetricsRegistry>) -> Self {
        self.inner = self.inner.with_metrics(metrics);
        self
    }

    /// How the construction-time factorisation went.
    pub fn factor_health(&self) -> FactorHealth {
        self.factor_health
    }

    /// The effective (data-scaled) base penalty in force.
    pub fn penalty(&self) -> f64 {
        self.base_rho
    }

    /// Number of coefficients.
    pub fn n_coefficients(&self) -> usize {
        self.inner.n_coefficients()
    }

    /// Fetch (building and caching on first use) the restart solver at
    /// penalty `rho`. Returns `None` when even the jitter ladder cannot
    /// factor the restarted system.
    fn restart_solver(&mut self, rho: f64) -> Option<&LassoAdmm> {
        if !self.restarts.contains_key(&rho.to_bits()) {
            let gram = self.inner.gram().clone();
            let mut ridged = gram.clone();
            for i in 0..ridged.rows() {
                ridged[(i, i)] += rho;
            }
            let ladder = JitterLadder::for_matrix(&ridged);
            let jf = factor_upper_jittered(&ridged, &ladder).ok()?;
            let solver = LassoAdmm::from_factor(gram, jf.chol, self.cfg.clone(), rho);
            self.restarts.insert(rho.to_bits(), solver);
        }
        self.restarts.get(&rho.to_bits())
    }

    /// Re-solve one diverged lambda cold under restarted penalties.
    /// Returns the recovered solution and the restarts consumed, or
    /// `None` with the count if the budget is exhausted.
    fn recover_lambda(
        &mut self,
        xty: &[f64],
        lambda: f64,
        failed: &AdmmSolution,
    ) -> (Option<AdmmSolution>, u32) {
        let mut used = 0u32;
        let cap = self.res.divergence_cap;
        for rho in rho_restarts(self.base_rho, failed, self.res.max_rho_restarts) {
            used += 1;
            let Some(solver) = self.restart_solver(rho) else {
                continue;
            };
            let p = solver.n_coefficients();
            let mut z = vec![0.0; p];
            let mut u = vec![0.0; p];
            let mut ws = solver.workspace();
            let (st, tripped) =
                solver.solve_warm_with_guard(xty, lambda, &mut z, &mut u, &mut ws, cap);
            if !tripped {
                return (
                    Some(AdmmSolution {
                        beta: z,
                        iterations: st.iterations,
                        primal_residual: st.primal_residual,
                        dual_residual: st.dual_residual,
                        converged: st.converged,
                        curve: Vec::new(),
                    }),
                    used,
                );
            }
        }
        (None, used)
    }

    /// Solve a lambda path with the tripwire armed and bounded rho
    /// restarts on divergence. Clean paths are bit-identical to
    /// [`LassoAdmm::solve_path_with_rhs`].
    ///
    /// Diverged-and-recovered lambdas come back with the recovered
    /// (restarted-rho) solution and their index in
    /// [`PathHealth::recovered`]; lambdas that exhaust the restart
    /// budget come back with a zero iterate, `converged = false`, and
    /// their index in [`PathHealth::diverged`] — the pipeline layers
    /// feed those into the degraded-mode quorum accounting.
    pub fn solve_path_with_rhs(
        &mut self,
        xty: &[f64],
        lambdas: &[f64],
    ) -> (Vec<AdmmSolution>, PathHealth) {
        let (mut out, tripped) =
            self.inner
                .solve_path_guarded_with_rhs(xty, lambdas, self.res.divergence_cap);
        let mut health = PathHealth {
            factor_attempts: self.factor_health.attempts,
            factor_jitter: self.factor_health.jitter,
            condest: self.factor_health.condest,
            ..PathHealth::default()
        };
        for idx in tripped {
            let (recovered, used) = self.recover_lambda(xty, lambdas[idx], &out[idx]);
            health.rho_restarts += used;
            match recovered {
                Some(sol) => {
                    out[idx] = sol;
                    health.recovered.push(idx);
                }
                None => {
                    // Exhausted: surface a defined (zero) iterate rather
                    // than diverged garbage.
                    let p = self.inner.n_coefficients();
                    out[idx].beta = vec![0.0; p];
                    out[idx].converged = false;
                    health.diverged.push(idx);
                }
            }
        }
        (out, health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uoi_linalg::{gemv_t, syrk_t, testgen};

    fn admm_cfg() -> AdmmConfig {
        AdmmConfig::default()
    }

    #[test]
    fn clean_path_bit_identical_to_unguarded() {
        let x = testgen::random_design(3, 40, 8);
        let y = testgen::matched_response(3, &x);
        let gram = syrk_t(&x);
        let xty = gemv_t(&x, &y);
        let lambdas = [0.5, 0.2, 0.05, 0.01];

        let plain = LassoAdmm::from_gram(gram.clone(), admm_cfg());
        let base = plain.solve_path_with_rhs(&xty, &lambdas);

        let mut resilient =
            ResilientLasso::from_gram(gram, admm_cfg(), ResilienceConfig::default()).unwrap();
        let (sols, health) = resilient.solve_path_with_rhs(&xty, &lambdas);

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
        let gram = syrk_t(&x);
        let xty = gemv_t(&x, &y);

        let mut solver =
            ResilientLasso::from_gram(gram, admm_cfg(), ResilienceConfig::default()).unwrap();
        // Note: the effective-rho ridge usually rescues singular Grams
        // on its own; jitter fires only when even the ridge is not
        // enough, so attempts may legitimately be zero here.
        let (sols, health) = resilient_finite(&mut solver, &xty);
        assert!(health.diverged.is_empty());
        for s in &sols {
            assert!(s.beta.iter().all(|v| v.is_finite()));
        }
    }

    fn resilient_finite(
        solver: &mut ResilientLasso,
        xty: &[f64],
    ) -> (Vec<AdmmSolution>, PathHealth) {
        solver.solve_path_with_rhs(xty, &[0.3, 0.1, 0.03])
    }

    #[test]
    fn condition_estimate_reported_when_enabled() {
        let x = testgen::random_design(11, 30, 6);
        let gram = syrk_t(&x);
        let res = ResilienceConfig::default().estimate_condition(true);
        let solver = ResilientLasso::from_gram(gram, admm_cfg(), res).unwrap();
        let est = solver.factor_health().condest.expect("condest requested");
        assert!(est.is_finite() && est >= 1.0, "condest = {est}");
    }

    #[test]
    fn recovery_is_deterministic() {
        let x = testgen::scale_disparity_design(5, 24, 8, 1e12);
        let y = testgen::matched_response(5, &x);
        let gram = syrk_t(&x);
        let xty = gemv_t(&x, &y);
        let run = |gram: Matrix| {
            let mut s =
                ResilientLasso::from_gram(gram, admm_cfg(), ResilienceConfig::default()).unwrap();
            s.solve_path_with_rhs(&xty, &[1e8, 1e4, 1.0])
        };
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

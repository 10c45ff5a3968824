//! Serial LASSO via the Alternating Direction Method of Multipliers
//! (Boyd et al. 2011, §6.4) — the `Solve` step of the UoI Map-Solve-Reduce
//! structure (paper §II-C, eq. 5).
//!
//! Minimises `1/2 ||y - X b||^2 + lambda ||b||_1` by splitting
//! `f(x) = 1/2 ||y - X x||^2`, `g(z) = lambda ||z||_1`, `x - z = 0`:
//!
//! ```text
//! x^{k+1} = (X^T X + rho I)^{-1} (X^T y + rho (z^k - u^k))
//! z^{k+1} = S_{lambda/rho}(x^{k+1} + u^k)
//! u^{k+1} = u^k + x^{k+1} - z^{k+1}
//! ```
//!
//! Every solve runs on a λ path (largest λ first, each warm-started from
//! the previous solution), and every λ is *screened*: it solves the
//! problem restricted to a sequential-strong-rule active set (Tibshirani
//! et al. 2012) against a Cholesky factor of the `|S| x |S|` sub-system
//! `G_SS + rho I`, with a KKT check over the remaining features
//! re-admitting any violator, so the result is the full problem's
//! solution at the solver's tolerance while each iteration costs
//! `O(|S|^2)` instead of `O(p^2)`. The factor is carried across λs and
//! updated as `S` changes. Setting `lambda = 0` turns the z-update into
//! the identity and the iteration converges to OLS (paper §II-C). See
//! [`LassoAdmm::begin_lambda`] and DESIGN.md §3.
//!
//! The solver has one unguarded path ([`LassoAdmm::solve_path_with_rhs`]),
//! one guarded path ([`LassoAdmm::solve_path_guarded`]: a factor-health
//! probe, a divergence tripwire and bounded ρ restarts, see
//! [`crate::resilience`]) and the lockstep API ([`LassoAdmm::init_state`],
//! [`LassoAdmm::begin_lambda`], [`LassoAdmm::step`],
//! [`LassoAdmm::step_many`]) that the distributed `UoI_VAR` fit drives
//! column by column.
//!
//! Each screened λ ends with a *polish* (OSQP's solution polishing,
//! Stellato et al. 2020): once the iterate's sign pattern settles, the
//! reduced system `G_AA β_A = c_A - λ s` on its support `A` and signs `s`
//! is solved exactly, and the result is accepted iff its signs are `s`
//! and `|c_j - G_jA β_A| <= λ` for every `j` off `A`. An accepted `β`
//! meets the LASSO KKT conditions to round-off and ends the λ; a rejected
//! one leaves the ADMM iterate to run on. See [`LassoAdmm::step`].

use crate::resilience::{
    restart_tripped, tripped, FactorHealth, PathHealth, ResilienceConfig, SolverError,
};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use uoi_linalg::{
    factor_upper_jittered, gemv_t_into, kernels, norm2, norm2_diff, norm2_scaled,
    norm2_scaled_diff, norm_inf, Cholesky, FactorBreakdown, JitterLadder, Matrix, PackedCholesky,
};
use uoi_telemetry::MetricsRegistry;

/// Identifies the Sequential lambda-path algorithm — strong-rule
/// screened active-set solves with KKT re-entry, each λ ended by a
/// sign-pattern polish — for checkpoint fingerprints and run reports:
/// results from another path algorithm must not mix with this one's.
pub const PATH_VARIANT: &str = "strong-rule-active-set-polish-v3";

/// A configuration value failed validation (builder `build()` or a
/// `validate()` call). Carries a human-readable description of the
/// offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(pub String);

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for InvalidConfig {}

/// ADMM hyperparameters.
#[derive(Debug, Clone)]
pub struct AdmmConfig {
    /// Augmented-Lagrangian penalty multiplier. The penalty actually
    /// used by a solve is `rho` times the mean diagonal of the Gram
    /// matrix (clamped to at least 1), so `rho` is dimensionless and the
    /// default of 1 is well-conditioned for unnormalised designs whose
    /// Gram diagonal grows like `n * var`.
    pub rho: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Absolute tolerance (Boyd eq. 3.12 scaling).
    pub abstol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// In-rank worker count assumed by lockstep multi-column stepping:
    /// the distributed `UoI_VAR` fit charges `ceil(active / threads)`
    /// iterations per round ([`lockstep_round_charges`]), and
    /// [`LassoAdmm::step_many`] splits its columns this many ways. `1`
    /// (the default) charges one iteration per column. Numerical results
    /// never depend on this value — per-column arithmetic and reduction
    /// order are fixed regardless of `threads`.
    pub threads: usize,
    /// Record the per-iteration primal-residual curve of each solve
    /// and return it (decimated to [`CURVE_MAX_POINTS`] samples) in
    /// [`AdmmSolution::curve`]. Off by default: capture is the only
    /// part of the solve that allocates per iteration, and the
    /// telemetry layer enables it only when a trace sink is installed.
    /// Never affects iterates or convergence decisions.
    pub capture_curve: bool,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        Self {
            rho: 1.0,
            max_iter: 500,
            abstol: 1e-6,
            reltol: 1e-5,
            threads: 1,
            capture_curve: false,
        }
    }
}

impl AdmmConfig {
    /// Start a validated builder:
    /// `AdmmConfig::builder().rho(2.0).max_iter(1000).build()?`.
    pub fn builder() -> AdmmConfigBuilder {
        AdmmConfigBuilder::default()
    }

    /// Check every field; `Err` names the first offending one.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        if !(self.rho.is_finite() && self.rho > 0.0) {
            return Err(InvalidConfig(format!(
                "rho must be finite and > 0, got {}",
                self.rho
            )));
        }
        if self.max_iter == 0 {
            return Err(InvalidConfig("max_iter must be >= 1".to_string()));
        }
        if !(self.abstol.is_finite() && self.abstol > 0.0) {
            return Err(InvalidConfig(format!(
                "abstol must be finite and > 0, got {}",
                self.abstol
            )));
        }
        if !(self.reltol.is_finite() && self.reltol > 0.0) {
            return Err(InvalidConfig(format!(
                "reltol must be finite and > 0, got {}",
                self.reltol
            )));
        }
        if self.threads == 0 {
            return Err(InvalidConfig("threads must be >= 1".to_string()));
        }
        Ok(())
    }

    /// Worker count from the `UOI_THREADS` environment variable, falling
    /// back to `default` when unset, unparsable, or zero.
    pub fn env_threads(default: usize) -> usize {
        std::env::var("UOI_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(default)
    }
}

/// Chainable builder for [`AdmmConfig`]; `build()` validates.
#[derive(Debug, Clone, Default)]
pub struct AdmmConfigBuilder {
    cfg: AdmmConfig,
}

impl AdmmConfigBuilder {
    pub fn rho(mut self, rho: f64) -> Self {
        self.cfg.rho = rho;
        self
    }

    pub fn max_iter(mut self, max_iter: usize) -> Self {
        self.cfg.max_iter = max_iter;
        self
    }

    pub fn abstol(mut self, abstol: f64) -> Self {
        self.cfg.abstol = abstol;
        self
    }

    pub fn reltol(mut self, reltol: f64) -> Self {
        self.cfg.reltol = reltol;
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    pub fn capture_curve(mut self, capture: bool) -> Self {
        self.cfg.capture_curve = capture;
        self
    }

    pub fn build(self) -> Result<AdmmConfig, InvalidConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Outcome of an ADMM solve.
#[derive(Debug, Clone)]
pub struct AdmmSolution {
    /// The (exactly sparse) consensus iterate `z`.
    pub beta: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final primal residual `||x - z||`.
    pub primal_residual: f64,
    /// Final dual residual `||rho (z - z_prev)||`.
    pub dual_residual: f64,
    /// Whether both residuals met tolerance before the cap.
    pub converged: bool,
    /// Per-iteration primal residuals, decimated to at most
    /// [`CURVE_MAX_POINTS`] samples. Empty unless
    /// [`AdmmConfig::capture_curve`] was set.
    pub curve: Vec<f64>,
}

/// Residual curves returned in [`AdmmSolution::curve`] are decimated
/// to at most this many samples (endpoints kept exactly).
pub const CURVE_MAX_POINTS: usize = 32;

/// Decimate a residual curve to at most `max_points` samples by even
/// index striding; the first and last samples are always kept, so the
/// starting residual and the converged residual survive verbatim.
pub fn decimate_curve(curve: &[f64], max_points: usize) -> Vec<f64> {
    let max_points = max_points.max(2);
    if curve.len() <= max_points {
        return curve.to_vec();
    }
    let n = curve.len();
    (0..max_points)
        .map(|i| curve[i * (n - 1) / (max_points - 1)])
        .collect()
}

pub(crate) enum Factorization {
    /// `p <= n`: Cholesky of `X^T X + rho I` (p x p).
    Primal(Cholesky),
    /// `p > n`: Cholesky of `rho I + X X^T` (n x n), applied via
    /// `(X^T X + rho I)^{-1} v = v/rho - X^T ( (rho I + X X^T)^{-1} X v ) / rho`.
    Woodbury(Cholesky),
}

/// The effective ADMM penalty for a problem whose Gram diagonal sums to
/// `diag_sum` over `p` coefficients. The configured `rho` acts as a
/// dimensionless multiplier of the mean Gram diagonal (clamped to at
/// least 1), so the splitting is matched to the data's scale: an
/// unnormalised design with Gram diagonal ~ `n * var` converges in the
/// same iteration count as a standardised one, instead of stalling
/// against the iteration cap with an absolute `rho` that is orders of
/// magnitude off.
pub(crate) fn effective_rho(cfg_rho: f64, diag_sum: f64, p: usize) -> f64 {
    if p == 0 {
        return cfg_rho;
    }
    cfg_rho * (diag_sum / p as f64).max(1.0)
}

/// Factor the ADMM x-update system `X^T X + rho I` for a dense design
/// (Woodbury form when `p > n`). Breakdown (a rank-deficient system that
/// even the `rho` ridge leaves numerically non-SPD) walks the
/// deterministic jitter ladder — the plain factorisation is attempted
/// first, so clean inputs are bit-identical to the pre-ladder behaviour —
/// and the consumed attempts/jitter are reported alongside the factor.
pub(crate) fn try_factorize(
    x: &Matrix,
    rho: f64,
) -> Result<(Factorization, FactorHealth), FactorBreakdown> {
    let (n, p) = x.shape();
    if p <= n {
        // Upper-stored Gram straight from the batched engine; the mirror
        // pass is skipped because the factorisation reads only the upper
        // triangle.
        let gram = uoi_linalg::syrk_t_upper(x).into_upper();
        let (chol, health) = factor_ridged(gram, rho)?;
        Ok((Factorization::Primal(chol), health))
    } else {
        let small = uoi_linalg::syrk_t_upper(&x.transpose()).into_upper();
        let (chol, health) = factor_ridged(small, rho)?;
        Ok((Factorization::Woodbury(chol), health))
    }
}

/// Factor `gram + rho I` (upper triangle read) through the deterministic
/// jitter ladder; the ridge goes onto the consumed `gram`.
pub(crate) fn factor_ridged(
    mut gram: Matrix,
    rho: f64,
) -> Result<(Cholesky, FactorHealth), FactorBreakdown> {
    for i in 0..gram.rows() {
        gram[(i, i)] += rho;
    }
    factor_jittered(&gram)
}

/// [`factor_ridged`] for a Gram the caller keeps: the ridge goes onto the
/// diagonal in place for the factorisation and the saved diagonal is
/// written back, so the Gram stays pristine without a copy.
pub(crate) fn factor_ridged_pristine(
    gram: &mut Matrix,
    rho: f64,
) -> Result<(Cholesky, FactorHealth), FactorBreakdown> {
    let diag: Vec<f64> = (0..gram.rows()).map(|i| gram[(i, i)]).collect();
    for (i, d) in diag.iter().enumerate() {
        gram[(i, i)] = d + rho;
    }
    let factored = factor_jittered(gram);
    for (i, d) in diag.into_iter().enumerate() {
        gram[(i, i)] = d;
    }
    factored
}

/// Factor an already-ridged upper-stored system through the jitter ladder.
fn factor_jittered(ridged: &Matrix) -> Result<(Cholesky, FactorHealth), FactorBreakdown> {
    let ladder = JitterLadder::for_matrix(ridged);
    let jf = factor_upper_jittered(ridged, &ladder)?;
    Ok((
        jf.chol,
        FactorHealth {
            attempts: jf.attempts,
            jitter: jf.jitter,
        },
    ))
}

/// Scratch buffers of a state's iterations: once warm, an iteration
/// performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdmmWorkspace {
    /// Primal iterate `x` over the active set.
    x_var: Vec<f64>,
    /// Previous consensus iterate, for the dual residual.
    z_old: Vec<f64>,
    /// Wide-design gradient scratch: `X z` (n).
    wn: Vec<f64>,
    /// Wide-design gradient scratch: `X^T (X z)` (p).
    wt: Vec<f64>,
    /// z-update argument `x + u`, fed to the vectorised prox.
    xu: Vec<f64>,
    /// Per-iteration primal residuals of the in-flight solve; only
    /// pushed to when [`AdmmConfig::capture_curve`] is set.
    curve: Vec<f64>,
}

/// Per-problem state of a screened Sequential λ path, advanced by
/// [`LassoAdmm::begin_lambda`] (the per-λ transition) and
/// [`LassoAdmm::step`] / [`LassoAdmm::step_many`] (one iteration each).
///
/// The ADMM iterates live on the strong-rule active set `S` as compact
/// `|S|`-vectors against a factor of `G_SS + rho I`; `z` mirrors them in
/// full `p` coordinates (zero off `S`) after every step. All buffers —
/// index sets, compact iterates, gradient, sub-factor — are reused, so
/// once warm a path performs no heap allocation. A state belongs to the
/// solver that created it ([`LassoAdmm::init_state`]). The consensus
/// solver keeps one per rank and runs the same transition on the
/// allreduced gradient (`DistLassoAdmm::solve_path_with_rhs`).
#[derive(Debug, Clone)]
pub struct AdmmState {
    /// Consensus iterate over all `p` coefficients (the sparse solution
    /// once converged); zero off the active set.
    pub z: Vec<f64>,
    /// Set once the active-set solve met tolerance and the KKT check
    /// found no violator, or a polish was accepted; further steps at the
    /// same λ are no-ops.
    pub converged: bool,
    /// Whether the current λ ended on an accepted polish, so that `z`
    /// meets the KKT conditions to round-off (see [`LassoAdmm::step`]).
    pub polished: bool,
    /// Iterations taken at the current λ, KKT re-solves included.
    pub iterations: usize,
    /// Latest primal residual.
    pub primal_residual: f64,
    /// Latest dual residual.
    pub dual_residual: f64,
    /// The λ the in-flight solve targets; NaN before the first transition.
    lambda: f64,
    /// `X^T y - G z`, valid for the current `z` when `grad_fresh`.
    grad: Vec<f64>,
    grad_fresh: bool,
    /// The active set `S` in admission order — survivors of the previous
    /// λ keep their places and newcomers are appended, so the factor
    /// below is updated rather than rebuilt; index order once `S` holds
    /// every feature — and its membership mask.
    active: Vec<usize>,
    in_active: Vec<bool>,
    /// Compact iterates `z_S` and scaled dual `u_S`.
    zs: Vec<f64>,
    us: Vec<f64>,
    /// Cholesky factor of `G_SS + rho I`, the set its rows stand for (in
    /// row order), and whether it carries a jitter-ladder shift, which
    /// an incremental update would not reproduce for new rows.
    factor: PackedCholesky,
    factored: Vec<usize>,
    factor_has_jitter: bool,
    /// Modeled flops of the sub-factorisations and polish attempts
    /// performed since the last [`AdmmState::take_factor_flops`].
    factor_flops: f64,
    /// The sign pattern over `S` whose polish was last rejected at this λ
    /// and `S` (valid while `has_rejected`): the same pattern would give
    /// the same system, so it is not tried again.
    rejected: Vec<i8>,
    has_rejected: bool,
    /// Scratch reused across steps so stepping never allocates.
    scratch: AdmmWorkspace,
}

impl AdmmState {
    /// A fresh state over `p` coefficients, starting from `z = 0`.
    pub(crate) fn new(p: usize) -> Self {
        AdmmState {
            z: vec![0.0; p],
            converged: false,
            polished: false,
            iterations: 0,
            primal_residual: f64::INFINITY,
            dual_residual: f64::INFINITY,
            lambda: f64::NAN,
            grad: vec![0.0; p],
            grad_fresh: false,
            active: Vec::with_capacity(p),
            in_active: vec![false; p],
            zs: Vec::with_capacity(p),
            us: Vec::with_capacity(p),
            factor: PackedCholesky::new(),
            factored: Vec::with_capacity(p),
            factor_has_jitter: false,
            factor_flops: 0.0,
            rejected: Vec::with_capacity(p),
            has_rejected: false,
            scratch: AdmmWorkspace::default(),
        }
    }

    /// Size of the active set the in-flight solve iterates on.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// The active set the in-flight solve iterates on, in admission
    /// order (index order when it holds every feature).
    pub fn active_set(&self) -> &[usize] {
        &self.active
    }

    /// Flops of the active-set factor updates and polish attempts since
    /// the last call (the rows factored, the deletions and the entries
    /// gathered by the active-set factor updates, plus the rows of
    /// each polish's factor, its `G_AA` gather and its serial KKT
    /// gradient), for virtual-time charging.
    pub fn take_factor_flops(&mut self) -> f64 {
        std::mem::take(&mut self.factor_flops)
    }

    /// The λ of the previous transition; `None` on a fresh state, where
    /// the strong rule takes `λ_prev = ||X^T y||_inf`, the gradient's
    /// ∞-norm at `z = 0`.
    pub(crate) fn previous_lambda(&self) -> Option<f64> {
        (!self.lambda.is_nan()).then_some(self.lambda)
    }

    /// The gradient the rule and the KKT check read, and whether it is
    /// still valid for `z` (no step has moved `z` since its refresh).
    pub(crate) fn gradient(&self) -> (&[f64], bool) {
        (&self.grad, self.grad_fresh)
    }

    /// The x-update right-hand side of the active-set sub-problem,
    /// `xty_S + rho (z_S - u_S)`, into `out`.
    pub(crate) fn active_rhs(&self, xty: &[f64], rho: f64, out: &mut Vec<f64>) {
        gather_active_rhs(&self.active, xty, &self.zs, &self.us, rho, out);
    }

    /// Apply `(G_SS + rho I)^{-1}` to `v` in place through the active-set
    /// factor.
    pub(crate) fn solve_active(&self, v: &mut [f64]) {
        self.factor.solve_in_place(v);
    }

    /// The compact iterates `(z_S, u_S)` for a step's z/u-updates, which
    /// [`AdmmState::commit_step`] then publishes.
    pub(crate) fn compact_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.zs, &mut self.us)
    }

    /// Record a finished iteration: `z_S` is scattered into `z` (so the
    /// gradient goes stale) and the iteration's residuals are kept.
    pub(crate) fn commit_step(&mut self, r_norm: f64, s_norm: f64) {
        for (&j, &v) in self.active.iter().zip(&self.zs) {
            self.z[j] = v;
        }
        self.grad_fresh = false;
        self.iterations += 1;
        self.primal_residual = r_norm;
        self.dual_residual = s_norm;
    }

    /// The rule half of the per-λ transition, on the gradient in `grad`
    /// (fresh for `z`; the allreduced one in a consensus solve, so every
    /// rank selects the same set):
    /// `S = supp(z) ∪ { j : |c_j| >= 2 λ - λ_prev }`, in admission
    /// order: members of the previous `S` that stay keep their order and
    /// newcomers follow in index order. Gathers `z_S`, zeroes `u_S` and
    /// resets the per-λ counters; the caller factors `G_SS + rho I`
    /// ([`AdmmState::factor_active`]).
    pub(crate) fn screen(&mut self, lambda: f64, prev: f64) {
        let cut = 2.0 * lambda - prev;
        let AdmmState {
            z,
            grad,
            active,
            in_active,
            zs,
            us,
            ..
        } = self;
        // Non-finite gradients are kept, so corrupted inputs still reach
        // the iteration and its divergence tripwire.
        let keep = |j: usize| z[j] != 0.0 || grad[j].is_nan() || grad[j].abs() >= cut;
        active.retain(|&j| {
            in_active[j] = keep(j);
            in_active[j]
        });
        for (j, member) in in_active.iter_mut().enumerate() {
            if !*member && keep(j) {
                *member = true;
                active.push(j);
            }
        }
        if active.len() == in_active.len() {
            // Every feature: index order (see `index_order`).
            active.iter_mut().enumerate().for_each(|(k, j)| *j = k);
        }
        zs.clear();
        zs.extend(active.iter().map(|&j| z[j]));
        us.clear();
        us.resize(active.len(), 0.0);
        self.lambda = lambda;
        self.has_rejected = false;
        self.converged = false;
        self.polished = false;
        self.iterations = 0;
        self.primal_residual = f64::INFINITY;
        self.dual_residual = f64::INFINITY;
        self.scratch.curve.clear();
    }

    /// The merge half of the KKT re-entry, on the gradient in `grad`
    /// (fresh for `z`): every `j` off `S` with `|c_j| > λ` joins it,
    /// appended in index order with `z`/`u` at zero — continuing members
    /// keep their places and iterates. Returns whether `S` grew; if so
    /// the caller refactors.
    pub(crate) fn admit(&mut self, lambda: f64) -> bool {
        let AdmmState {
            grad,
            active,
            in_active,
            zs,
            us,
            ..
        } = self;
        let before = active.len();
        for (j, (member, g)) in in_active.iter_mut().zip(&*grad).enumerate() {
            // Non-finite gradients count as violators (see `screen`).
            if !*member && (g.is_nan() || g.abs() > lambda) {
                *member = true;
                active.push(j);
            }
        }
        if active.len() == before {
            return false;
        }
        zs.resize(active.len(), 0.0);
        us.resize(active.len(), 0.0);
        if active.len() == in_active.len() {
            index_order(active, zs, us);
        }
        self.has_rejected = false;
        true
    }

    /// `grad = X^T y - G z` in full coordinates for `design`, touching
    /// only the columns of `G` where `z` is non-zero (none at all while
    /// `z = 0`). Returned so a consensus solver can sum it across ranks
    /// in place before the rule reads it.
    pub(crate) fn refresh_gradient(&mut self, design: &DesignStore, xty: &[f64]) -> &mut [f64] {
        let AdmmState {
            z, grad, scratch, ..
        } = self;
        grad.clear();
        grad.extend_from_slice(xty);
        match design {
            DesignStore::Gram { gram, .. } => {
                // Row s of the mirrored Gram is column s.
                for (s, &b) in z.iter().enumerate() {
                    if b != 0.0 {
                        kernels::axpy(-b, gram.row(s), grad);
                    }
                }
            }
            DesignStore::Wide(_) if z.iter().all(|&b| b == 0.0) => {}
            DesignStore::Wide(x) => {
                let xz = &mut scratch.wn;
                xz.clear();
                xz.extend((0..x.rows()).map(|r| {
                    let row = x.row(r);
                    z.iter()
                        .zip(row)
                        .filter(|(b, _)| **b != 0.0)
                        .fold(0.0, |acc, (b, v)| acc + v * b)
                }));
                gemv_t_into(x, xz, &mut scratch.wt);
                for (g, v) in grad.iter_mut().zip(&scratch.wt) {
                    *g -= v;
                }
            }
        }
        self.grad_fresh = true;
        &mut self.grad
    }

    /// Bring the reusable factor to `G_SS + rho I` of `design` for the
    /// active set. Unless it already holds that set's factor, the held
    /// factor is *updated*: leavers are deleted from the back
    /// ([`PackedCholesky::delete`], ~`3 r^2` flops with `r` rows after
    /// the leaver) and newcomers appended
    /// ([`PackedCholesky::extend_with`], `i^2` flops for the `i`-th row,
    /// counting from 1) — which `screen` and `admit` make possible by
    /// keeping `S` in admission order. The whole factor is rebuilt
    /// instead when the survivors are not a prefix of `S` (it was last
    /// built for another order), when that is cheaper, when the held
    /// factor carries a jitter shift, or when an appended pivot breaks
    /// down; a breakdown of the rebuild walks the deterministic jitter
    /// ladder (possible only when the ridge is negligible against the
    /// Gram's scale). The flops done and the entries gathered are added
    /// to the state's charge.
    pub(crate) fn factor_active(&mut self, design: &DesignStore, rho: f64) -> FactorUpdate {
        let mut update = FactorUpdate::default();
        if self.factored == self.active {
            return update;
        }
        let AdmmState {
            active,
            in_active,
            factor,
            factored,
            factor_has_jitter,
            factor_flops,
            ..
        } = self;
        let m = active.len();
        // Entry (i, j), j <= i, in the compact order of S. Admission
        // order puts no bound on S_j vs S_i; `gram_entry` is symmetric.
        let entry = |i: usize, j: usize, tau: f64| {
            let g = design.gram_entry(active[j], active[i]);
            if i == j {
                g + rho + tau
            } else {
                g
            }
        };
        if !*factor_has_jitter {
            if let Some((kept, delete_flops)) = update_plan(factored, in_active, active) {
                if delete_flops + factor_rows_flops(kept, m) < factor_rows_flops(0, m) {
                    for k in (0..factored.len()).rev() {
                        if !in_active[factored[k]] {
                            factor.delete(k);
                            factored.remove(k);
                            update.deleted += 1;
                        }
                    }
                    *factor_flops += delete_flops;
                    let extended = factor.extend_with(m, |i, j| entry(i, j, 0.0));
                    // A breakdown stops after the failing row.
                    let rows = (factor.order() + usize::from(extended.is_err())).min(m);
                    *factor_flops += factor_rows_flops(kept, rows) + design.gather_flops(rows)
                        - design.gather_flops(kept);
                    if extended.is_ok() {
                        update.appended = m - kept;
                        factored.clear();
                        factored.extend_from_slice(active);
                        return update;
                    }
                }
            }
        }
        update.refactored = true;
        *factor_has_jitter = false;
        if factor.refactor_with(m, |i, j| entry(i, j, 0.0)).is_err() {
            let trace: f64 = (0..m).map(|i| entry(i, i, 0.0)).sum();
            let ladder = JitterLadder::for_gram(trace, m);
            let recovered = (1..=ladder.max_attempts).any(|k| {
                let tau = ladder.jitter_at(k);
                factor.refactor_with(m, |i, j| entry(i, j, tau)).is_ok()
            });
            assert!(
                recovered,
                "ADMM active-set system must factor (is the Gram non-finite?)"
            );
            *factor_has_jitter = true;
        }
        factored.clear();
        factored.extend_from_slice(active);
        *factor_flops += factor_rows_flops(0, m) + design.gather_flops(m);
        update
    }

    /// Whether a polish is due: every `z_S` is finite, its sign pattern
    /// is the one `prev` (the previous iterate over `S`) had — with no
    /// `prev`, at convergence, any pattern will do — and it is not the
    /// pattern last rejected. In a consensus solve every input is
    /// identical on every rank, so every rank decides alike.
    pub(crate) fn polish_due(&self, prev: Option<&[f64]>) -> bool {
        let mut as_rejected = self.has_rejected;
        for (k, &v) in self.zs.iter().enumerate() {
            if !v.is_finite() || prev.is_some_and(|prev| sign_of(prev[k]) != sign_of(v)) {
                return false;
            }
            as_rejected = as_rejected && self.rejected[k] == sign_of(v);
        }
        !as_rejected
    }

    /// Take the support `A = supp(z_S)` of the current pattern into `pl`.
    pub(crate) fn polish_support(&self, pl: &mut Polish) {
        pl.pos.clear();
        pl.support.clear();
        for (k, (&j, &v)) in self.active.iter().zip(&self.zs).enumerate() {
            if v != 0.0 {
                pl.pos.push(k);
                pl.support.push(j);
            }
        }
    }

    /// Gather the reduced system of `pl`'s support into `pl.system`: the
    /// packed lower triangle of `G_AA`, then `c_A`, from one rank's block
    /// and local `X_i^T y_i` — a consensus solve sums it across ranks.
    pub(crate) fn polish_gather(&mut self, design: &DesignStore, xty: &[f64], pl: &mut Polish) {
        let Polish {
            support, system, ..
        } = pl;
        system.clear();
        for (i, &b) in support.iter().enumerate() {
            system.extend(support[..=i].iter().map(|&a| design.gram_entry(a, b)));
        }
        system.extend(support.iter().map(|&j| xty[j]));
        self.factor_flops += design.gather_flops(support.len());
    }

    /// Factor `G_AA` (no ridge, no jitter: a pivot at or below
    /// [`POLISH_MIN_PIVOT`] of its diagonal rejects the polish, and the
    /// factorisation stops there), solve `G_AA β_A = c_A - λ s` and check
    /// `sign(β_A) = s`. On success `z` holds `β` and the caller refreshes
    /// the gradient for [`AdmmState::polish_settle`]; on failure the
    /// pattern is recorded as rejected and `z` is untouched.
    pub(crate) fn polish_solve(&mut self, pl: &mut Polish, lambda: f64, src: PolishSystem) -> bool {
        let Polish {
            pos,
            support,
            system,
            beta,
            factor,
        } = pl;
        let a = support.len();
        let (tri, c) = system.split_at(system.len().min(a * (a + 1) / 2));
        let entry = |i: usize, j: usize| match src {
            PolishSystem::Design(design, _) => design.gram_entry(support[j], support[i]),
            PolishSystem::Gathered => tri[i * (i + 1) / 2 + j],
        };
        let factored = factor.refactor_with_floor(a, entry, POLISH_MIN_PIVOT);
        let rows = factored.as_ref().map_or_else(|e| e.pivot + 1, |_| a);
        self.factor_flops += factor_rows_flops(0, rows);
        if let PolishSystem::Design(design, _) = src {
            self.factor_flops += design.gather_flops(rows);
        }
        if factored.is_ok() {
            beta.clear();
            beta.extend(pos.iter().enumerate().map(|(k, &at)| {
                let ck = match src {
                    PolishSystem::Design(_, xty) => xty[support[k]],
                    PolishSystem::Gathered => c[k],
                };
                ck - lambda * f64::from(sign_of(self.zs[at]))
            }));
            factor.solve_in_place(beta);
            if pos
                .iter()
                .zip(&*beta)
                .all(|(&k, &b)| sign_of(b) == sign_of(self.zs[k]))
            {
                for (&j, &b) in support.iter().zip(&*beta) {
                    self.z[j] = b;
                }
                return true;
            }
        }
        self.reject_pattern();
        false
    }

    /// The KKT half of a polish, on a gradient refreshed at `β`:
    /// `|c_j| <= λ` for every `j` off `A` (where `z` is zero), to
    /// round-off ([`POLISH_KKT_SLACK`]). Accepted,
    /// `β` becomes the solution — the state is converged and its gradient
    /// fresh for the next transition. Rejected, `z` returns to the ADMM
    /// iterate and the pattern is recorded.
    pub(crate) fn polish_settle(&mut self, pl: &Polish, lambda: f64) -> bool {
        let bound = lambda * (1.0 + POLISH_KKT_SLACK);
        let kkt = self
            .z
            .iter()
            .zip(&self.grad)
            .all(|(&b, g)| b != 0.0 || g.abs() <= bound);
        if kkt {
            for (&k, &b) in pl.pos.iter().zip(&pl.beta) {
                self.zs[k] = b;
            }
            self.converged = true;
            self.polished = true;
        } else {
            for (&k, &j) in pl.pos.iter().zip(&pl.support) {
                self.z[j] = self.zs[k];
            }
            self.grad_fresh = false;
            self.reject_pattern();
        }
        kkt
    }

    /// Record the current pattern as rejected.
    pub(crate) fn reject_pattern(&mut self) {
        self.rejected.clear();
        self.rejected.extend(self.zs.iter().map(|&v| sign_of(v)));
        self.has_rejected = true;
    }
}

/// Where a polish reads its reduced system.
#[derive(Clone, Copy)]
pub(crate) enum PolishSystem<'a> {
    /// Straight from the solver's design and `X^T y`, entry by entry as
    /// the factorisation asks for them (serial solvers).
    Design(&'a DesignStore, &'a [f64]),
    /// From the gathered `Polish::system`, summed across ranks
    /// (consensus solves).
    Gathered,
}

/// A polish pivot at or below this fraction of its diagonal entry marks
/// `G_AA` singular (a support column within ~1e-5 radians of the span of
/// the others, as with duplicated columns): the reduced system has no
/// unique solution, so the polish is rejected rather than regularised.
const POLISH_MIN_PIVOT: f64 = 1e-10;

/// Relative round-off allowance of the polish's off-support check
/// `|c_j| <= λ`: a gradient summed in another order (a consensus
/// allreduce) may land an ulp past a feature that sits exactly on the
/// boundary, as the argmax does at `λ_max`.
const POLISH_KKT_SLACK: f64 = 1e-12;

/// `-1`, `0` or `1`: one entry of a sign pattern.
fn sign_of(v: f64) -> i8 {
    i8::from(v > 0.0) - i8::from(v < 0.0)
}

/// Scratch of one polish attempt: the support `A` of the iterate, its
/// reduced system and the exact solution `β_A`. Nothing in it outlives an
/// attempt, so the serial solver shares one per thread across every state
/// it steps, and a consensus path keeps one per rank.
#[derive(Debug, Default)]
pub(crate) struct Polish {
    /// Positions in `S` of the support, and their features.
    pos: Vec<usize>,
    support: Vec<usize>,
    /// A consensus solve's gathered system: the lower triangle of `G_AA`
    /// packed row by row, then `c_A` — one allreduce payload of
    /// `|A|(|A|+1)/2 + |A|` words.
    system: Vec<f64>,
    /// `c_A - λ s`, solved in place into `β_A`.
    beta: Vec<f64>,
    /// Cholesky factor of `G_AA`.
    factor: PackedCholesky,
}

impl Polish {
    /// Size of the gathered support `A`.
    pub(crate) fn support_len(&self) -> usize {
        self.support.len()
    }

    /// The gathered system, for a consensus solve to sum across ranks.
    pub(crate) fn system_mut(&mut self) -> &mut [f64] {
        &mut self.system
    }
}

thread_local! {
    /// The serial solvers' polish scratch, shared by every state stepped
    /// on the thread, so per-column states carry none.
    static POLISH: RefCell<Polish> = RefCell::new(Polish::default());
}

/// `out = xty_S + rho (z_S - u_S)` over the active set `S`, in its order.
fn gather_active_rhs(
    active: &[usize],
    xty: &[f64],
    zs: &[f64],
    us: &[f64],
    rho: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.extend(active.iter().map(|&j| xty[j]));
    for ((r, zi), ui) in out.iter_mut().zip(zs).zip(us) {
        *r += rho * (zi - ui);
    }
}

/// Put an active set of every feature back in index order, carrying the
/// compact iterates along — in place, one swap per misplaced feature. A
/// consensus solve applies its full local factor, built in index order,
/// to an `S` of every feature.
fn index_order(active: &mut [usize], zs: &mut [f64], us: &mut [f64]) {
    for k in 0..active.len() {
        while active[k] != k {
            let t = active[k];
            active.swap(k, t);
            zs.swap(k, t);
            us.swap(k, t);
        }
    }
}

/// The incremental update of a factor held for `factored` to the active
/// set `active` (membership `in_active`): `Some((kept, delete_flops))`
/// when the members of `factored` that stay are, in order, the first
/// `kept` entries of `active` — deleting the others, from the back, then
/// costs `delete_flops` and appending the rest of `active` finishes the
/// update — and `None` when the factor must be rebuilt.
fn update_plan(factored: &[usize], in_active: &[bool], active: &[usize]) -> Option<(usize, f64)> {
    let kept = factored.iter().filter(|&&j| in_active[j]).count();
    let mut at = kept;
    let mut delete_flops = 0.0;
    for &j in factored.iter().rev() {
        if in_active[j] {
            at -= 1;
            if active[at] != j {
                return None;
            }
        } else {
            let after = (kept - at) as f64;
            delete_flops += 3.0 * after * after;
        }
    }
    Some((kept, delete_flops))
}

/// Flops of factoring rows `from..to` of a packed Cholesky factor: the
/// `i`-th row (counting from 1) takes `i^2`, so a fresh order-`m` factor
/// costs `m (m + 1) (2 m + 1) / 6 ≈ m^3 / 3`.
fn factor_rows_flops(from: usize, to: usize) -> f64 {
    let squares = |m: usize| (m * (m + 1) * (2 * m + 1)) as f64 / 6.0;
    squares(to) - squares(from)
}

/// What one [`AdmmState::factor_active`] did to the held factor, for the
/// `admm.factor.*` counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FactorUpdate {
    /// Rows appended to the held factor (a rebuild counts none).
    pub(crate) appended: usize,
    /// Rows deleted from it.
    pub(crate) deleted: usize,
    /// Whether the factor was rebuilt: a fresh factor or a fallback.
    pub(crate) refactored: bool,
}

impl FactorUpdate {
    /// Add the update to `admm.factor.rows_appended`,
    /// `admm.factor.rows_deleted` and `admm.factor.refactors`; an
    /// update that touched nothing records nothing.
    pub(crate) fn record(self, metrics: &MetricsRegistry) {
        if self.appended + self.deleted > 0 || self.refactored {
            metrics.incr("admm.factor.rows_appended", self.appended as u64);
            metrics.incr("admm.factor.rows_deleted", self.deleted as u64);
            metrics.incr("admm.factor.refactors", u64::from(self.refactored));
        }
    }
}

/// One column of a lockstep [`LassoAdmm::step_many`] round: a per-column
/// right-hand side and penalty plus the iteration state advanced in place.
pub struct StepTask<'a> {
    /// Precomputed `X^T y` for this column.
    pub xty: &'a [f64],
    /// L1 penalty for this column.
    pub lambda: f64,
    /// Iteration state (advanced in place; no-op once converged).
    pub state: &'a mut AdmmState,
}

/// How a solver holds its problem — the serial solver's whole design, or
/// one rank's block of a consensus solve.
#[derive(Clone)]
pub(crate) enum DesignStore {
    /// The pristine Gram `X^T X`, mirrored to full symmetric storage
    /// ([`DesignStore::gram`]) — from [`LassoAdmm::from_gram`] (the
    /// zero-copy bootstrap path, where the resample is only ever
    /// materialised as weighted Gram/rhs products) or formed by
    /// [`LassoAdmm::new`] for a `p <= n` design. A consensus block built
    /// from its design keeps that too, for its response entry points.
    Gram { gram: Matrix, x: Option<Matrix> },
    /// A wide dense design (`p > n`): the full factor takes the Woodbury
    /// form and active-set Grams are formed from the design's columns.
    Wide(Matrix),
}

impl DesignStore {
    /// A Gram store. Only the upper triangle of `gram` is read; it is
    /// mirrored into the lower one, so that every row is a whole Gram
    /// column and gradients stream contiguous rows.
    pub(crate) fn gram(mut gram: Matrix, x: Option<Matrix>) -> Self {
        mirror_upper(&mut gram);
        DesignStore::Gram { gram, x }
    }

    /// Number of coefficients.
    pub(crate) fn n_coefficients(&self) -> usize {
        match self {
            DesignStore::Gram { gram, .. } => gram.rows(),
            DesignStore::Wide(x) => x.cols(),
        }
    }

    /// Sum of the Gram diagonal: read off a stored Gram, or the sum of
    /// squares of a wide design's entries.
    fn diag_sum(&self) -> f64 {
        match self {
            DesignStore::Gram { gram, .. } => (0..gram.rows()).map(|i| gram[(i, i)]).sum(),
            DesignStore::Wide(x) => x.as_slice().iter().map(|v| v * v).sum(),
        }
    }

    /// The dense design. Panics for a store built from a Gram matrix.
    pub(crate) fn dense(&self) -> &Matrix {
        match self {
            DesignStore::Gram { x: Some(x), .. } | DesignStore::Wide(x) => x,
            DesignStore::Gram { x: None, .. } => {
                panic!("this solver was built from a Gram matrix and holds no design")
            }
        }
    }

    /// Entry `(a, b)` of `G = X^T X`, in either order: a Gram store is
    /// mirrored ([`DesignStore::gram`]), so `(a, b)` and `(b, a)` are the
    /// same bits, and a wide design's column dot product multiplies the
    /// same pairs either way. Active sets in admission order rely on it.
    fn gram_entry(&self, a: usize, b: usize) -> f64 {
        match self {
            DesignStore::Gram { gram, .. } => gram[(a, b)],
            DesignStore::Wide(x) => (0..x.rows()).fold(0.0, |acc, r| acc + x[(r, a)] * x[(r, b)]),
        }
    }

    /// Modeled `(flops, working-set bytes)` of
    /// [`AdmmState::refresh_gradient`] for a `z` with `nnz` non-zeros: one
    /// Gram column per non-zero, or for a wide design `X z` over the
    /// non-zeros then `X^T (X z)`.
    pub(crate) fn gradient_cost(&self, nnz: usize) -> (f64, f64) {
        match self {
            DesignStore::Gram { gram, .. } => {
                let p = gram.rows();
                ((2 * p * nnz) as f64, (p * nnz * 8) as f64)
            }
            DesignStore::Wide(_) if nnz == 0 => (0.0, 0.0),
            DesignStore::Wide(x) => {
                let (n, p) = x.shape();
                ((2 * n * (nnz + p)) as f64, (n * p * 8) as f64)
            }
        }
    }

    /// Modeled flops of gathering an order-`m` active-set Gram (the
    /// difference of two calls prices the rows appended between them):
    /// free for a stored Gram (a copy), one column dot product per upper
    /// entry for a wide design.
    pub(crate) fn gather_flops(&self, m: usize) -> f64 {
        match self {
            DesignStore::Gram { .. } => 0.0,
            DesignStore::Wide(x) => (x.rows() * m * (m + 1)) as f64,
        }
    }
}

/// Copy the upper triangle of a square matrix into its strict lower half,
/// in square tiles so that the column reads stay cache-resident.
fn mirror_upper(g: &mut Matrix) {
    const TILE: usize = 32;
    let p = g.rows();
    let data = g.as_mut_slice();
    for ib in (0..p).step_by(TILE) {
        for jb in (0..=ib).step_by(TILE) {
            for i in ib..(ib + TILE).min(p) {
                for j in jb..(jb + TILE).min(i) {
                    data[i * p + j] = data[j * p + i];
                }
            }
        }
    }
}

/// A LASSO-ADMM solver for a fixed design. Every λ is a screened
/// active-set solve (see [`LassoAdmm::begin_lambda`]).
pub struct LassoAdmm {
    design: DesignStore,
    cfg: AdmmConfig,
    /// Effective penalty: `cfg.rho` scaled by the mean Gram diagonal
    /// ([`effective_rho`]) of the full problem, fixed at construction and
    /// shared by every active-set sub-problem.
    rho: f64,
    /// How the full system `G + rho I` factors through the jitter ladder:
    /// probed by the first guarded path and reported by every one.
    probe: OnceLock<Result<FactorHealth, FactorBreakdown>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl LassoAdmm {
    /// Build the solver from a dense design. The effective penalty is
    /// `cfg.rho` times the mean Gram diagonal (clamped to at least 1), so
    /// convergence behaviour is invariant to the overall scale of the
    /// design. For `p <= n` the upper Gram is formed here and the design
    /// dropped, so `new(x, cfg)` is bit-identical to
    /// `from_gram(syrk_t(&x), cfg)`; a wide design (`p > n`) is kept, and
    /// active-set Grams are formed from its columns.
    pub fn new(x: Matrix, cfg: AdmmConfig) -> Self {
        let (n, p) = x.shape();
        if p <= n {
            Self::from_gram(uoi_linalg::syrk_t_upper(&x).into_upper(), cfg)
        } else {
            Self::with_design(DesignStore::Wide(x), cfg)
        }
    }

    /// Build the solver from a precomputed Gram matrix `X^T X` (consumed
    /// and kept pristine; active-set sub-Grams are gathered from it).
    /// Paths take the matching `X^T y`.
    ///
    /// Only the **upper** triangle (and the diagonal) of `gram` is read,
    /// so upper-stored matrices from the batched Gram engine
    /// (`uoi_linalg::gram`) can be passed directly; a full symmetric
    /// matrix gives the same bits. The solver mirrors it in place.
    pub fn from_gram(gram: Matrix, cfg: AdmmConfig) -> Self {
        assert_eq!(
            gram.rows(),
            gram.cols(),
            "from_gram: Gram matrix must be square"
        );
        Self::with_design(DesignStore::gram(gram, None), cfg)
    }

    fn with_design(design: DesignStore, cfg: AdmmConfig) -> Self {
        assert!(cfg.rho > 0.0, "rho must be positive");
        Self {
            rho: effective_rho(cfg.rho, design.diag_sum(), design.n_coefficients()),
            design,
            cfg,
            probe: OnceLock::new(),
            metrics: None,
        }
    }

    /// Factor the full x-update system `G + rho I` (Woodbury form for a
    /// wide design) through the jitter ladder and report how it went. The
    /// factor itself is dropped: paths factor their active sets.
    fn probe_factor(&self) -> Result<FactorHealth, FactorBreakdown> {
        match &self.design {
            DesignStore::Gram { gram, .. } => factor_ridged(gram.clone(), self.rho).map(|f| f.1),
            DesignStore::Wide(x) => try_factorize(x, self.rho).map(|f| f.1),
        }
    }

    /// The effective (data-scaled) penalty in force: `cfg.rho` times the
    /// mean Gram diagonal, clamped to at least 1.
    pub fn penalty(&self) -> f64 {
        self.rho
    }

    /// Attach a metrics registry; subsequent solves record
    /// `admm.solves`, `admm.iterations`, convergence outcomes,
    /// per-iteration residual curves, and lambda-path warm-start stats.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Bookkeeping shared by every solve entry point. Besides the
    /// `admm.*` family, feeds the solver-agnostic `solver.iterations`
    /// histogram and `solver.nonconverged` counter the run-report
    /// summary and the OpenMetrics exporter surface (the counter is
    /// bumped by 0 on converged solves so it exists — and reads 0 —
    /// even on fully healthy runs).
    fn note_solve(&self, iterations: usize, converged: bool, r_norm: f64, s_norm: f64) {
        if let Some(m) = &self.metrics {
            m.incr("admm.solves", 1);
            if converged {
                m.incr("admm.converged", 1);
            } else {
                m.incr("admm.max_iter_hit", 1);
            }
            m.observe("admm.iterations", iterations as f64);
            m.observe("admm.primal_residual", r_norm);
            m.observe("admm.dual_residual", s_norm);
            m.observe("solver.iterations", iterations as f64);
            m.incr("solver.nonconverged", u64::from(!converged));
        }
    }

    /// The `admm.factor.*` counters of one active-set factor update
    /// (metrics only).
    fn note_factor(&self, update: FactorUpdate) {
        if let Some(m) = &self.metrics {
            update.record(m);
        }
    }

    /// Per-iteration residual-curve samples (metrics only).
    fn note_iteration(&self, r_norm: f64, s_norm: f64) {
        if let Some(m) = &self.metrics {
            m.observe("admm.residual_curve.primal", r_norm);
            m.observe("admm.residual_curve.dual", s_norm);
        }
    }

    /// Take the captured residual curve out of a workspace, decimated;
    /// empty when capture is off.
    fn take_curve(&self, ws: &mut AdmmWorkspace) -> Vec<f64> {
        if self.cfg.capture_curve {
            let out = decimate_curve(&ws.curve, CURVE_MAX_POINTS);
            ws.curve.clear();
            out
        } else {
            Vec::new()
        }
    }

    /// Number of coefficients.
    pub fn n_coefficients(&self) -> usize {
        self.design.n_coefficients()
    }

    /// The configuration in force.
    pub fn config(&self) -> &AdmmConfig {
        &self.cfg
    }

    /// The rest of an iteration: z-/u-updates, residual norms (Boyd §3.3.1,
    /// fused — no r/s/rho_u temporaries), and the convergence decision, given a
    /// fresh `ws.x_var`. The vectorised prox is bit-identical to the
    /// historical scalar z-update loop (see `uoi_linalg::kernels`). On an
    /// active-set sub-problem the vectors are `|S|`-long, so the absolute
    /// tolerance scales with `sqrt(|S|)`.
    fn finish_iterate(
        &self,
        kappa: f64,
        z: &mut [f64],
        u: &mut [f64],
        ws: &mut AdmmWorkspace,
    ) -> (f64, f64, bool) {
        let p = z.len();
        let rho = self.rho;
        let AdmmWorkspace {
            x_var,
            z_old,
            xu,
            curve,
            ..
        } = ws;

        // z-update with over-relaxation omitted (plain ADMM).
        z_old.clear();
        z_old.extend_from_slice(z);
        xu.resize(p, 0.0);
        kernels::add(x_var, u, xu);
        if kappa > 0.0 {
            kernels::soft_threshold(xu, kappa, z);
        } else {
            z.copy_from_slice(xu);
        }

        // u-update.
        for ((ui, xi), zi) in u.iter_mut().zip(&*x_var).zip(&*z) {
            *ui += xi - zi;
        }

        let r_norm = norm2_diff(x_var, z);
        let s_norm = norm2_scaled_diff(rho, z, z_old);
        if self.cfg.capture_curve {
            curve.push(r_norm);
        }
        let sqrt_p = (p as f64).sqrt();
        let eps_pri = sqrt_p * self.cfg.abstol + self.cfg.reltol * norm2(x_var).max(norm2(z));
        let eps_dual = sqrt_p * self.cfg.abstol + self.cfg.reltol * norm2_scaled(rho, u);
        (r_norm, s_norm, r_norm <= eps_pri && s_norm <= eps_dual)
    }

    /// Fresh screened-path state for [`LassoAdmm::begin_lambda`] /
    /// [`LassoAdmm::step`], starting from `z = 0`.
    pub fn init_state(&self) -> AdmmState {
        AdmmState::new(self.n_coefficients())
    }

    /// The per-λ transition of a screened Sequential path (sequential
    /// strong rule, Tibshirani et al. 2012). With `β` the state's current
    /// `z` (the previous λ's solution) and `c = X^T y - G β`, the active
    /// set becomes
    ///
    /// ```text
    /// S = supp(β) ∪ { j : |c_j| >= 2 λ - λ_prev }
    /// ```
    ///
    /// where `λ_prev` is the previous λ (`||X^T y||_inf` on a fresh state).
    /// `G_SS + rho I` is factored (reused when `S` is unchanged) and the
    /// compact iterates restart from `z_S = β_S`, `u_S = 0`. Steps then
    /// iterate on `S`; once the sub-problem meets tolerance, features off
    /// `S` that violate KKT (`|c_j| > λ`) join it and the solve continues
    /// — see [`LassoAdmm::step`].
    pub fn begin_lambda(&self, xty: &[f64], lambda: f64, st: &mut AdmmState) {
        let p = self.n_coefficients();
        assert_eq!(xty.len(), p, "rhs length mismatch");
        assert!(lambda >= 0.0);
        if !st.grad_fresh {
            st.refresh_gradient(&self.design, xty);
        }
        let prev = st.previous_lambda().unwrap_or_else(|| norm_inf(xty));
        st.screen(lambda, prev);
        let update = st.factor_active(&self.design, self.rho);
        self.note_factor(update);
    }

    /// One screened ADMM iteration (x-, z-, u-updates plus convergence
    /// check) on the state's active set, for callers that interleave
    /// iterations with communication — the distributed `UoI_VAR` solver
    /// steps many per-column problems in lockstep and allreduces between
    /// rounds. A `lambda` other than the state's current one first runs
    /// the [`LassoAdmm::begin_lambda`] transition.
    ///
    /// When the iterate's sign pattern over `S` is the previous
    /// iterate's, and was not rejected before, the λ is *polished*: with
    /// `A = supp(z_S)` and `s` its signs, `G_AA β_A = c_A - λ s` is solved
    /// exactly and accepted iff `sign(β_A) = s` and `|c_j - G_jA β_A| <=
    /// λ` for every `j` off `A` — over all `p` features, so an accepted
    /// `β` is the full problem's KKT point and the state is converged on
    /// it. A singular `G_AA` rejects the polish. When the sub-problem
    /// meets tolerance, the pattern gets one last polish attempt; failing
    /// that, the KKT conditions are checked over the complement of the
    /// active set: violators join it at its end (the factor gains their
    /// rows; continuing members keep their duals, newcomers start at
    /// zero) and stepping
    /// continues; otherwise the state is converged on the ADMM iterate.
    /// Callers cap the steps per λ at `max_iter`, re-solves included.
    /// No-op once converged; allocation-free once the state is warm.
    pub fn step(&self, xty: &[f64], lambda: f64, st: &mut AdmmState) {
        if st.lambda.to_bits() != lambda.to_bits() {
            self.begin_lambda(xty, lambda, st);
        }
        if st.converged {
            return;
        }
        let (r_norm, s_norm, conv) = self.iterate_active(xty, lambda, st);
        let due = st.polish_due((!conv).then_some(&st.scratch.z_old));
        if due && self.polish(xty, lambda, st) || conv && !self.admit_violators(xty, lambda, st) {
            st.converged = true;
            self.note_solve(st.iterations, true, r_norm, s_norm);
        }
    }

    /// One polish attempt on the state's current sign pattern (see
    /// [`LassoAdmm::step`]), through the thread's shared scratch.
    fn polish(&self, xty: &[f64], lambda: f64, st: &mut AdmmState) -> bool {
        let accepted = POLISH.with_borrow_mut(|pl| {
            st.polish_support(pl);
            if !st.polish_solve(pl, lambda, PolishSystem::Design(&self.design, xty)) {
                return false;
            }
            st.refresh_gradient(&self.design, xty);
            st.factor_flops += self.design.gradient_cost(pl.support_len()).0;
            st.polish_settle(pl, lambda)
        });
        if let Some(m) = &self.metrics {
            m.incr("admm.polish.attempts", 1);
            m.incr("admm.polish.accepted", u64::from(accepted));
        }
        accepted
    }

    /// Advance every unconverged task one screened iteration
    /// ([`LassoAdmm::step`]), splitting the columns across rayon workers
    /// when more than one in-rank thread is configured. Each column owns
    /// its active set and sub-factor, so its arithmetic is self-contained
    /// and bit-identical to stepping it alone, for any `threads`.
    pub fn step_many(&self, tasks: &mut [StepTask<'_>]) {
        let step = |t: &mut StepTask<'_>| self.step(t.xty, t.lambda, t.state);
        if self.cfg.threads > 1 {
            use rayon::prelude::*;
            tasks.par_iter_mut().for_each(step);
        } else {
            tasks.iter_mut().for_each(step);
        }
    }

    /// One iteration of the active-set sub-problem, committed to the
    /// state ([`AdmmState::commit_step`]).
    fn iterate_active(&self, xty: &[f64], lambda: f64, st: &mut AdmmState) -> (f64, f64, bool) {
        let rho = self.rho;
        let AdmmState {
            active,
            zs,
            us,
            factor,
            scratch,
            ..
        } = st;
        gather_active_rhs(active, xty, zs, us, rho, &mut scratch.x_var);
        factor.solve_in_place(&mut scratch.x_var);
        let out = self.finish_iterate(lambda / rho, zs, us, scratch);
        st.commit_step(out.0, out.1);
        out
    }

    /// KKT check over the complement of the active set, run when the
    /// sub-problem meets tolerance: every `j` off `S` with `|c_j| > λ`
    /// joins it ([`AdmmState::admit`]) and the factor gains their rows
    /// ([`AdmmState::factor_active`]). Returns
    /// whether `S` grew. Leaves `grad` fresh for the next transition.
    fn admit_violators(&self, xty: &[f64], lambda: f64, st: &mut AdmmState) -> bool {
        st.refresh_gradient(&self.design, xty);
        if !st.admit(lambda) {
            return false;
        }
        let update = st.factor_active(&self.design, self.rho);
        self.note_factor(update);
        if let Some(m) = &self.metrics {
            m.incr("admm.kkt_reentries", 1);
        }
        true
    }

    /// Solve an entire λ path (largest λ first) against a precomputed
    /// `X^T y`; returns one solution per λ, in path order. Each λ is a
    /// screened active-set solve ([`LassoAdmm::begin_lambda`] then
    /// [`LassoAdmm::step`] up to `max_iter` times), warm-started from the
    /// previous λ's solution.
    ///
    /// With metrics attached, each λ records `admm.path.iterations`; it
    /// counts as a *warm-start hit* (`admm.path.warm_hits`) when it
    /// converges in no more iterations than the first λ did.
    pub fn solve_path_with_rhs(&self, xty: &[f64], lambdas: &[f64]) -> Vec<AdmmSolution> {
        self.path(xty, lambdas, None)
    }

    /// [`LassoAdmm::solve_path_with_rhs`] under the numerical guards of
    /// `res`:
    ///
    /// * the first guarded path probes the full system `G + rho I`
    ///   through the deterministic jitter ladder; a breakdown that
    ///   survives the ladder is `Err`, and the attempts and jitter it
    ///   consumed ride in every path's [`PathHealth`];
    /// * every iteration checks the divergence tripwire (a non-finite
    ///   residual, or one above [`ResilienceConfig::divergence_cap`]); a
    ///   tripped λ ends there and the next λ restarts from `z = 0`;
    /// * each tripped λ is then re-solved under bounded ρ restarts
    ///   ([`restart_tripped`]), each rung a one-λ guarded path on a
    ///   solver rebuilt at the rung's `cfg.rho`.
    ///
    /// A path that never trips is bit-identical to the unguarded one.
    pub fn solve_path_guarded(
        &self,
        xty: &[f64],
        lambdas: &[f64],
        res: &ResilienceConfig,
    ) -> Result<(Vec<AdmmSolution>, PathHealth), SolverError> {
        let factor = self.probe.get_or_init(|| self.probe_factor()).clone()?;
        let cap = Some(res.divergence_cap);
        let mut sols = self.path(xty, lambdas, cap);
        let mut health = restart_tripped(res, self.cfg.rho, &mut sols, |i, rho| {
            // Restart solvers are cold re-solves outside the warm-start
            // accounting, so they stay unregistered.
            let cfg = AdmmConfig {
                rho,
                ..self.cfg.clone()
            };
            let solver = Self::with_design(self.design.clone(), cfg);
            solver.probe_factor().ok()?;
            solver.path(xty, &lambdas[i..=i], cap).pop()
        });
        health.factor_attempts = factor.attempts;
        health.factor_jitter = factor.jitter;
        Ok((sols, health))
    }

    /// The screened path, with the divergence tripwire armed when `guard`
    /// is set.
    fn path(&self, xty: &[f64], lambdas: &[f64], guard: Option<f64>) -> Vec<AdmmSolution> {
        let mut st = self.init_state();
        let mut out = Vec::with_capacity(lambdas.len());
        let mut first_iters = None;
        for &lam in lambdas {
            self.begin_lambda(xty, lam, &mut st);
            let mut trip = false;
            for _ in 0..self.cfg.max_iter {
                self.step(xty, lam, &mut st);
                self.note_iteration(st.primal_residual, st.dual_residual);
                if st.converged {
                    break;
                }
                if guard.is_some_and(|cap| tripped(st.primal_residual, st.dual_residual, cap)) {
                    trip = true;
                    break;
                }
            }
            if !st.converged {
                // Converged solves were noted by `step`.
                self.note_solve(st.iterations, false, st.primal_residual, st.dual_residual);
            }
            if let Some(m) = &self.metrics {
                m.incr("admm.path.solves", 1);
                m.observe("admm.path.iterations", st.iterations as f64);
                match first_iters {
                    None => first_iters = Some(st.iterations),
                    Some(baseline) if st.converged && st.iterations <= baseline => {
                        m.incr("admm.path.warm_hits", 1);
                    }
                    Some(_) => {}
                }
            }
            out.push(AdmmSolution {
                beta: st.z.clone(),
                iterations: st.iterations,
                primal_residual: st.primal_residual,
                dual_residual: st.dual_residual,
                converged: st.converged,
                curve: self.take_curve(&mut st.scratch),
            });
            if trip {
                // Restart the next λ from a defined state instead of the
                // diverged garbage.
                st.z.iter_mut().for_each(|v| *v = 0.0);
                st.grad_fresh = false;
            }
        }
        out
    }
}

/// Approximate flop count of one ADMM iteration for a dense `n x p`
/// problem factored in primal form — used by the virtual-time charging of
/// the distributed solver and the scaling harnesses.
pub fn admm_iter_flops(n: usize, p: usize) -> f64 {
    if p <= n {
        // Back/forward substitution (2 p^2) + rhs build (2 p) + residuals.
        2.0 * (p * p) as f64 + 8.0 * p as f64
    } else {
        // Woodbury: two gemv (4 n p) + n x n substitution (2 n^2).
        4.0 * (n * p) as f64 + 2.0 * (n * n) as f64 + 8.0 * p as f64
    }
}

/// Number of per-column iteration charges for one lockstep round over
/// `active` columns with `threads` in-rank workers: `ceil(active /
/// threads)`. With `threads = 1` this equals `active` — exactly the
/// historical one-charge-per-column accounting, so single-thread runs
/// reproduce today's modeled timelines bit for bit.
pub fn lockstep_round_charges(active: usize, threads: usize) -> usize {
    active.div_ceil(threads.max(1))
}

/// Approximate flop count of one screened iteration on an `m`-feature
/// active set: the primal-form iteration of an `m`-coefficient problem.
pub fn admm_active_iter_flops(m: usize) -> f64 {
    admm_iter_flops(m, m)
}

/// Approximate flop count of the one-time factorisation.
pub fn admm_factor_flops(n: usize, p: usize) -> f64 {
    let m = p.min(n) as f64;
    // Gram (n p min(n,p)) + Cholesky (m^3 / 3).
    (n * p) as f64 * m + m * m * m / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::lasso_kkt_violation;
    use uoi_linalg::{gemv_t, solve_normal_equations};

    fn toy_problem() -> (Matrix, Vec<f64>) {
        // y depends on features 0 and 2 only.
        let n = 40;
        let p = 6;
        let x = Matrix::from_fn(n, p, |i, j| {
            ((i * (j + 3) * 2654435761) % 1000) as f64 / 500.0 - 1.0
        });
        let y: Vec<f64> = (0..n)
            .map(|i| 2.0 * x[(i, 0)] - 1.5 * x[(i, 2)] + 0.01 * ((i * 37 % 10) as f64 - 4.5))
            .collect();
        (x, y)
    }

    /// One λ as a one-λ screened path against `X^T y`.
    fn one(solver: &LassoAdmm, x: &Matrix, y: &[f64], lambda: f64) -> AdmmSolution {
        let mut path = solver.solve_path_with_rhs(&gemv_t(x, y), &[lambda]);
        path.pop().expect("one λ solved")
    }

    #[test]
    fn from_gram_bit_identical_to_dense() {
        // For p <= n the dense constructor builds exactly syrk_t(x) + rho I,
        // so the Gram-built solver must reproduce every solve bit-for-bit.
        let (x, y) = toy_problem();
        let cfg = AdmmConfig {
            max_iter: 4000,
            abstol: 1e-9,
            reltol: 1e-8,
            ..Default::default()
        };
        let dense = LassoAdmm::new(x.clone(), cfg.clone());
        let gram_solver = LassoAdmm::from_gram(uoi_linalg::syrk_t(&x), cfg);
        let xty = gemv_t(&x, &y);
        let lambdas = [2.0, 1.0, 0.5, 0.25, 0.0];
        let a = dense.solve_path_with_rhs(&xty, &lambdas);
        let b = gram_solver.solve_path_with_rhs(&xty, &lambdas);
        assert_eq!(a.len(), b.len());
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.iterations, sb.iterations);
            assert_eq!(sa.converged, sb.converged);
            for (va, vb) in sa.beta.iter().zip(&sb.beta) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{va} vs {vb}");
            }
        }
    }

    #[test]
    fn ols_matches_normal_equations() {
        let (x, y) = toy_problem();
        let solver = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 2000,
                ..Default::default()
            },
        );
        let sol = one(&solver, &x, &y, 0.0);
        let exact = solve_normal_equations(&x, &y, 0.0).unwrap();
        for (a, b) in sol.beta.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(sol.converged);
    }

    #[test]
    fn lasso_satisfies_kkt() {
        let (x, y) = toy_problem();
        let lambda = 0.5;
        let solver = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 5000,
                abstol: 1e-9,
                reltol: 1e-8,
                ..Default::default()
            },
        );
        let sol = one(&solver, &x, &y, lambda);
        assert!(sol.converged);
        let viol = lasso_kkt_violation(&x, &y, &sol.beta, lambda);
        assert!(viol < 1e-3, "KKT violation {viol}");
    }

    #[test]
    fn lambda_max_gives_zero_solution() {
        let (x, y) = toy_problem();
        let lmax = crate::lambda::lambda_max(&x, &y);
        let solver = LassoAdmm::new(x.clone(), AdmmConfig::default());
        let sol = one(&solver, &x, &y, lmax * 1.01);
        assert!(sol.beta.iter().all(|&b| b.abs() < 1e-6), "{:?}", sol.beta);
    }

    #[test]
    fn sparsity_increases_with_lambda() {
        let (x, y) = toy_problem();
        let solver = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 2000,
                ..Default::default()
            },
        );
        let nnz = |lam: f64| {
            one(&solver, &x, &y, lam)
                .beta
                .iter()
                .filter(|b| b.abs() > 1e-8)
                .count()
        };
        assert!(nnz(0.01) >= nnz(1.0));
        assert!(nnz(1.0) >= nnz(20.0));
    }

    #[test]
    fn wide_design_path_satisfies_kkt() {
        // p > n: the kept design forms the active-set Grams from its
        // columns.
        let n = 10;
        let p = 25;
        let x = Matrix::from_fn(n, p, |i, j| (((i * 31 + j * 17) % 13) as f64 - 6.0) / 6.0);
        let y: Vec<f64> = (0..n).map(|i| x[(i, 1)] * 3.0 - x[(i, 4)]).collect();
        let lam = 0.3;
        let wide = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 8000,
                abstol: 1e-10,
                reltol: 1e-9,
                ..Default::default()
            },
        );
        let sol = one(&wide, &x, &y, lam);
        let viol = lasso_kkt_violation(&x, &y, &sol.beta, lam);
        assert!(viol < 1e-3, "wide-design KKT violation {viol}");
    }

    #[test]
    fn warm_start_path_consistent_with_cold() {
        let (x, y) = toy_problem();
        let solver = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 4000,
                abstol: 1e-9,
                reltol: 1e-8,
                ..Default::default()
            },
        );
        let lambdas = [2.0, 1.0, 0.5, 0.25];
        let path = solver.solve_path_with_rhs(&gemv_t(&x, &y), &lambdas);
        for (i, &lam) in lambdas.iter().enumerate() {
            let cold = one(&solver, &x, &y, lam);
            for (a, b) in path[i].beta.iter().zip(&cold.beta) {
                assert!((a - b).abs() < 1e-4, "lambda {lam}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn stepping_api_matches_solve() {
        let (x, y) = toy_problem();
        let lam = 0.6;
        let cfg = AdmmConfig {
            max_iter: 5000,
            abstol: 1e-9,
            reltol: 1e-8,
            ..Default::default()
        };
        let solver = LassoAdmm::new(x.clone(), cfg);
        let direct = one(&solver, &x, &y, lam);
        let xty = gemv_t(&x, &y);
        let mut st = solver.init_state();
        for _ in 0..5000 {
            solver.step(&xty, lam, &mut st);
            if st.converged {
                break;
            }
        }
        assert!(st.converged);
        for (a, b) in st.z.iter().zip(&direct.beta) {
            assert!((a - b).abs() < 1e-6, "step {a} vs solve {b}");
        }
        // Stepping after convergence is a no-op.
        let frozen = st.z.clone();
        let it = st.iterations;
        solver.step(&xty, lam, &mut st);
        assert_eq!(st.z, frozen);
        assert_eq!(st.iterations, it);
    }

    #[test]
    fn builder_validates_and_chains() {
        let cfg = AdmmConfig::builder()
            .rho(2.0)
            .max_iter(1000)
            .abstol(1e-8)
            .build()
            .unwrap();
        assert_eq!(cfg.rho, 2.0);
        assert_eq!(cfg.max_iter, 1000);
        assert_eq!(cfg.abstol, 1e-8);
        assert_eq!(cfg.reltol, AdmmConfig::default().reltol);
        assert!(AdmmConfig::builder().rho(-1.0).build().is_err());
        assert!(AdmmConfig::builder().rho(f64::NAN).build().is_err());
        assert!(AdmmConfig::builder().max_iter(0).build().is_err());
        assert!(AdmmConfig::builder().abstol(0.0).build().is_err());
        assert!(AdmmConfig::builder().reltol(-1e-3).build().is_err());
        let err = AdmmConfig::builder().rho(0.0).build().unwrap_err();
        assert!(err.to_string().contains("rho"));
    }

    #[test]
    fn metrics_record_solves_and_path_warm_hits() {
        let (x, y) = toy_problem();
        let metrics = Arc::new(MetricsRegistry::new());
        let solver = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 4000,
                abstol: 1e-9,
                reltol: 1e-8,
                ..Default::default()
            },
        )
        .with_metrics(metrics.clone());
        let lambdas = [2.0, 1.0, 0.5, 0.25];
        let path = solver.solve_path_with_rhs(&gemv_t(&x, &y), &lambdas);
        assert!(path.iter().all(|s| s.converged));
        assert_eq!(metrics.counter("admm.solves"), lambdas.len() as u64);
        assert_eq!(metrics.counter("admm.converged"), lambdas.len() as u64);
        assert_eq!(metrics.counter("admm.path.solves"), lambdas.len() as u64);
        assert!(metrics.counter("admm.path.warm_hits") <= (lambdas.len() - 1) as u64);
        assert_eq!(metrics.samples("admm.iterations").len(), lambdas.len());
        // Residual curves hold one sample per iteration performed.
        let total_iters: usize = path.iter().map(|s| s.iterations).sum();
        assert_eq!(
            metrics.samples("admm.residual_curve.primal").len(),
            total_iters
        );
        assert_eq!(
            metrics.samples("admm.residual_curve.dual").len(),
            total_iters
        );
    }

    #[test]
    fn flop_counters_positive_and_scale() {
        assert!(admm_iter_flops(100, 50) > 0.0);
        assert!(admm_factor_flops(100, 50) > admm_iter_flops(100, 50));
        // Woodbury branch cheaper than primal when p >> n.
        let wood = admm_iter_flops(10, 10_000);
        let primal_equiv = 2.0 * (10_000.0 * 10_000.0);
        assert!(wood < primal_equiv);
    }

    #[test]
    fn lockstep_charges_match_per_column_at_one_thread() {
        for active in [0, 1, 5, 16] {
            assert_eq!(lockstep_round_charges(active, 1), active);
        }
        assert_eq!(lockstep_round_charges(10, 4), 3);
        assert_eq!(lockstep_round_charges(8, 4), 2);
        assert_eq!(lockstep_round_charges(1, 4), 1);
        // Degenerate threads = 0 is clamped rather than dividing by zero.
        assert_eq!(lockstep_round_charges(7, 0), 7);
    }

    #[test]
    fn config_validates_threads_and_env_override() {
        assert!(AdmmConfig::builder().threads(0).build().is_err());
        let cfg = AdmmConfig::builder().threads(4).build().unwrap();
        assert_eq!(cfg.threads, 4);
        // Unset/garbage UOI_THREADS falls back to the default.
        assert_eq!(AdmmConfig::env_threads(3), {
            match std::env::var("UOI_THREADS") {
                Ok(v) => v
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or(3),
                Err(_) => 3,
            }
        });
    }

    #[test]
    fn step_many_bit_identical_to_individual_steps() {
        let (x, y) = toy_problem();
        let xty = gemv_t(&x, &y);
        let solver = LassoAdmm::new(x, AdmmConfig::default());
        // Distinct per-column problems: scaled rhs, distinct lambdas.
        let rhs_cols: Vec<Vec<f64>> = (0..5)
            .map(|k| xty.iter().map(|v| v * (1.0 + 0.2 * k as f64)).collect())
            .collect();
        let lambdas = [0.8, 0.4, 0.2, 0.1, 0.0];

        let mut lockstep: Vec<AdmmState> = (0..5).map(|_| solver.init_state()).collect();
        let mut individual = lockstep.clone();
        for _ in 0..solver.config().max_iter {
            if lockstep.iter().all(|s| s.converged) {
                break;
            }
            let mut tasks: Vec<StepTask<'_>> = lockstep
                .iter_mut()
                .zip(rhs_cols.iter())
                .zip(lambdas.iter())
                .map(|((state, xty), &lambda)| StepTask { xty, lambda, state })
                .collect();
            solver.step_many(&mut tasks);
            for ((st, xty), &lam) in individual.iter_mut().zip(&rhs_cols).zip(&lambdas) {
                solver.step(xty, lam, st);
            }
        }
        for (a, b) in lockstep.iter().zip(&individual) {
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.converged, b.converged);
            assert!(a.converged, "toy problems should converge");
            assert_eq!(a.primal_residual.to_bits(), b.primal_residual.to_bits());
            assert_eq!(a.dual_residual.to_bits(), b.dual_residual.to_bits());
            for (va, vb) in a.z.iter().zip(&b.z) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
            for (va, vb) in a.us.iter().zip(&b.us) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    /// The held active-set factor is updated in place — newcomers
    /// appended, leavers deleted, each charged the rows it computes —
    /// unless an appended pivot breaks down or the factor carries a
    /// jitter shift; both rebuild it in full.
    #[test]
    fn active_factor_updates_and_falls_back_to_a_rebuild() {
        // Features 0 and 1 are the same column; 2 and 3 are orthogonal
        // to both, so with rho = 0 the pivot of whichever of 0 and 1
        // comes second is exactly zero.
        let x = Matrix::from_fn(6, 4, |i, j| match j {
            0 | 1 => f64::from(u8::from(i < 4)),
            _ => f64::from(u8::from(i == j + 2)),
        });
        let design = DesignStore::gram(uoi_linalg::syrk_t(&x), None);
        let mut st = AdmmState::new(4);
        let set = |st: &mut AdmmState, s: &[usize]| {
            st.in_active.iter_mut().for_each(|m| *m = false);
            s.iter().for_each(|&j| st.in_active[j] = true);
            st.active.clear();
            st.active.extend_from_slice(s);
            let update = st.factor_active(&design, 0.0);
            let flops = st.take_factor_flops();
            (update.appended, update.deleted, update.refactored, flops)
        };
        // A fresh factor of order 2 costs 1 + 4 flops; its third row 9.
        assert_eq!(set(&mut st, &[2, 3]), (0, 0, true, 5.0));
        assert_eq!(set(&mut st, &[2, 3, 0]), (1, 0, false, 9.0));
        // Appending the duplicate breaks down: rebuilt on the ladder.
        let (_, _, rebuilt, _) = set(&mut st, &[2, 3, 0, 1]);
        assert!(rebuilt && st.factor_has_jitter);
        assert_eq!(set(&mut st, &[2, 3, 0, 1]), (0, 0, false, 0.0));
        // A jittered factor is rebuilt rather than updated.
        let (_, _, rebuilt, _) = set(&mut st, &[2, 3, 0]);
        assert!(rebuilt && !st.factor_has_jitter);
        // Deleting row 1 of 3 updates the row after it (3 * 1^2 flops);
        // deleting row 0 would cost 3 * 2^2, more than a rebuild's 5.
        assert_eq!(set(&mut st, &[2, 0]), (0, 1, false, 3.0));
        let mut fresh = PackedCholesky::new();
        fresh
            .refactor_with(2, |i, j| design.gram_entry(st.active[j], st.active[i]))
            .unwrap();
        let (mut got, mut want) = (vec![1.0, -2.0], vec![1.0, -2.0]);
        st.factor.solve_in_place(&mut got);
        fresh.solve_in_place(&mut want);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0), "{g} vs {w}");
        }
    }
}

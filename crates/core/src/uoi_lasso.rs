//! `UoI_LASSO` (paper Algorithm 1): Union of Intersections for sparse
//! linear regression, shared-memory implementation with rayon parallelism
//! over bootstrap resamples (the `P_B` axis).
//!
//! **Model selection** (lines 1–11): for `B1` bootstrap resamples, solve a
//! LASSO-ADMM path over `q` lambdas, record the nonzero supports, and
//! intersect supports across resamples per lambda (eq. 3), producing a
//! family of candidate supports.
//!
//! **Model estimation** (lines 12–24): for `B2` train/evaluation
//! resamples, fit the unbiased OLS estimator on every candidate support,
//! score it on the held-out evaluation rows, keep the best support per
//! resample, and average the winning estimates (the union of eq. 4).

use crate::degraded::{
    data_words, fingerprint, CheckpointConfig, CheckpointStore, DegradationConfig,
    DegradationReport,
};
use crate::error::{all_finite, UoiError};
use crate::numerical::NumericalConfig;
use crate::support::{dedup_family, intersect_many};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use uoi_data::bootstrap::{resample_weights, row_bootstrap};
use uoi_data::rng::substream;
use uoi_linalg::{dot, kernels, weighted_sumsq, Matrix};
use uoi_solvers::{
    lambda_path, ols_on_support_gram, ols_on_support_gram_health, support_of, AdmmConfig,
    LassoAdmm, ResilientLasso, SolverError,
};
use uoi_telemetry::{NumericalHealthReport, Telemetry, TraceEvent};

/// Run `body` inside a named trace span when tracing is on. Serial fits
/// have no virtual clock, so the span carries wall time: `t = 0` at
/// open, elapsed wall seconds at close.
pub(crate) fn traced<R>(tel: &Telemetry, name: &str, body: impl FnOnce() -> R) -> R {
    if !tel.tracing_enabled() {
        return body();
    }
    let id = tel.next_span_id();
    tel.record(TraceEvent::SpanStart {
        id,
        parent: None,
        name: name.to_string(),
        rank: 0,
        t: 0.0,
    });
    let t0 = std::time::Instant::now();
    let out = body();
    tel.record(TraceEvent::SpanEnd {
        id,
        rank: 0,
        t: t0.elapsed().as_secs_f64(),
    });
    out
}

/// How candidate supports are scored in the estimation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimationScore {
    /// Held-out mean squared error on the out-of-bag rows (Algorithm 1
    /// line 19) — the paper's choice.
    #[default]
    Mse,
    /// Bayesian information criterion on the training resample:
    /// `n ln(RSS/n) + k ln(n)` — the PyUoI-style alternative that needs
    /// no evaluation set.
    Bic,
}

/// Hyperparameters of `UoI_LASSO`.
#[derive(Debug, Clone)]
pub struct UoiLassoConfig {
    /// Selection bootstraps `B1`.
    pub b1: usize,
    /// Estimation bootstraps `B2`.
    pub b2: usize,
    /// Number of regularisation values `q`.
    pub q: usize,
    /// Smallest lambda as a fraction of `lambda_max`.
    pub lambda_min_ratio: f64,
    /// ADMM solver settings.
    pub admm: AdmmConfig,
    /// Magnitude below which a coefficient counts as zero.
    pub support_tol: f64,
    /// Master seed; every bootstrap derives an independent stream.
    pub seed: u64,
    /// Estimation-step model-scoring rule.
    pub score: EstimationScore,
    /// Soft-intersection threshold: a feature enters the lambda's support
    /// when it appears in at least `ceil(intersection_frac * B1)`
    /// bootstrap supports. `1.0` is the paper's strict intersection
    /// (eq. 3); lower values trade false negatives for false positives.
    pub intersection_frac: f64,
    /// Observability handle: when its metrics registry is enabled, fits
    /// record selection/estimation statistics and the per-solve ADMM
    /// metrics. Disabled (free) by default.
    pub telemetry: Telemetry,
    /// Degraded-mode execution: an optional deterministic task-failure
    /// plan and the quorum rule applied over surviving bootstraps.
    pub degradation: DegradationConfig,
    /// Bootstrap-granular checkpoint/resume; `None` disables it.
    pub checkpoint: Option<CheckpointConfig>,
    /// Numerical resilience: guarded solves (jitter ladder, divergence
    /// tripwires, rho restarts), optional input validation, and the
    /// per-fit health report. Fully inert by default — the unguarded
    /// path is taken and results are bit-identical to it.
    pub numerical: NumericalConfig,
}

impl Default for UoiLassoConfig {
    fn default() -> Self {
        Self {
            b1: 10,
            b2: 10,
            q: 20,
            lambda_min_ratio: 1e-2,
            admm: AdmmConfig::default(),
            support_tol: 1e-7,
            seed: 42,
            score: EstimationScore::Mse,
            intersection_frac: 1.0,
            telemetry: Telemetry::disabled(),
            degradation: DegradationConfig::default(),
            checkpoint: None,
            numerical: NumericalConfig::default(),
        }
    }
}

impl UoiLassoConfig {
    /// Start a validated chainable builder:
    /// `UoiLassoConfig::builder().b1(20).q(30).build()?`.
    pub fn builder() -> UoiLassoConfigBuilder {
        UoiLassoConfigBuilder::default()
    }

    /// Check every field; `Err` names the first offending one.
    pub fn validate(&self) -> Result<(), UoiError> {
        if self.b1 == 0 {
            return Err(UoiError::InvalidConfig("b1 must be >= 1".into()));
        }
        if self.b2 == 0 {
            return Err(UoiError::InvalidConfig("b2 must be >= 1".into()));
        }
        if self.q == 0 {
            return Err(UoiError::InvalidConfig("q must be >= 1".into()));
        }
        if !(self.lambda_min_ratio.is_finite()
            && self.lambda_min_ratio > 0.0
            && self.lambda_min_ratio < 1.0)
        {
            return Err(UoiError::InvalidConfig(format!(
                "lambda_min_ratio must be in (0, 1), got {}",
                self.lambda_min_ratio
            )));
        }
        if !(self.support_tol.is_finite() && self.support_tol >= 0.0) {
            return Err(UoiError::InvalidConfig(format!(
                "support_tol must be finite and >= 0, got {}",
                self.support_tol
            )));
        }
        if !(self.intersection_frac.is_finite()
            && self.intersection_frac > 0.0
            && self.intersection_frac <= 1.0)
        {
            return Err(UoiError::InvalidConfig(format!(
                "intersection_frac must be in (0, 1], got {}",
                self.intersection_frac
            )));
        }
        self.admm.validate()?;
        self.degradation.validate()?;
        Ok(())
    }

    /// Checkpoint fingerprint of this configuration over dataset `(x, y)`.
    ///
    /// Deliberately excludes `b1`/`b2`: every bootstrap's result depends
    /// only on `(seed, k)` and the data, so checkpoints stay valid when
    /// the bootstrap counts change between runs. Includes everything a
    /// per-bootstrap result *does* depend on: seed, lambda grid inputs,
    /// solver settings, and every data bit.
    pub(crate) fn ckpt_fingerprint(&self, x: &Matrix, y: &[f64]) -> u64 {
        let words = [
            self.seed,
            self.q as u64,
            self.lambda_min_ratio.to_bits(),
            self.support_tol.to_bits(),
            self.admm.rho.to_bits(),
            self.admm.max_iter as u64,
            self.admm.abstol.to_bits(),
            self.admm.reltol.to_bits(),
            // `threads` deliberately stays out — it never affects the
            // numbers.
            // Guarded solves can alter results on degenerate inputs (the
            // clean path is bit-identical, but a checkpoint cannot know
            // the input was clean), so arming resilience invalidates.
            self.numerical.enabled as u64,
            path_variant_word(),
            x.rows() as u64,
            x.cols() as u64,
        ];
        fingerprint(
            words
                .into_iter()
                .chain(data_words(x.as_slice()))
                .chain(data_words(y)),
        )
    }
}

/// Checkpoint-fingerprint word of the solver's lambda-path algorithm
/// ([`uoi_solvers::PATH_VARIANT`]): checkpoints written by another path
/// algorithm miss instead of mixing solver generations in one fit.
pub(crate) fn path_variant_word() -> u64 {
    fingerprint(uoi_solvers::PATH_VARIANT.bytes().map(u64::from))
}

/// Chainable builder for [`UoiLassoConfig`]; `build()` validates.
#[derive(Debug, Clone, Default)]
pub struct UoiLassoConfigBuilder {
    cfg: UoiLassoConfig,
}

impl UoiLassoConfigBuilder {
    pub fn b1(mut self, b1: usize) -> Self {
        self.cfg.b1 = b1;
        self
    }

    pub fn b2(mut self, b2: usize) -> Self {
        self.cfg.b2 = b2;
        self
    }

    pub fn q(mut self, q: usize) -> Self {
        self.cfg.q = q;
        self
    }

    pub fn lambda_min_ratio(mut self, ratio: f64) -> Self {
        self.cfg.lambda_min_ratio = ratio;
        self
    }

    pub fn admm(mut self, admm: AdmmConfig) -> Self {
        self.cfg.admm = admm;
        self
    }

    pub fn support_tol(mut self, tol: f64) -> Self {
        self.cfg.support_tol = tol;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    pub fn score(mut self, score: EstimationScore) -> Self {
        self.cfg.score = score;
        self
    }

    pub fn intersection_frac(mut self, frac: f64) -> Self {
        self.cfg.intersection_frac = frac;
        self
    }

    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    pub fn degradation(mut self, degradation: DegradationConfig) -> Self {
        self.cfg.degradation = degradation;
        self
    }

    pub fn checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.cfg.checkpoint = Some(checkpoint);
        self
    }

    pub fn numerical(mut self, numerical: NumericalConfig) -> Self {
        self.cfg.numerical = numerical;
        self
    }

    pub fn build(self) -> Result<UoiLassoConfig, UoiError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A fitted UoI model.
#[derive(Debug, Clone)]
pub struct UoiFit {
    /// Averaged coefficient estimate (length `p`), in the original
    /// (uncentred) coordinates.
    pub beta: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
    /// Nonzero indices of `beta`.
    pub support: Vec<usize>,
    /// The lambda grid used for selection.
    pub lambdas: Vec<f64>,
    /// Intersected support per lambda (before deduplication) — the
    /// family `S = [S_1 ... S_q]` of eq. 3.
    pub supports_per_lambda: Vec<Vec<usize>>,
    /// Deduplicated candidate family actually scored in estimation.
    pub support_family: Vec<Vec<usize>>,
    /// Degraded-execution account, present when a fault plan was active:
    /// which tasks failed and the effective bootstrap counts used.
    pub degradation: Option<DegradationReport>,
    /// Shrink-and-recover account, present when the fit ran through
    /// [`fit_uoi_lasso_recovering`](crate::uoi_lasso_recovering::fit_uoi_lasso_recovering).
    pub recovery: Option<crate::recovery::RecoveryReport>,
    /// Speculative-hedging account, present when the fit ran through the
    /// recovering pipeline with speculation enabled.
    pub speculation: Option<crate::speculation::SpeculationReport>,
    /// Numerical-health account, present when
    /// [`NumericalConfig::active`](crate::numerical::NumericalConfig::active)
    /// — every jitter escalation, rho restart, divergence outcome, data
    /// issue, and dropped task, folded into a deterministic report.
    pub numerical: Option<NumericalHealthReport>,
}

impl UoiFit {
    /// Predict responses for a design matrix in original coordinates.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut out = uoi_linalg::gemv(x, &self.beta);
        for v in &mut out {
            *v += self.intercept;
        }
        out
    }
}

/// Fit `UoI_LASSO` on `(x, y)`, panicking on invalid input.
///
/// Thin wrapper over [`try_fit_uoi_lasso`] for callers that prefer the
/// assert-style contract; library code should use the fallible form.
#[deprecated(
    since = "0.6.0",
    note = "use `uoi_core::UoiFitter::new(cfg).fit(x, y)` instead"
)]
#[allow(deprecated)]
pub fn fit_uoi_lasso(x: &Matrix, y: &[f64], cfg: &UoiLassoConfig) -> UoiFit {
    try_fit_uoi_lasso(x, y, cfg).unwrap_or_else(|e| panic!("fit_uoi_lasso: {e}"))
}

/// Fit `UoI_LASSO` on `(x, y)`.
///
/// Data is column-centred internally (the paper's `n x (p+1)` intercept
/// column is handled by centring instead of penalised estimation); the
/// returned intercept restores original coordinates.
///
/// Returns `Err` — and never panics — on an empty design, mismatched
/// `x`/`y` lengths, too few samples to resample, non-finite inputs, or an
/// invalid configuration.
#[deprecated(
    since = "0.6.0",
    note = "use `uoi_core::UoiFitter::new(cfg).fit(x, y)` instead"
)]
pub fn try_fit_uoi_lasso(x: &Matrix, y: &[f64], cfg: &UoiLassoConfig) -> Result<UoiFit, UoiError> {
    // The validation pass runs before the structural checks: under
    // `Sanitize` it scrubs the non-finite cells the structural check
    // would otherwise reject.
    if let Some((xs, ys)) = cfg.numerical.prevalidate(x, y, &cfg.telemetry)? {
        validate_lasso_inputs(&xs, &ys, cfg)?;
        return fit_inner(&xs, &ys, cfg);
    }
    validate_lasso_inputs(x, y, cfg)?;
    fit_inner(x, y, cfg)
}

/// Input validation shared by the serial and recovering fits; `Ok` means
/// `fit_inner` (or a recovering re-execution of its tasks) may run.
pub(crate) fn validate_lasso_inputs(
    x: &Matrix,
    y: &[f64],
    cfg: &UoiLassoConfig,
) -> Result<(), UoiError> {
    let (n, p) = x.shape();
    if n == 0 || p == 0 {
        return Err(UoiError::EmptyDesign);
    }
    if y.len() != n {
        return Err(UoiError::DimensionMismatch {
            expected: n,
            got: y.len(),
        });
    }
    if n < 4 {
        return Err(UoiError::TooFewSamples { n, min: 4 });
    }
    if !all_finite(x.as_slice()) {
        return Err(UoiError::NonFiniteInput("design matrix x"));
    }
    if !all_finite(y) {
        return Err(UoiError::NonFiniteInput("response y"));
    }
    cfg.validate()
}

/// Column-centre `(x, y)`: returns `(xc, yc, x_means, y_mean)`. Shared
/// verbatim by the serial fit and the recovering pipeline so both centre
/// bit-identically.
pub(crate) fn centre_data(x: &Matrix, y: &[f64]) -> (Matrix, Vec<f64>, Vec<f64>, f64) {
    let n = x.rows();
    let x_means = x.col_means();
    let y_mean = y.iter().sum::<f64>() / n as f64;
    let mut xc = x.clone();
    xc.center_cols(&x_means);
    let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
    (xc, yc, x_means, y_mean)
}

/// Selection bootstrap `k`'s resample multiplicities — the zero-copy
/// weight vector that stands in for the materialised resample.
pub(crate) fn selection_weights(n: usize, seed: u64, k: usize) -> Vec<f64> {
    let mut rng = substream(seed, k as u64);
    let idx = row_bootstrap(&mut rng, n, n);
    resample_weights(&idx, n)
}

/// Selection bootstrap `k`'s weighted Gram and right-hand side — the
/// `O(n p^2)` half of the task, checkpointable for recovery re-solves.
///
/// A batch of one through the batched Gram engine: per-resample results
/// are independent of batch composition, so this is bit-identical to the
/// same bootstrap inside `fit_inner`'s batched pass. The Gram comes back
/// upper-stored (strict lower zero); every consumer — `from_gram`,
/// `ols_on_support_gram`, `symv`, the checkpoint round-trip — reads only
/// the upper triangle.
pub(crate) fn selection_gram(xc: &Matrix, yc: &[f64], seed: u64, k: usize) -> (Matrix, Vec<f64>) {
    let w = selection_weights(xc.rows(), seed, k);
    let (gram, xty) = uoi_linalg::gram_rhs_batch(xc, yc, &[&w])
        .pop()
        .expect("batch of one");
    (gram.into_upper(), xty)
}

/// Solve selection bootstrap `k`'s lambda path from its (possibly
/// checkpoint-restored) Gram, yielding the per-lambda supports.
///
/// When tracing is on, residual-curve capture is enabled on a local
/// copy of the solver config (capture never changes the iterates) and
/// one [`TraceEvent::Convergence`] is emitted per lambda.
pub(crate) fn selection_solve(
    gram: Matrix,
    xty: &[f64],
    lambdas: &[f64],
    cfg: &UoiLassoConfig,
    k: usize,
) -> Vec<Vec<usize>> {
    // A task that falls off the fallback ladder degrades to the empty
    // model on every lambda: callers that cannot drop tasks (the
    // recovering pipeline's exchange protocol requires a payload per
    // task) still complete, contributing nothing to any intersection.
    selection_solve_checked(gram, xty, lambdas, cfg, k)
        .unwrap_or_else(|| vec![Vec::new(); lambdas.len()])
}

/// [`selection_solve`] with drop semantics: `None` means the task fell
/// off the end of the numerical fallback ladder (factorisation exhausted
/// or a lambda stayed diverged through every rho restart) and should be
/// dropped into the degraded-mode quorum accounting.
///
/// With resilience disabled this is the historical unguarded solve —
/// zero extra work, bit-identical iterates — and never returns `None`
/// (breakdowns panic, as they always did).
pub(crate) fn selection_solve_checked(
    gram: Matrix,
    xty: &[f64],
    lambdas: &[f64],
    cfg: &UoiLassoConfig,
    k: usize,
) -> Option<Vec<Vec<usize>>> {
    let mut admm = cfg.admm.clone();
    admm.capture_curve = cfg.telemetry.tracing_enabled();
    if !cfg.numerical.enabled {
        let mut solver = LassoAdmm::from_gram(gram, admm);
        if let Some(m) = cfg.telemetry.metrics() {
            solver = solver.with_metrics(m);
        }
        let sols = solver.solve_path_with_rhs(xty, lambdas);
        return Some(record_selection_supports(sols, lambdas, cfg, k));
    }
    let ledger = cfg.numerical.ledger();
    let mut solver = match ResilientLasso::from_gram(gram, admm, cfg.numerical.resilience) {
        Ok(s) => s,
        Err(e) => {
            if let SolverError::Factorization(b) = &e {
                ledger.note_factor(
                    &cfg.telemetry,
                    "selection",
                    k,
                    &uoi_solvers::FactorHealth {
                        attempts: u32::MAX,
                        jitter: b.last_jitter,
                        condest: None,
                    },
                );
            }
            ledger.note_task_dropped(&cfg.telemetry, "selection", k, &e.to_string());
            return None;
        }
    };
    if let Some(m) = cfg.telemetry.metrics() {
        solver = solver.with_metrics(m);
    }
    let (sols, health) = solver.solve_path_with_rhs(xty, lambdas);
    ledger.note_path(&cfg.telemetry, "selection", k, &health);
    if !health.diverged.is_empty() {
        ledger.note_task_dropped(&cfg.telemetry, "selection", k, "divergence_unrecovered");
        return None;
    }
    Some(record_selection_supports(sols, lambdas, cfg, k))
}

/// Extract per-lambda supports from a solved path, emitting one
/// [`TraceEvent::Convergence`] per lambda — shared by the guarded and
/// unguarded selection solves so their trace output is identical.
fn record_selection_supports(
    sols: Vec<uoi_solvers::AdmmSolution>,
    lambdas: &[f64],
    cfg: &UoiLassoConfig,
    k: usize,
) -> Vec<Vec<usize>> {
    let mut supports = Vec::with_capacity(sols.len());
    for (j, sol) in sols.into_iter().enumerate() {
        let support = support_of(&sol.beta, cfg.support_tol);
        cfg.telemetry.record_with(|| TraceEvent::Convergence {
            rank: 0,
            stage: "selection",
            bootstrap: k,
            lambda_idx: j,
            lambda: lambdas[j],
            iterations: sol.iterations,
            max_iter: cfg.admm.max_iter,
            converged: sol.converged,
            primal_residual: sol.primal_residual,
            dual_residual: sol.dual_residual,
            support: support.clone(),
            curve: sol.curve,
            t: 0.0,
        });
        supports.push(support);
    }
    supports
}

/// Emit estimation resample `k`'s convergence record. The estimation
/// step is a direct OLS solve — no iterative solver runs — so the task
/// reports zero iterations and always converges; it exists so progress
/// tracking and the task census cover both stages.
pub(crate) fn record_estimation_convergence(tel: &Telemetry, k: usize) {
    tel.record_with(|| TraceEvent::Convergence {
        rank: 0,
        stage: "estimation",
        bootstrap: k,
        lambda_idx: 0,
        lambda: 0.0,
        iterations: 0,
        max_iter: 0,
        converged: true,
        primal_residual: 0.0,
        dual_residual: 0.0,
        support: Vec::new(),
        curve: Vec::new(),
        t: 0.0,
    });
}

/// The full selection task body for bootstrap `k` (Algorithm 1 lines
/// 2–10): shared by the serial rayon loop and the recovering pipeline's
/// per-rank task execution, so re-executed tasks are bit-identical.
pub(crate) fn selection_task(
    xc: &Matrix,
    yc: &[f64],
    lambdas: &[f64],
    cfg: &UoiLassoConfig,
    k: usize,
) -> Vec<Vec<usize>> {
    let (gram, xty) = selection_gram(xc, yc, cfg.seed, k);
    selection_solve(gram, &xty, lambdas, cfg, k)
}

/// Intersect per-lambda supports across surviving bootstraps (eq. 3 with
/// the soft-threshold generalisation).
pub(crate) fn intersect_per_lambda(
    supports_by_bootstrap: &[&Vec<Vec<usize>>],
    q: usize,
    p: usize,
    needed: usize,
) -> Vec<Vec<usize>> {
    let effective = supports_by_bootstrap.len();
    (0..q)
        .map(|j| {
            if needed == effective {
                let per_k: Vec<Vec<usize>> = supports_by_bootstrap
                    .iter()
                    .map(|sk| sk[j].clone())
                    .collect();
                intersect_many(&per_k)
            } else {
                let mut votes = vec![0usize; p];
                for sk in supports_by_bootstrap {
                    for &f in &sk[j] {
                        votes[f] += 1;
                    }
                }
                (0..p).filter(|&f| votes[f] >= needed).collect()
            }
        })
        .collect()
}

/// Project the centred design onto the candidate family's feature union:
/// returns `(union, xu, family_u)` with the family re-indexed into union
/// coordinates.
pub(crate) fn estimation_setup(
    support_family: &[Vec<usize>],
    p: usize,
    xc: &Matrix,
) -> (Vec<usize>, Matrix, Vec<Vec<usize>>) {
    let mut union: Vec<usize> = support_family.iter().flatten().copied().collect();
    union.sort_unstable();
    union.dedup();
    let mut union_pos = vec![usize::MAX; p];
    for (a, &f) in union.iter().enumerate() {
        union_pos[f] = a;
    }
    let xu = xc.gather_cols(&union);
    let family_u: Vec<Vec<usize>> = support_family
        .iter()
        .map(|s| s.iter().map(|&f| union_pos[f]).collect())
        .collect();
    (union, xu, family_u)
}

/// Estimation resample `k`'s train/eval split: the zero-copy train
/// weights, the out-of-bag evaluation rows, and the train count.
pub(crate) fn estimation_resample(n: usize, seed: u64, k: usize) -> (Vec<f64>, Vec<usize>, usize) {
    let mut rng = substream(seed, 10_000 + k as u64);
    let (train_idx, eval_idx) = bootstrap_with_oob(&mut rng, n);
    let n_train = train_idx.len();
    let w = resample_weights(&train_idx, n);
    (w, eval_idx, n_train)
}

/// One estimation resample's linear system plus its split — everything
/// [`estimation_score`] needs beyond the shared projected design.
pub(crate) struct EstimationSystem {
    /// Upper-stored weighted union Gram `X_u^T diag(w) X_u`.
    pub gram_u: Matrix,
    /// `X_u^T diag(w) y`.
    pub xty_u: Vec<f64>,
    /// Train multiplicities.
    pub w: Vec<f64>,
    /// Out-of-bag evaluation rows.
    pub eval_idx: Vec<usize>,
    /// Training sample count.
    pub n_train: usize,
}

/// The full estimation task body for resample `k` (Algorithm 1 lines
/// 13–23): scores every candidate support and returns the winner
/// embedded in full-`p` coordinates. Shared by the serial loop and the
/// recovering pipeline; a batch of one through the batched Gram engine,
/// bit-identical to the same resample inside `fit_inner`'s batched pass.
pub(crate) fn estimation_task(
    xu: &Matrix,
    yc: &[f64],
    family_u: &[Vec<usize>],
    union: &[usize],
    p: usize,
    cfg: &UoiLassoConfig,
    k: usize,
) -> Vec<f64> {
    let (w, eval_idx, n_train) = estimation_resample(xu.rows(), cfg.seed, k);
    let (gram_u, xty_u) = uoi_linalg::gram_rhs_batch(xu, yc, &[&w])
        .pop()
        .expect("batch of one");
    let sys = EstimationSystem {
        gram_u: gram_u.into_upper(),
        xty_u,
        w,
        eval_idx,
        n_train,
    };
    let full = estimation_score(xu, yc, family_u, union, p, cfg, &sys, k);
    record_estimation_convergence(&cfg.telemetry, k);
    full
}

/// Score every candidate support on one resample's system and return the
/// winner embedded in full-`p` coordinates. All Gram reads (sub-Gram
/// extraction, `symv` quad form) touch only the upper triangle, so the
/// upper-stored batched Gram needs no mirror.
pub(crate) fn estimation_score(
    xu: &Matrix,
    yc: &[f64],
    family_u: &[Vec<usize>],
    union: &[usize],
    p: usize,
    cfg: &UoiLassoConfig,
    sys: &EstimationSystem,
    k: usize,
) -> Vec<f64> {
    let EstimationSystem {
        gram_u,
        xty_u,
        w,
        eval_idx,
        n_train,
    } = sys;
    let (eval_idx, n_train) = (eval_idx.as_slice(), *n_train);
    // Weighted training RSS identity for BIC:
    // ||X_b b - y_b||^2 = b'Gb - 2 b'(X^T y)_w + sum_i w_i y_i^2.
    let ysq_w = match cfg.score {
        EstimationScore::Bic => weighted_sumsq(w, yc),
        EstimationScore::Mse => 0.0,
    };

    let mut best: Option<(f64, Vec<f64>)> = None;
    for (c, support_u) in family_u.iter().enumerate() {
        // The guarded OLS walks the jitter ladder on singular sub-Grams
        // and reports what it consumed; the unguarded historical path
        // stays the default (identical results on clean candidates).
        let beta_u = if cfg.numerical.enabled {
            let (beta_u, health) = ols_on_support_gram_health(gram_u, xty_u, support_u, n_train);
            if health != uoi_solvers::FactorHealth::clean() {
                cfg.numerical.ledger().note_candidate_factor(
                    &cfg.telemetry,
                    "estimation",
                    k,
                    c,
                    &health,
                );
            }
            beta_u
        } else {
            ols_on_support_gram(gram_u, xty_u, support_u, n_train)
        };
        let loss = match cfg.score {
            EstimationScore::Mse => {
                let mut sum = 0.0;
                for &e in eval_idx {
                    let d = dot(xu.row(e), &beta_u) - yc[e];
                    sum += d * d;
                }
                sum / eval_idx.len() as f64
            }
            EstimationScore::Bic => {
                // The Gram is symmetric, so the cache-blocked symv halves
                // the memory traffic of the quad-form against a general
                // gemv (agreement ~1e-12, well inside BIC's resolution).
                let mut gb = vec![0.0; beta_u.len()];
                kernels::symv(gram_u, &beta_u, &mut gb);
                let quad = dot(&beta_u, &gb);
                let rss = (quad - 2.0 * dot(&beta_u, xty_u) + ysq_w).max(0.0);
                bic_from_rss(rss, n_train, support_u.len())
            }
        };
        if best.as_ref().is_none_or(|(l, _)| loss < *l) {
            best = Some((loss, beta_u));
        }
    }
    // Embed the winner back into full-p coordinates; an empty family (or
    // all-empty supports) estimates zero.
    let mut full = vec![0.0; p];
    if let Some((_, bu)) = best {
        for (&f, &v) in union.iter().zip(&bu) {
            full[f] = v;
        }
    }
    full
}

/// Average the winning estimates (eq. 4) and restore the intercept:
/// `y ≈ (x - x̄) b + ȳ  =>  icpt = ȳ - x̄·b`.
pub(crate) fn average_and_intercept(
    best_estimates: &[&Vec<f64>],
    p: usize,
    x_means: &[f64],
    y_mean: f64,
) -> (Vec<f64>, f64) {
    let effective_b2 = best_estimates.len();
    let mut beta = vec![0.0; p];
    for est in best_estimates {
        for (b, e) in beta.iter_mut().zip(est.iter()) {
            *b += e;
        }
    }
    for b in &mut beta {
        *b /= effective_b2 as f64;
    }
    let intercept = y_mean - uoi_linalg::dot(x_means, &beta);
    (beta, intercept)
}

/// The validated fit body (inputs already checked).
pub(crate) fn fit_inner(x: &Matrix, y: &[f64], cfg: &UoiLassoConfig) -> Result<UoiFit, UoiError> {
    let p = x.cols();

    // Degraded-mode / checkpoint machinery. All of it is inert (and
    // free) in the default configuration.
    let plan = cfg.degradation.plan.as_ref();
    let store = match &cfg.checkpoint {
        Some(ck) => Some(
            CheckpointStore::open(&ck.dir, cfg.ckpt_fingerprint(x, y))?
                .with_telemetry(&cfg.telemetry),
        ),
        None => None,
    };
    // Preemption hook: a shared budget of newly computed tasks; once it
    // runs dry the remaining tasks refuse to start and the fit returns
    // `Interrupted`, leaving finished checkpoints behind.
    let budget = cfg
        .checkpoint
        .as_ref()
        .and_then(|ck| ck.abort_after)
        .map(|k| AtomicI64::new(k as i64));
    let interrupted = AtomicBool::new(false);
    let computed = AtomicUsize::new(0);
    // Reserve one budget unit; `false` → the run is being preempted.
    let reserve = || match &budget {
        None => true,
        Some(b) => {
            if b.fetch_sub(1, Ordering::SeqCst) > 0 {
                true
            } else {
                interrupted.store(true, Ordering::SeqCst);
                false
            }
        }
    };

    // Centre.
    let (xc, yc, x_means, y_mean) = centre_data(x, y);

    // Shared lambda grid from the full centred data.
    let lambdas = lambda_path(&xc, &yc, cfg.q, cfg.lambda_min_ratio);

    // --- Model selection: B1 bootstraps x q lambdas. ---
    // Zero-copy: the resample never materialises X_b. The multiplicity
    // vector c of the bootstrap gives X_b^T X_b = sum_i c_i x_i x_i^T and
    // X_b^T y_b = sum_i c_i y_i x_i, so each bootstrap accumulates a
    // weighted Gram + rhs over the shared centred design and solves the
    // whole lambda path from those.
    // Triage first (fault plan, checkpoint hits, preemption budget — all
    // sequential in ascending k, so budget consumption is deterministic),
    // then one batched Gram + rhs pass over the centred design covers
    // every bootstrap still to compute: the design streams from memory
    // once instead of once per bootstrap. A slot holds `Some(supports)`
    // on success and `None` when the fault plan killed the task or the
    // preemption budget ran dry; `Err` only for checkpoint write failures.
    let selection_results: Vec<Option<Vec<Vec<usize>>>> =
        traced(&cfg.telemetry, "uoi_lasso.selection", || {
            let mut slots: Vec<Option<Vec<Vec<usize>>>> = (0..cfg.b1).map(|_| None).collect();
            let mut to_compute: Vec<usize> = Vec::new();
            for k in 0..cfg.b1 {
                if plan.is_some_and(|pl| pl.selection_failed(k)) {
                    cfg.telemetry.incr("uoi.degraded.selection_failures", 1);
                    continue;
                }
                if let Some(st) = &store {
                    if let Some(loaded) = st.load_supports("sel", k, cfg.q) {
                        cfg.telemetry.incr("uoi.ckpt.selection_hits", 1);
                        slots[k] = Some(loaded);
                        continue;
                    }
                }
                if reserve() {
                    to_compute.push(k);
                }
            }
            let weights: Vec<Vec<f64>> = to_compute
                .iter()
                .map(|&k| selection_weights(xc.rows(), cfg.seed, k))
                .collect();
            if cfg.numerical.active() {
                for (&k, w) in to_compute.iter().zip(&weights) {
                    note_degenerate_resample(cfg, "selection", k, w);
                }
            }
            let wrefs: Vec<&[f64]> = weights.iter().map(|w| w.as_slice()).collect();
            let systems = uoi_linalg::gram_rhs_batch(&xc, &yc, &wrefs);
            let work: Vec<_> = to_compute.iter().copied().zip(systems).collect();
            let solved = work
                .into_par_iter()
                .map(|(k, (gram, xty))| {
                    // `None` = the task fell off the numerical fallback
                    // ladder; the slot stays empty and the task joins
                    // the degraded-mode quorum accounting below. Dropped
                    // tasks are never checkpointed: a rerun retries them.
                    let supports =
                        selection_solve_checked(gram.into_upper(), &xty, &lambdas, cfg, k);
                    if let (Some(st), Some(sup)) = (&store, &supports) {
                        st.save_supports("sel", k, sup)?;
                    }
                    computed.fetch_add(1, Ordering::SeqCst);
                    Ok((k, supports))
                })
                .collect::<Result<Vec<_>, UoiError>>()?;
            for (k, supports) in solved {
                slots[k] = supports;
            }
            Ok::<_, UoiError>(slots)
        })?;
    if interrupted.load(Ordering::SeqCst) {
        return Err(UoiError::Interrupted {
            completed: computed.load(Ordering::SeqCst),
        });
    }
    let supports_by_bootstrap: Vec<&Vec<Vec<usize>>> = selection_results.iter().flatten().collect();
    let effective_b1 = supports_by_bootstrap.len();
    cfg.degradation
        .check_quorum("selection", effective_b1, cfg.b1)?;

    // Intersect across *surviving* bootstraps per lambda (eq. 3), with
    // the soft threshold generalisation: keep features present in at
    // least `ceil(frac * B1_effective)` surviving supports.
    let needed = required_votes(cfg.intersection_frac, effective_b1);
    let supports_per_lambda = intersect_per_lambda(&supports_by_bootstrap, cfg.q, p, needed);
    let support_family = dedup_family(supports_per_lambda.clone());

    cfg.telemetry
        .incr("uoi.selection.bootstraps", effective_b1 as u64);
    for s in &supports_per_lambda {
        cfg.telemetry
            .observe("uoi.selection.support_size", s.len() as f64);
    }
    cfg.telemetry
        .gauge("uoi.selection.family_size", support_family.len() as f64);

    // --- Model estimation: B2 train/eval resamples. ---
    // The candidate family only ever references the union of its
    // features, so the design is projected onto those columns once per
    // fit; each resample then builds one weighted union-Gram and every
    // support's OLS is an |S|x|S| sub-Gram extraction + factor, with no
    // per-resample (or per-support) row gathering.
    let (union, xu, family_u) = estimation_setup(&support_family, p, &xc);

    // Estimation checkpoints additionally depend on the candidate family
    // (which shifts when B1 or the fault plan changes), so the family is
    // folded into the stage name — stale estimates from a different
    // family can never be replayed.
    let est_stage = store.as_ref().map(|_| {
        let fam_words = support_family
            .iter()
            .flat_map(|s| std::iter::once(s.len() as u64).chain(s.iter().map(|&f| f as u64)));
        format!("est_{:016x}", fingerprint(fam_words))
    });

    // Same triage-then-batch shape as selection: one batched pass over
    // the projected design builds every surviving resample's union Gram
    // and rhs together.
    let est_results: Vec<Option<Vec<f64>>> =
        traced(&cfg.telemetry, "uoi_lasso.estimation", || {
            let mut slots: Vec<Option<Vec<f64>>> = (0..cfg.b2).map(|_| None).collect();
            let mut to_compute: Vec<usize> = Vec::new();
            for k in 0..cfg.b2 {
                if plan.is_some_and(|pl| pl.estimation_failed(k)) {
                    cfg.telemetry.incr("uoi.degraded.estimation_failures", 1);
                    continue;
                }
                if let (Some(st), Some(stage)) = (&store, &est_stage) {
                    if let Some(loaded) = st.load_coeffs(stage, k, p) {
                        cfg.telemetry.incr("uoi.ckpt.estimation_hits", 1);
                        slots[k] = Some(loaded);
                        continue;
                    }
                }
                if reserve() {
                    to_compute.push(k);
                }
            }
            let resamples: Vec<(Vec<f64>, Vec<usize>, usize)> = to_compute
                .iter()
                .map(|&k| estimation_resample(xu.rows(), cfg.seed, k))
                .collect();
            if cfg.numerical.active() {
                for (&k, (w, _, _)) in to_compute.iter().zip(&resamples) {
                    note_degenerate_resample(cfg, "estimation", k, w);
                }
            }
            let wrefs: Vec<&[f64]> = resamples.iter().map(|(w, _, _)| w.as_slice()).collect();
            let systems = uoi_linalg::gram_rhs_batch(&xu, &yc, &wrefs);
            let work: Vec<_> = to_compute
                .iter()
                .copied()
                .zip(resamples.into_iter().zip(systems))
                .collect();
            let solved = work
                .into_par_iter()
                .map(|(k, ((w, eval_idx, n_train), (gram_u, xty_u)))| {
                    let sys = EstimationSystem {
                        gram_u: gram_u.into_upper(),
                        xty_u,
                        w,
                        eval_idx,
                        n_train,
                    };
                    let full = estimation_score(&xu, &yc, &family_u, &union, p, cfg, &sys, k);
                    record_estimation_convergence(&cfg.telemetry, k);
                    if let (Some(st), Some(stage)) = (&store, &est_stage) {
                        st.save_coeffs(stage, k, &full)?;
                    }
                    computed.fetch_add(1, Ordering::SeqCst);
                    Ok((k, full))
                })
                .collect::<Result<Vec<_>, UoiError>>()?;
            for (k, full) in solved {
                slots[k] = Some(full);
            }
            Ok::<_, UoiError>(slots)
        })?;
    if interrupted.load(Ordering::SeqCst) {
        return Err(UoiError::Interrupted {
            completed: computed.load(Ordering::SeqCst),
        });
    }
    let best_estimates: Vec<&Vec<f64>> = est_results.iter().flatten().collect();
    let effective_b2 = best_estimates.len();
    cfg.degradation
        .check_quorum("estimation", effective_b2, cfg.b2)?;

    // Average the winners (eq. 4) over surviving estimation bootstraps and
    // restore the intercept.
    let (beta, intercept) = average_and_intercept(&best_estimates, p, &x_means, y_mean);
    let support = support_of(&beta, cfg.support_tol);

    cfg.telemetry
        .incr("uoi.estimation.bootstraps", effective_b2 as u64);
    cfg.telemetry
        .gauge("uoi.support_size", support.len() as f64);

    let degradation = plan.map(|pl| DegradationReport {
        b1_planned: cfg.b1,
        b1_effective: effective_b1,
        b2_planned: cfg.b2,
        b2_effective: effective_b2,
        failed_selection: (0..cfg.b1).filter(|&k| pl.selection_failed(k)).collect(),
        failed_estimation: (0..cfg.b2).filter(|&k| pl.estimation_failed(k)).collect(),
        quorum_votes: needed,
        min_quorum_frac: cfg.degradation.min_quorum_frac,
    });

    Ok(UoiFit {
        beta,
        intercept,
        support,
        lambdas,
        supports_per_lambda,
        support_family,
        degradation,
        recovery: None,
        speculation: None,
        numerical: cfg
            .numerical
            .active()
            .then(|| cfg.numerical.ledger().drain_report()),
    })
}

/// Flag a resample whose multiplicity mass sits on at most one distinct
/// row: its weighted Gram has rank <= 1, the classic zero-variance
/// degeneracy. Flag-only — the guarded solver absorbs the singular
/// system; this just names the cause in the health report.
pub(crate) fn note_degenerate_resample(
    cfg: &UoiLassoConfig,
    stage: &'static str,
    k: usize,
    w: &[f64],
) {
    let distinct = w.iter().filter(|v| **v > 0.0).count();
    if distinct <= 1 {
        cfg.numerical.ledger().note_resample_issue(
            &cfg.telemetry,
            stage,
            k,
            &uoi_data::DataIssue::DegenerateResample {
                bootstrap: k,
                distinct_rows: distinct,
            },
        );
    }
}

/// Votes required by the soft intersection: `ceil(frac * b1)`, clamped
/// to `[1, b1]`.
pub(crate) fn required_votes(frac: f64, b1: usize) -> usize {
    assert!(
        (0.0..=1.0).contains(&frac) && frac > 0.0,
        "intersection_frac must be in (0, 1]"
    );
    ((frac * b1 as f64).ceil() as usize).clamp(1, b1)
}

/// Bayesian information criterion of an OLS fit:
/// `n ln(RSS/n) + k ln(n)` (additive constants dropped).
pub fn bic(x: &Matrix, beta: &[f64], y: &[f64], k: usize) -> f64 {
    let n = y.len().max(1) as f64;
    let rss = uoi_linalg::mse(x, beta, y) * n;
    bic_from_rss(rss, y.len(), k)
}

/// BIC from a precomputed residual sum of squares — the Gram-space
/// estimation loop gets `RSS` from the weighted-Gram identity without
/// ever forming predictions.
pub fn bic_from_rss(rss: f64, n: usize, k: usize) -> f64 {
    let n = n.max(1) as f64;
    n * (rss / n).max(1e-300).ln() + k as f64 * n.ln()
}

/// A bootstrap training resample plus its out-of-bag evaluation rows.
/// Falls back to a half/half split if the resample covered every row.
pub(crate) fn bootstrap_with_oob(
    rng: &mut rand::rngs::StdRng,
    n: usize,
) -> (Vec<usize>, Vec<usize>) {
    let train = row_bootstrap(rng, n, n);
    let mut in_train = vec![false; n];
    for &i in &train {
        in_train[i] = true;
    }
    let eval: Vec<usize> = (0..n).filter(|&i| !in_train[i]).collect();
    if eval.is_empty() {
        // Degenerate (only possible for tiny n): deterministic half split.
        let cut = (n / 2).max(1);
        ((0..cut).collect(), (cut..n).collect())
    } else {
        (train, eval)
    }
}

/// The pre-zero-copy reference fit: materialises every bootstrap design
/// with `gather_rows` and scores candidates in design space. Kept as the
/// equivalence oracle for the weighted-Gram fast path — any divergence
/// beyond floating-point summation order is a bug in the fast path.
#[cfg(test)]
pub(crate) fn fit_inner_materialized(x: &Matrix, y: &[f64], cfg: &UoiLassoConfig) -> UoiFit {
    use uoi_solvers::ols_on_support;
    let (n, p) = x.shape();

    let x_means = x.col_means();
    let y_mean = y.iter().sum::<f64>() / n as f64;
    let mut xc = x.clone();
    xc.center_cols(&x_means);
    let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

    let lambdas = lambda_path(&xc, &yc, cfg.q, cfg.lambda_min_ratio);

    let supports_by_bootstrap: Vec<Vec<Vec<usize>>> = (0..cfg.b1)
        .map(|k| {
            let mut rng = substream(cfg.seed, k as u64);
            let idx = row_bootstrap(&mut rng, n, n);
            let xb = xc.gather_rows(&idx);
            let yb: Vec<f64> = idx.iter().map(|&i| yc[i]).collect();
            let solver = LassoAdmm::new(xb, cfg.admm.clone());
            solver
                .solve_path(&yb, &lambdas)
                .into_iter()
                .map(|sol| support_of(&sol.beta, cfg.support_tol))
                .collect()
        })
        .collect();

    let needed = required_votes(cfg.intersection_frac, cfg.b1);
    let supports_per_lambda: Vec<Vec<usize>> = (0..cfg.q)
        .map(|j| {
            if needed == cfg.b1 {
                let per_k: Vec<Vec<usize>> = supports_by_bootstrap
                    .iter()
                    .map(|sk| sk[j].clone())
                    .collect();
                intersect_many(&per_k)
            } else {
                let mut votes = vec![0usize; p];
                for sk in &supports_by_bootstrap {
                    for &f in &sk[j] {
                        votes[f] += 1;
                    }
                }
                (0..p).filter(|&f| votes[f] >= needed).collect()
            }
        })
        .collect();
    let support_family = dedup_family(supports_per_lambda.clone());

    let best_estimates: Vec<Vec<f64>> = (0..cfg.b2)
        .map(|k| {
            let mut rng = substream(cfg.seed, 10_000 + k as u64);
            let (train_idx, eval_idx) = bootstrap_with_oob(&mut rng, n);
            let xt = xc.gather_rows(&train_idx);
            let yt: Vec<f64> = train_idx.iter().map(|&i| yc[i]).collect();
            let xe = xc.gather_rows(&eval_idx);
            let ye: Vec<f64> = eval_idx.iter().map(|&i| yc[i]).collect();

            let mut best: Option<(f64, Vec<f64>)> = None;
            for support in &support_family {
                let beta = ols_on_support(&xt, &yt, support);
                let loss = match cfg.score {
                    EstimationScore::Mse => uoi_linalg::mse(&xe, &beta, &ye),
                    EstimationScore::Bic => bic(&xt, &beta, &yt, support.len()),
                };
                if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                    best = Some((loss, beta));
                }
            }
            best.map(|(_, b)| b).unwrap_or_else(|| vec![0.0; p])
        })
        .collect();

    let mut beta = vec![0.0; p];
    for est in &best_estimates {
        for (b, e) in beta.iter_mut().zip(est) {
            *b += e;
        }
    }
    for b in &mut beta {
        *b /= cfg.b2 as f64;
    }

    let intercept = y_mean - uoi_linalg::dot(&x_means, &beta);
    let support = support_of(&beta, cfg.support_tol);

    UoiFit {
        beta,
        intercept,
        support,
        lambdas,
        supports_per_lambda,
        support_family,
        degradation: None,
        recovery: None,
        speculation: None,
        numerical: None,
    }
}

#[cfg(test)]
// Exercises the deprecated free-function fit surface on purpose: these
// tests pin its behaviour for as long as the wrappers exist.
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::metrics::SelectionCounts;
    use uoi_data::{LinearConfig, LinearDataset};

    fn dataset() -> LinearDataset {
        LinearConfig {
            n_samples: 120,
            n_features: 30,
            n_nonzero: 5,
            snr: 10.0,
            seed: 7,
            ..Default::default()
        }
        .generate()
    }

    fn quick_cfg() -> UoiLassoConfig {
        UoiLassoConfig {
            b1: 10,
            b2: 8,
            q: 14,
            lambda_min_ratio: 2e-2,
            admm: AdmmConfig {
                max_iter: 800,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn recovers_true_support_with_few_false_positives() {
        let ds = dataset();
        let fit = fit_uoi_lasso(&ds.x, &ds.y, &quick_cfg());
        let counts = SelectionCounts::compare(&fit.support, &ds.support_true, 30);
        assert!(
            counts.recall() >= 0.8,
            "recall {} support {:?} truth {:?}",
            counts.recall(),
            fit.support,
            ds.support_true
        );
        assert!(
            counts.false_positives <= 3,
            "FP = {}",
            counts.false_positives
        );
    }

    #[test]
    fn estimates_have_low_bias() {
        // The union/OLS step should undo LASSO shrinkage: estimates on the
        // true support close to the truth.
        let ds = dataset();
        let fit = fit_uoi_lasso(&ds.x, &ds.y, &quick_cfg());
        for &j in &ds.support_true {
            if fit.support.contains(&j) {
                assert!(
                    (fit.beta[j] - ds.beta_true[j]).abs() < 0.25,
                    "feature {j}: {} vs {}",
                    fit.beta[j],
                    ds.beta_true[j]
                );
            }
        }
    }

    #[test]
    fn union_support_contains_family_winners() {
        let ds = dataset();
        let fit = fit_uoi_lasso(&ds.x, &ds.y, &quick_cfg());
        // Every supported coefficient must belong to at least one family
        // member (averaging cannot invent features).
        for &j in &fit.support {
            assert!(
                fit.support_family.iter().any(|s| s.contains(&j)),
                "feature {j} outside the candidate family"
            );
        }
    }

    #[test]
    fn zero_copy_fit_matches_materialized_reference() {
        let ds = dataset();
        for cfg in [
            quick_cfg(),
            UoiLassoConfig {
                score: EstimationScore::Bic,
                ..quick_cfg()
            },
        ] {
            let fast = fit_uoi_lasso(&ds.x, &ds.y, &cfg);
            let reference = fit_inner_materialized(&ds.x, &ds.y, &cfg);
            assert_eq!(fast.supports_per_lambda, reference.supports_per_lambda);
            assert_eq!(fast.support_family, reference.support_family);
            assert_eq!(fast.support, reference.support);
            for (a, b) in fast.beta.iter().zip(&reference.beta) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
            assert!((fast.intercept - reference.intercept).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = dataset();
        let a = fit_uoi_lasso(&ds.x, &ds.y, &quick_cfg());
        let b = fit_uoi_lasso(&ds.x, &ds.y, &quick_cfg());
        assert_eq!(a.beta, b.beta);
        assert_eq!(a.support, b.support);
    }

    #[test]
    fn intercept_recovered() {
        // Shift y by a constant; the intercept must absorb it.
        let ds = dataset();
        let y_shift: Vec<f64> = ds.y.iter().map(|v| v + 7.5).collect();
        let base = fit_uoi_lasso(&ds.x, &ds.y, &quick_cfg());
        let shifted = fit_uoi_lasso(&ds.x, &y_shift, &quick_cfg());
        assert!(
            (shifted.intercept - base.intercept - 7.5).abs() < 1e-6,
            "intercepts {} vs {}",
            shifted.intercept,
            base.intercept
        );
        for (a, b) in shifted.beta.iter().zip(&base.beta) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn predict_matches_truth_on_clean_data() {
        let ds = LinearConfig {
            n_samples: 100,
            n_features: 12,
            n_nonzero: 3,
            snr: 1e5,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let fit = fit_uoi_lasso(&ds.x, &ds.y, &quick_cfg());
        let pred = fit.predict(&ds.x);
        let resid: f64 = pred
            .iter()
            .zip(&ds.y)
            .map(|(p, y)| (p - y) * (p - y))
            .sum::<f64>()
            / ds.y.len() as f64;
        let var_y: f64 = {
            let m = ds.y.iter().sum::<f64>() / ds.y.len() as f64;
            ds.y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / ds.y.len() as f64
        };
        assert!(resid < 0.01 * var_y, "residual {resid} vs var {var_y}");
    }

    #[test]
    fn soft_intersection_grows_supports() {
        let ds = dataset();
        let strict = fit_uoi_lasso(&ds.x, &ds.y, &quick_cfg());
        let soft = fit_uoi_lasso(
            &ds.x,
            &ds.y,
            &UoiLassoConfig {
                intersection_frac: 0.6,
                ..quick_cfg()
            },
        );
        // Every strict lambda-support is contained in the soft one.
        for (s, f) in strict
            .supports_per_lambda
            .iter()
            .zip(&soft.supports_per_lambda)
        {
            for j in s {
                assert!(f.contains(j), "soft intersection must be a superset");
            }
        }
        // And soft keeps at least the strict recall.
        let cs = SelectionCounts::compare(&strict.support, &ds.support_true, 30);
        let cf = SelectionCounts::compare(&soft.support, &ds.support_true, 30);
        assert!(cf.recall() >= cs.recall());
    }

    #[test]
    fn required_votes_bounds() {
        assert_eq!(required_votes(1.0, 10), 10);
        assert_eq!(required_votes(0.5, 10), 5);
        assert_eq!(required_votes(0.01, 10), 1);
        assert_eq!(required_votes(0.95, 10), 10);
    }

    #[test]
    fn bic_scoring_also_recovers_support() {
        let ds = dataset();
        let fit = fit_uoi_lasso(
            &ds.x,
            &ds.y,
            &UoiLassoConfig {
                score: EstimationScore::Bic,
                ..quick_cfg()
            },
        );
        let counts = SelectionCounts::compare(&fit.support, &ds.support_true, 30);
        assert!(counts.recall() >= 0.8, "BIC recall {}", counts.recall());
        assert!(
            counts.false_positives <= 3,
            "BIC FP {}",
            counts.false_positives
        );
    }

    #[test]
    fn bic_prefers_parsimony() {
        // A support with irrelevant extras must score worse than the true
        // support under BIC on clean data.
        let ds = LinearConfig {
            n_samples: 150,
            n_features: 20,
            n_nonzero: 4,
            snr: 50.0,
            seed: 3,
            ..Default::default()
        }
        .generate();
        let beta_true_fit = uoi_solvers::ols_on_support(&ds.x, &ds.y, &ds.support_true);
        let mut padded = ds.support_true.clone();
        for j in 0..20 {
            if !padded.contains(&j) && padded.len() < 12 {
                padded.push(j);
            }
        }
        padded.sort_unstable();
        let beta_padded = uoi_solvers::ols_on_support(&ds.x, &ds.y, &padded);
        let b_true = bic(&ds.x, &beta_true_fit, &ds.y, ds.support_true.len());
        let b_pad = bic(&ds.x, &beta_padded, &ds.y, padded.len());
        assert!(b_true < b_pad, "BIC true {b_true} vs padded {b_pad}");
    }

    #[test]
    fn bootstrap_with_oob_partitions() {
        let mut rng = uoi_data::rng::seeded(3);
        let (train, eval) = bootstrap_with_oob(&mut rng, 100);
        assert_eq!(train.len(), 100);
        assert!(!eval.is_empty());
        for &e in &eval {
            assert!(!train.contains(&e), "eval row {e} leaked into training");
        }
    }

    #[test]
    fn more_selection_bootstraps_never_grow_supports() {
        // Monotonicity of the intersection in B1 (same seed prefix).
        let ds = dataset();
        let small = fit_uoi_lasso(
            &ds.x,
            &ds.y,
            &UoiLassoConfig {
                b1: 4,
                ..quick_cfg()
            },
        );
        let large = fit_uoi_lasso(
            &ds.x,
            &ds.y,
            &UoiLassoConfig {
                b1: 8,
                ..quick_cfg()
            },
        );
        for (s_large, s_small) in large
            .supports_per_lambda
            .iter()
            .zip(&small.supports_per_lambda)
        {
            for j in s_large {
                assert!(
                    s_small.contains(j),
                    "lambda-wise intersection must shrink with B1"
                );
            }
        }
    }
}

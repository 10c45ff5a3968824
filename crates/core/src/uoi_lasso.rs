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
use crate::engine::{self, FitParts, Names, Resample, System, UoiProblem};
use crate::error::{all_finite, UoiError};
use crate::numerical::NumericalConfig;
#[cfg(test)]
use crate::support::{dedup_family, intersect_many};
use std::borrow::Cow;
use uoi_data::bootstrap::{resample_weights, row_bootstrap};
use uoi_data::rng::substream;
use uoi_data::ValidationOutcome;
#[cfg(test)]
use uoi_linalg::gemv_t;
use uoi_linalg::{dot, kernels, weighted_sumsq, Matrix};
#[cfg(test)]
use uoi_solvers::LassoAdmm;
use uoi_solvers::{lambda_path, support_of, AdmmConfig};
use uoi_telemetry::{NumericalHealthReport, Telemetry};

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
        self.ckpt_fingerprint_of(x, y, generation_word())
    }

    /// [`Self::ckpt_fingerprint`] with an explicit [`generation_word`].
    fn ckpt_fingerprint_of(&self, x: &Matrix, y: &[f64], generation: u64) -> u64 {
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
            generation,
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

/// Checkpoint-fingerprint word of the numerics that produced a
/// checkpoint: the solver's lambda-path algorithm
/// ([`uoi_solvers::PATH_VARIANT`]) and the Gram kernel's floating-point
/// bracketing ([`uoi_linalg::gram::BRACKETING`], one name for every ISA
/// variant). Checkpoints written by another path algorithm or bracketing
/// miss instead of mixing their numbers into one fit.
pub(crate) fn generation_word() -> u64 {
    generation_word_of(uoi_solvers::PATH_VARIANT, uoi_linalg::gram::BRACKETING)
}

/// [`generation_word`] of a given path algorithm and Gram bracketing.
pub(crate) fn generation_word_of(path: &str, bracketing: &str) -> u64 {
    // A 0 word, which no name contains, ends the path name.
    let path = path.bytes().map(u64::from).chain([0]);
    fingerprint(path.chain(bracketing.bytes().map(u64::from)))
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
    /// Shrink-and-recover account, present when the fit ran in
    /// [`ExecMode::Recovering`](crate::fitter::ExecMode::Recovering).
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

/// `(x, y)` after the configured validation pass, checked on its
/// output. Every execution mode builds its fit from one, so each gives
/// the same outcome and error: the pass runs first (under `Sanitize` it
/// scrubs the non-finite cells the checks would otherwise reject), then
/// `Err` — never a panic — on an empty design, mismatched `x`/`y`
/// lengths, too few samples to resample, non-finite inputs, or an
/// invalid configuration.
pub(crate) struct LassoInput<'a> {
    pub cfg: &'a UoiLassoConfig,
    pub x: Cow<'a, Matrix>,
    pub y: Cow<'a, [f64]>,
    /// The validation pass's findings, for the fit's ledger.
    pub outcome: Option<ValidationOutcome>,
}

impl<'a> LassoInput<'a> {
    pub(crate) fn new(
        x: &'a Matrix,
        y: &'a [f64],
        cfg: &'a UoiLassoConfig,
    ) -> Result<Self, UoiError> {
        let (x, y, outcome) = cfg.numerical.scrub(x, y)?;
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
        if !all_finite(&y) {
            return Err(UoiError::NonFiniteInput("response y"));
        }
        cfg.validate()?;
        Ok(Self { cfg, x, y, outcome })
    }
}

/// Column-centre `(x, y)`: returns `(xc, yc, x_means, y_mean)`.
pub(crate) fn centre_data(x: &Matrix, y: &[f64]) -> (Matrix, Vec<f64>, Vec<f64>, f64) {
    let n = x.rows();
    let x_means = x.col_means();
    let y_mean = y.iter().sum::<f64>() / n as f64;
    let xc = x.centred(&x_means);
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

/// The centring a LASSO fit undoes, and the λ grid it reports.
pub(crate) struct Centring {
    pub x_means: Vec<f64>,
    pub y_mean: f64,
    pub lambdas: Vec<f64>,
}

impl Centring {
    /// The fit from averaged centred-coordinate coefficients, restoring
    /// the intercept: `y ≈ (x - x̄) b + ȳ  =>  icpt = ȳ - x̄·b`.
    pub(crate) fn fit(&self, beta: Vec<f64>, support_tol: f64, parts: FitParts) -> UoiFit {
        UoiFit {
            intercept: self.y_mean - dot(&self.x_means, &beta),
            support: support_of(&beta, support_tol),
            beta,
            lambdas: self.lambdas.clone(),
            supports_per_lambda: parts.supports_per_lambda,
            support_family: parts.support_family,
            degradation: parts.degradation,
            recovery: parts.recovery,
            speculation: parts.speculation,
            numerical: parts.numerical,
        }
    }
}

/// `UoI_LASSO` as a [`UoiProblem`]: the centred design, one centred
/// response column, and the λ grid from the full data.
pub(crate) struct LassoProblem<'a> {
    cfg: &'a UoiLassoConfig,
    xc: Matrix,
    yc: Vec<f64>,
    centring: Centring,
    store: Option<CheckpointStore>,
}

impl<'a> LassoProblem<'a> {
    /// Check `(x, y)` ([`LassoInput`]) and centre it (the paper's
    /// `n x (p+1)` intercept column is handled by centring instead of
    /// penalised estimation). Also `Err` on an unopenable checkpoint
    /// directory.
    pub(crate) fn new(x: &Matrix, y: &[f64], cfg: &'a UoiLassoConfig) -> Result<Self, UoiError> {
        let LassoInput { x, y, outcome, .. } = LassoInput::new(x, y, cfg)?;
        if let Some(outcome) = &outcome {
            cfg.numerical
                .ledger()
                .note_validation(&cfg.telemetry, outcome);
        }
        let store = engine::open_store(cfg, || cfg.ckpt_fingerprint(&x, &y))?;
        let (xc, yc, x_means, y_mean) = centre_data(&x, &y);
        let lambdas = lambda_path(&xc, &yc, cfg.q, cfg.lambda_min_ratio);
        Ok(Self {
            cfg,
            xc,
            yc,
            centring: Centring {
                x_means,
                y_mean,
                lambdas,
            },
            store,
        })
    }
}

impl UoiProblem for LassoProblem<'_> {
    type Fit = UoiFit;
    const NAMES: Names = Names {
        selection_span: "uoi_lasso.selection",
        estimation_span: "uoi_lasso.estimation",
        selection_ckpt: "sel",
        estimation_ckpt: "est",
        gram_ckpt: "selgram",
        selection_spec: "lasso.sel",
        estimation_spec: "lasso.est",
        selection_label: "selection",
        estimation_label: "estimation",
        selection_failures: "uoi.degraded.selection_failures",
        estimation_failures: "uoi.degraded.estimation_failures",
        selection_hits: "uoi.ckpt.selection_hits",
        estimation_hits: "uoi.ckpt.estimation_hits",
        selection_bootstraps: "uoi.selection.bootstraps",
        estimation_bootstraps: "uoi.estimation.bootstraps",
        gram_hits: "uoi.recovery.gram_hits",
        support_size: "uoi.selection.support_size",
        family_size: "uoi.selection.family_size",
        final_gauge: "uoi.support_size",
    };

    fn cfg(&self) -> &UoiLassoConfig {
        self.cfg
    }

    fn design(&self) -> &Matrix {
        &self.xc
    }

    fn responses(&self) -> &[Vec<f64>] {
        std::slice::from_ref(&self.yc)
    }

    fn lambdas(&self) -> &[f64] {
        &self.centring.lambdas
    }

    fn store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    fn selection_weights(&self, k: usize) -> Vec<f64> {
        selection_weights(self.xc.rows(), self.cfg.seed, k)
    }

    fn estimation_resample(&self, k: usize) -> Resample {
        let n = self.xc.rows();
        let mut rng = substream(self.cfg.seed, 10_000 + k as u64);
        let (train, eval) = bootstrap_with_oob(&mut rng, n);
        Resample {
            w: resample_weights(&train, n),
            eval,
            n_train: train.len(),
        }
    }

    /// One weighted Gram + rhs pass over `x` for every resample.
    fn systems(&self, x: &Matrix, weights: &[&[f64]]) -> Vec<System> {
        uoi_linalg::gram_rhs_batch(x, &self.yc, weights)
            .into_iter()
            .map(|(gram, xty)| System {
                gram: gram.into_upper(),
                rhs: vec![xty],
            })
            .collect()
    }

    fn selection_flops(&self) -> f64 {
        let (n, p) = self.xc.shape();
        crate::speculation::lasso_selection_flops(n, p, self.cfg.q)
    }

    fn estimation_flops(&self, u: usize, family: usize) -> f64 {
        crate::speculation::lasso_estimation_flops(self.xc.rows(), u, family)
    }

    /// Held-out MSE, or BIC on the training resample per `cfg.score`.
    fn loss(
        &self,
        est: &engine::Estimation,
        sys: &System,
        rs: &Resample,
        beta_u: &[f64],
        support: usize,
    ) -> f64 {
        match self.cfg.score {
            EstimationScore::Mse => engine::mean_column_mse(est, self.responses(), rs, beta_u),
            EstimationScore::Bic => {
                let ysq_w = weighted_sumsq(&rs.w, &self.yc);
                let rss = gram_rss(&sys.gram, &sys.rhs[0], ysq_w, beta_u);
                bic_from_rss(rss, rs.n_train, support)
            }
        }
    }

    fn assemble(&self, beta: Vec<f64>, parts: FitParts) -> UoiFit {
        self.centring.fit(beta, self.cfg.support_tol, parts)
    }

    fn final_gauge(&self, fit: &UoiFit) -> f64 {
        fit.support.len() as f64
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

/// Training RSS of `b` from the weighted system's RSS identity
/// `b'Gb - 2 b'(X^T y)_w + Σ w y²`, clamped at 0. The Gram is upper-stored;
/// symv halves a gemv's traffic (agreement ~1e-12).
pub(crate) fn gram_rss(gram: &Matrix, xty: &[f64], ysq_w: f64, b: &[f64]) -> f64 {
    let mut gb = vec![0.0; b.len()];
    kernels::symv(gram, b, &mut gb);
    (dot(b, &gb) - 2.0 * dot(b, xty) + ysq_w).max(0.0)
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
            let xty = gemv_t(&xb, &yb);
            let solver = LassoAdmm::new(xb, cfg.admm.clone());
            solver
                .solve_path_with_rhs(&xty, &lambdas)
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
mod tests {
    use super::*;
    use crate::fitter::UoiFitter;
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
    fn checkpoint_fingerprint_follows_gram_bracketing() {
        let ds = dataset();
        let cfg = quick_cfg();
        let now = cfg.ckpt_fingerprint(&ds.x, &ds.y);
        let path = uoi_solvers::PATH_VARIANT;
        let same = generation_word_of(path, uoi_linalg::gram::BRACKETING);
        assert_eq!(now, cfg.ckpt_fingerprint_of(&ds.x, &ds.y, same));
        // A checkpoint of the previous, unfused bracketing must miss.
        let unfused = generation_word_of(path, "panel64-mul-add");
        assert_ne!(now, cfg.ckpt_fingerprint_of(&ds.x, &ds.y, unfused));
        let other_path = generation_word_of("another-path", uoi_linalg::gram::BRACKETING);
        assert_ne!(now, cfg.ckpt_fingerprint_of(&ds.x, &ds.y, other_path));
    }

    #[test]
    fn recovers_true_support_with_few_false_positives() {
        let ds = dataset();
        let fit = UoiFitter::new(quick_cfg()).fit(&ds.x, &ds.y).unwrap();
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
        let fit = UoiFitter::new(quick_cfg()).fit(&ds.x, &ds.y).unwrap();
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
        let fit = UoiFitter::new(quick_cfg()).fit(&ds.x, &ds.y).unwrap();
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
            let fast = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap();
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
        let a = UoiFitter::new(quick_cfg()).fit(&ds.x, &ds.y).unwrap();
        let b = UoiFitter::new(quick_cfg()).fit(&ds.x, &ds.y).unwrap();
        assert_eq!(a.beta, b.beta);
        assert_eq!(a.support, b.support);
    }

    #[test]
    fn intercept_recovered() {
        // Shift y by a constant; the intercept must absorb it.
        let ds = dataset();
        let y_shift: Vec<f64> = ds.y.iter().map(|v| v + 7.5).collect();
        let base = UoiFitter::new(quick_cfg()).fit(&ds.x, &ds.y).unwrap();
        let shifted = UoiFitter::new(quick_cfg()).fit(&ds.x, &y_shift).unwrap();
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
        let fit = UoiFitter::new(quick_cfg()).fit(&ds.x, &ds.y).unwrap();
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
        let strict = UoiFitter::new(quick_cfg()).fit(&ds.x, &ds.y).unwrap();
        let soft = UoiFitter::new(UoiLassoConfig {
            intersection_frac: 0.6,
            ..quick_cfg()
        })
        .fit(&ds.x, &ds.y)
        .unwrap();
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
        let fit = UoiFitter::new(UoiLassoConfig {
            score: EstimationScore::Bic,
            ..quick_cfg()
        })
        .fit(&ds.x, &ds.y)
        .unwrap();
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
        let small = UoiFitter::new(UoiLassoConfig {
            b1: 4,
            ..quick_cfg()
        })
        .fit(&ds.x, &ds.y)
        .unwrap();
        let large = UoiFitter::new(UoiLassoConfig {
            b1: 8,
            ..quick_cfg()
        })
        .fit(&ds.x, &ds.y)
        .unwrap();
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

//! `UoI_VAR` (paper Algorithm 2): Union of Intersections for sparse
//! vector-autoregression, shared-memory implementation.
//!
//! The series is rearranged into `Y = X B + E` (eqs. 7–8) and vectorised
//! (`vec Y = (I ⊗ X) vec B`, eq. 9). Because the vectorised design is
//! block diagonal with *identical* blocks, the LASSO path decomposes into
//! `p` per-column problems sharing one cached factorisation — the
//! communication-avoiding structure §V's discussion points at, and the
//! shape in which the shared UoI engine runs both algorithms (`UoI_LASSO` is
//! the one-column case). The distributed implementation in [`crate::uoi_var_dist`] instead follows
//! the paper's explicit distributed-Kronecker construction. Both produce
//! identical estimates (tested).
//!
//! Temporal dependence is respected by a moving-block bootstrap over the
//! regression rows (Algorithm 2 lines 3, 17–18).

use crate::degraded::{data_words, fingerprint, CheckpointStore, DegradationReport};
use crate::engine::{self, FitParts, Names, Resample, System, UoiProblem};
use crate::error::{all_finite, UoiError};
use crate::granger::GrangerNetwork;
#[cfg(test)]
use crate::support::{dedup_family, intersect_many};
use crate::uoi_lasso::UoiLassoConfig;
use crate::var_matrices::{partition_coefficients, VarRegression};
use std::borrow::Cow;
use uoi_data::bootstrap::{block_bootstrap, default_block_len, resample_weights};
use uoi_data::rng::substream;
use uoi_data::ValidationOutcome;
#[cfg(test)]
use uoi_linalg::gemv_t;
use uoi_linalg::{gemv_t_weighted_multi, Matrix};
use uoi_solvers::geometric_grid;
#[cfg(test)]
use uoi_solvers::{support_of, LassoAdmm};

/// Hyperparameters of `UoI_VAR`.
#[derive(Debug, Clone)]
pub struct UoiVarConfig {
    /// VAR order `d`.
    pub order: usize,
    /// Moving-block bootstrap block length; `None` → `ceil(n^{1/3})`.
    pub block_len: Option<usize>,
    /// The shared UoI/solver knobs (`B1`, `B2`, `q`, lambda grid, ADMM).
    pub base: UoiLassoConfig,
}

impl Default for UoiVarConfig {
    fn default() -> Self {
        Self {
            order: 1,
            block_len: None,
            base: UoiLassoConfig::default(),
        }
    }
}

impl UoiVarConfig {
    /// Start a validated chainable builder:
    /// `UoiVarConfig::builder().order(2).b1(10).build()?`.
    pub fn builder() -> UoiVarConfigBuilder {
        UoiVarConfigBuilder::default()
    }

    /// Check every field (including the embedded [`UoiLassoConfig`]).
    pub fn validate(&self) -> Result<(), UoiError> {
        if self.order == 0 {
            return Err(UoiError::InvalidConfig("order must be >= 1".into()));
        }
        if let Some(bl) = self.block_len {
            if bl == 0 {
                return Err(UoiError::InvalidConfig("block_len must be >= 1".into()));
            }
        }
        self.base.validate()
    }
}

/// Chainable builder for [`UoiVarConfig`]; `build()` validates. The
/// common `base` knobs (`b1`, `b2`, `q`, `seed`, `admm`, ...) are exposed
/// directly so a full VAR setup reads as one chain.
#[derive(Debug, Clone, Default)]
pub struct UoiVarConfigBuilder {
    cfg: UoiVarConfig,
}

impl UoiVarConfigBuilder {
    pub fn order(mut self, order: usize) -> Self {
        self.cfg.order = order;
        self
    }

    pub fn block_len(mut self, block_len: Option<usize>) -> Self {
        self.cfg.block_len = block_len;
        self
    }

    pub fn base(mut self, base: UoiLassoConfig) -> Self {
        self.cfg.base = base;
        self
    }

    pub fn b1(mut self, b1: usize) -> Self {
        self.cfg.base.b1 = b1;
        self
    }

    pub fn b2(mut self, b2: usize) -> Self {
        self.cfg.base.b2 = b2;
        self
    }

    pub fn q(mut self, q: usize) -> Self {
        self.cfg.base.q = q;
        self
    }

    pub fn lambda_min_ratio(mut self, ratio: f64) -> Self {
        self.cfg.base.lambda_min_ratio = ratio;
        self
    }

    pub fn admm(mut self, admm: uoi_solvers::AdmmConfig) -> Self {
        self.cfg.base.admm = admm;
        self
    }

    pub fn support_tol(mut self, tol: f64) -> Self {
        self.cfg.base.support_tol = tol;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.base.seed = seed;
        self
    }

    pub fn intersection_frac(mut self, frac: f64) -> Self {
        self.cfg.base.intersection_frac = frac;
        self
    }

    pub fn telemetry(mut self, telemetry: uoi_telemetry::Telemetry) -> Self {
        self.cfg.base.telemetry = telemetry;
        self
    }

    pub fn degradation(mut self, degradation: crate::degraded::DegradationConfig) -> Self {
        self.cfg.base.degradation = degradation;
        self
    }

    pub fn checkpoint(mut self, checkpoint: crate::degraded::CheckpointConfig) -> Self {
        self.cfg.base.checkpoint = Some(checkpoint);
        self
    }

    pub fn build(self) -> Result<UoiVarConfig, UoiError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A fitted `UoI_VAR` model.
#[derive(Debug, Clone)]
pub struct UoiVarFit {
    /// Estimated lag matrices `(Â_1, ..., Â_d)`.
    pub a_mats: Vec<Matrix>,
    /// Estimated process mean term `μ̂ = (I - Σ Â_j) x̄`.
    pub mu: Vec<f64>,
    /// The vectorised coefficient estimate (length `d p^2`).
    pub vec_beta: Vec<f64>,
    /// Lambda grid used in selection.
    pub lambdas: Vec<f64>,
    /// Intersected support per lambda, in vectorised index space.
    pub supports_per_lambda: Vec<Vec<usize>>,
    /// Deduplicated candidate family.
    pub support_family: Vec<Vec<usize>>,
    /// Degraded-execution account, present when a fault plan was active.
    pub degradation: Option<DegradationReport>,
    /// Shrink-and-recover account, present when the fit ran in
    /// [`ExecMode::Recovering`](crate::fitter::ExecMode::Recovering).
    pub recovery: Option<crate::recovery::RecoveryReport>,
    /// Speculative-hedging account, present when the fit ran through the
    /// recovering pipeline with speculation enabled.
    pub speculation: Option<crate::speculation::SpeculationReport>,
    /// Numerical-health account, present when
    /// [`NumericalConfig::active`](crate::numerical::NumericalConfig::active)
    /// on `base.numerical` — jitter escalations, rho restarts,
    /// divergence outcomes, data issues, and dropped tasks.
    pub numerical: Option<uoi_telemetry::NumericalHealthReport>,
}

impl UoiVarFit {
    /// Extract the Granger network at a magnitude threshold.
    pub fn network(&self, threshold: f64) -> GrangerNetwork {
        GrangerNetwork::from_coefficients(&self.a_mats, threshold)
    }

    /// Number of nonzero coefficients across all lags.
    pub fn nnz(&self) -> usize {
        self.vec_beta.iter().filter(|v| v.abs() > 0.0).count()
    }

    /// VAR order `d` of the fitted model.
    pub fn order(&self) -> usize {
        self.a_mats.len()
    }

    /// One-step-ahead prediction from the last `d` rows of `history`
    /// (row `t` = observation at time `t`): `x̂ = μ + Σ_j A_j x_{T-j}`.
    pub fn predict_next(&self, history: &Matrix) -> Vec<f64> {
        let p = self.mu.len();
        let d = self.order();
        assert_eq!(history.cols(), p, "history dimension mismatch");
        assert!(history.rows() >= d, "need at least {d} rows of history");
        let t = history.rows();
        let mut next = self.mu.clone();
        for (lag, a) in self.a_mats.iter().enumerate() {
            let contrib = uoi_linalg::gemv(a, history.row(t - lag - 1));
            for (n, c) in next.iter_mut().zip(&contrib) {
                *n += c;
            }
        }
        next
    }

    /// Iterated multi-step forecast: `steps` rows of predictions, each
    /// feeding the next (the standard VAR point forecast).
    pub fn forecast(&self, history: &Matrix, steps: usize) -> Matrix {
        let p = self.mu.len();
        let d = self.order();
        assert!(history.rows() >= d);
        // Rolling window of the last d observations.
        let mut window = history.rows_range(history.rows() - d, history.rows());
        let mut out = Matrix::zeros(steps, p);
        for s in 0..steps {
            let next = self.predict_next(&window);
            out.row_mut(s).copy_from_slice(&next);
            // Shift the window.
            let mut new_window = Matrix::zeros(d, p);
            for r in 1..d {
                new_window.row_mut(r - 1).copy_from_slice(window.row(r));
            }
            new_window.row_mut(d - 1).copy_from_slice(&next);
            window = new_window;
        }
        out
    }

    /// Mean squared one-step prediction error over a held-out series
    /// segment (rows `d..` are predicted from their own lags).
    pub fn one_step_mse(&self, series: &Matrix) -> f64 {
        let d = self.order();
        assert!(series.rows() > d);
        let mut sse = 0.0;
        let mut n = 0usize;
        for t in d..series.rows() {
            let pred = self.predict_next(&series.rows_range(t - d, t));
            for (p_hat, &truth) in pred.iter().zip(series.row(t)) {
                sse += (p_hat - truth) * (p_hat - truth);
                n += 1;
            }
        }
        sse / n.max(1) as f64
    }
}

/// Select the VAR order by BIC over dense per-column OLS fits for
/// `d = 1 ..= max_order`: `BIC(d) = N p ln(RSS/(N p)) + d p^2 ln(N)`.
/// Returns the minimiser (the standard order-selection pre-step before a
/// UoI fit).
pub fn select_var_order(series: &Matrix, max_order: usize) -> usize {
    let (n_raw, p) = series.shape();
    assert!(max_order >= 1 && n_raw > max_order + 2);
    let means = series.col_means();
    let centred = series.centred(&means);
    let mut best = (f64::INFINITY, 1usize);
    for d in 1..=max_order {
        // Use a common effective sample count so BICs are comparable.
        let reg_full = VarRegression::build(&centred, d);
        let skip = max_order - d;
        let reg = reg_full.slice(skip..reg_full.samples());
        let n = reg.samples() as f64;
        let mut rss = 0.0;
        for i in 0..p {
            let yi = reg.y.col(i);
            let beta = match uoi_linalg::solve_normal_equations(&reg.x, &yi, 0.0) {
                Ok(b) => b,
                Err(_) => uoi_linalg::solve_normal_equations(&reg.x, &yi, 1e-8)
                    .expect("jittered normal equations"),
            };
            rss += uoi_linalg::mse(&reg.x, &beta, &yi) * n;
        }
        let np = n * p as f64;
        let bic = np * (rss / np).max(1e-300).ln() + (d * p * p) as f64 * n.ln();
        if bic < best.0 {
            best = (bic, d);
        }
    }
    best.1
}

/// A series after the configured validation pass, checked on its output
/// — the VAR twin of [`LassoInput`](crate::uoi_lasso::LassoInput): `Err`
/// on an empty series, a series too short for the requested order,
/// non-finite values, or an invalid configuration — and what every
/// executor derives from it first: the column means, the centred lag
/// regression `Y = X B` (eqs. 7–8), the vectorised λ grid and the
/// moving-block length.
pub(crate) struct VarInput<'a> {
    pub cfg: &'a UoiVarConfig,
    pub series: Cow<'a, Matrix>,
    /// The validation pass's findings, for the fit's ledger.
    pub outcome: Option<ValidationOutcome>,
    pub means: Vec<f64>,
    pub reg: VarRegression,
    pub lambdas: Vec<f64>,
    pub block_len: usize,
}

impl<'a> VarInput<'a> {
    pub(crate) fn new(series: &'a Matrix, cfg: &'a UoiVarConfig) -> Result<Self, UoiError> {
        // The pass insists on a response; a zero vector is finite and
        // contributes no issues, so it is a pure placeholder.
        let zeros = vec![0.0; series.rows()];
        let (series, _, outcome) = cfg.base.numerical.scrub(series, &zeros)?;
        let (n_raw, p) = series.shape();
        if n_raw == 0 || p == 0 {
            return Err(UoiError::EmptyDesign);
        }
        cfg.validate()?;
        if n_raw <= cfg.order + 4 {
            return Err(UoiError::SeriesTooShort {
                n: n_raw,
                min: cfg.order + 4,
            });
        }
        if !all_finite(series.as_slice()) {
            return Err(UoiError::NonFiniteInput("series"));
        }
        let means = series.col_means();
        let centred = series.centred(&means);
        let reg = VarRegression::build(&centred, cfg.order);
        let block_len = cfg
            .block_len
            .unwrap_or_else(|| default_block_len(reg.samples()));
        // The vectorised lambda_max is max_i ||X^T Y_i||_inf.
        let mut lmax = 0.0_f64;
        for i in 0..p {
            lmax = lmax.max(uoi_solvers::lambda_max(&reg.x, &reg.y.col(i)));
        }
        let lmax = lmax.max(1e-12);
        let base = &cfg.base;
        let lambdas = geometric_grid(lmax, base.lambda_min_ratio * lmax, base.q);
        Ok(Self {
            cfg,
            series,
            outcome,
            means,
            reg,
            lambdas,
            block_len,
        })
    }

    /// The fit from averaged vectorised coefficients: the lag matrices
    /// and the process-mean term `μ = (I - Σ A_j) x̄`.
    pub(crate) fn fit(&self, vec_beta: Vec<f64>, parts: FitParts) -> UoiVarFit {
        let a_mats = partition_coefficients(&vec_beta, self.means.len(), self.reg.order);
        let mut mu = self.means.clone();
        for a in &a_mats {
            let shift = uoi_linalg::gemv(a, &self.means);
            for (m, s) in mu.iter_mut().zip(&shift) {
                *m -= s;
            }
        }
        UoiVarFit {
            a_mats,
            mu,
            vec_beta,
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

/// `UoI_VAR` as a [`UoiProblem`]: the centred lag regression `Y = X B`
/// (eqs. 7–8), its `p` response columns, the moving-block bootstrap
/// geometry, and the vectorised λ grid.
pub(crate) struct VarProblem<'a> {
    input: VarInput<'a>,
    ys: Vec<Vec<f64>>,
    store: Option<CheckpointStore>,
}

/// Checkpoint fingerprint of a VAR fit: the settings that shape its
/// numbers, the numerics' [`generation_word`](crate::uoi_lasso::generation_word)
/// `generation`, and every bit of the series.
fn var_ckpt_fingerprint(input: &VarInput<'_>, generation: u64) -> u64 {
    let base = &input.cfg.base;
    let words = [
        base.seed,
        base.q as u64,
        base.lambda_min_ratio.to_bits(),
        base.support_tol.to_bits(),
        base.admm.rho.to_bits(),
        base.admm.max_iter as u64,
        base.admm.abstol.to_bits(),
        base.admm.reltol.to_bits(),
        generation,
        input.cfg.order as u64,
        input.block_len as u64,
        input.series.rows() as u64,
        input.series.cols() as u64,
    ];
    fingerprint(words.into_iter().chain(data_words(input.series.as_slice())))
}

impl<'a> VarProblem<'a> {
    /// Check ([`VarInput`]) and centre an `N x p` series (row `t` =
    /// observation at time `t`) and build its lag regression; `mu` later
    /// restores the process mean. Also `Err` on an unopenable checkpoint
    /// directory.
    pub(crate) fn new(series: &'a Matrix, cfg: &'a UoiVarConfig) -> Result<Self, UoiError> {
        let base = &cfg.base;
        let input = VarInput::new(series, cfg)?;
        if let Some(outcome) = &input.outcome {
            base.numerical
                .ledger()
                .note_validation(&base.telemetry, outcome);
        }
        let ys: Vec<Vec<f64>> = (0..input.reg.dim()).map(|i| input.reg.y.col(i)).collect();

        // The "var_" stage prefixes keep the two algorithms' checkpoints
        // apart in a shared directory.
        let store = engine::open_store(base, || {
            var_ckpt_fingerprint(&input, crate::uoi_lasso::generation_word())
        })?;
        Ok(Self { input, ys, store })
    }

    fn n(&self) -> usize {
        self.input.reg.samples()
    }
}

impl UoiProblem for VarProblem<'_> {
    type Fit = UoiVarFit;
    const NAMES: Names = Names {
        selection_span: "uoi_var.selection",
        estimation_span: "uoi_var.estimation",
        selection_ckpt: "var_sel",
        estimation_ckpt: "var_est",
        gram_ckpt: "var_selgram",
        selection_spec: "var.sel",
        estimation_spec: "var.est",
        selection_label: "var selection",
        estimation_label: "var estimation",
        selection_failures: "uoi_var.degraded.selection_failures",
        estimation_failures: "uoi_var.degraded.estimation_failures",
        selection_hits: "uoi_var.ckpt.selection_hits",
        estimation_hits: "uoi_var.ckpt.estimation_hits",
        selection_bootstraps: "uoi_var.selection.bootstraps",
        estimation_bootstraps: "uoi_var.estimation.bootstraps",
        gram_hits: "uoi_var.recovery.gram_hits",
        support_size: "uoi_var.selection.support_size",
        family_size: "uoi_var.selection.family_size",
        final_gauge: "uoi_var.nnz",
    };

    fn cfg(&self) -> &UoiLassoConfig {
        &self.input.cfg.base
    }

    fn design(&self) -> &Matrix {
        &self.input.reg.x
    }

    fn responses(&self) -> &[Vec<f64>] {
        &self.ys
    }

    fn lambdas(&self) -> &[f64] {
        &self.input.lambdas
    }

    fn store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// Moving-block bootstrap over the regression rows (Algorithm 2 line
    /// 3): temporal dependence survives inside each block.
    fn selection_weights(&self, k: usize) -> Vec<f64> {
        let n = self.n();
        let mut rng = substream(self.input.cfg.base.seed, k as u64);
        let rows = block_bootstrap(&mut rng, n, n, self.input.block_len);
        resample_weights(&rows, n)
    }

    fn estimation_resample(&self, k: usize) -> Resample {
        let n = self.n();
        let mut rng = substream(self.input.cfg.base.seed, 20_000 + k as u64);
        let (train, eval) = block_bootstrap_with_oob(&mut rng, n, self.input.block_len);
        Resample {
            w: resample_weights(&train, n),
            eval,
            n_train: train.len(),
        }
    }

    /// One weighted Gram pass over `x` for every resample, then the `p`
    /// weighted right-hand sides per resample in one sweep.
    fn systems(&self, x: &Matrix, weights: &[&[f64]]) -> Vec<System> {
        let wopts: Vec<Option<&[f64]>> = weights.iter().map(|&w| Some(w)).collect();
        let yrefs: Vec<&[f64]> = self.ys.iter().map(Vec::as_slice).collect();
        uoi_linalg::gram_batch(x, &wopts)
            .into_iter()
            .zip(weights)
            .map(|(gram, w)| System {
                gram: gram.into_upper(),
                rhs: gemv_t_weighted_multi(x, w, &yrefs),
            })
            .collect()
    }

    fn selection_flops(&self) -> f64 {
        let (n, dp) = self.input.reg.x.shape();
        crate::speculation::var_selection_flops(n, dp, self.ys.len(), self.input.cfg.base.q)
    }

    fn estimation_flops(&self, u: usize, family: usize) -> f64 {
        crate::speculation::var_estimation_flops(self.n(), u, self.ys.len(), family)
    }

    fn assemble(&self, vec_beta: Vec<f64>, parts: FitParts) -> UoiVarFit {
        self.input.fit(vec_beta, parts)
    }

    fn final_gauge(&self, fit: &UoiVarFit) -> f64 {
        fit.nnz() as f64
    }
}

/// Support-restricted OLS on the vectorised VAR problem, exploiting the
/// per-column decomposition: support indices `i*dp + j` select columns
/// `j` of `X` for response column `i`. Retained as the design-space
/// reference for the Gram-space estimation loop.
#[cfg(test)]
pub(crate) fn var_ols_on_support(
    reg: &VarRegression,
    support: &[usize],
    p: usize,
    dp: usize,
) -> Vec<f64> {
    let mut beta = vec![0.0; dp * p];
    // Split support by response column.
    let mut per_col: Vec<Vec<usize>> = vec![Vec::new(); p];
    for &s in support {
        per_col[s / dp].push(s % dp);
    }
    for (i, cols) in per_col.iter().enumerate() {
        if cols.is_empty() {
            continue;
        }
        let yi = reg.y.col(i);
        let bi = uoi_solvers::ols_on_support(&reg.x, &yi, cols);
        beta[i * dp..(i + 1) * dp].copy_from_slice(&bi);
    }
    beta
}

/// Total mean-squared prediction error of a vectorised estimate on a
/// regression block (the `L(beta, E^k)` of Algorithm 2 line 25).
#[cfg(test)]
pub(crate) fn var_loss(reg: &VarRegression, vec_beta: &[f64], p: usize, dp: usize) -> f64 {
    let mut total = 0.0;
    for i in 0..p {
        let yi = reg.y.col(i);
        let bi = &vec_beta[i * dp..(i + 1) * dp];
        total += uoi_linalg::mse(&reg.x, bi, &yi);
    }
    total / p as f64
}

/// Block bootstrap with out-of-bag evaluation rows (falling back to a
/// temporal split when the resample covers everything).
pub(crate) fn block_bootstrap_with_oob(
    rng: &mut rand::rngs::StdRng,
    n: usize,
    block_len: usize,
) -> (Vec<usize>, Vec<usize>) {
    let train = block_bootstrap(rng, n, n, block_len);
    let mut in_train = vec![false; n];
    for &i in &train {
        in_train[i] = true;
    }
    let eval: Vec<usize> = (0..n).filter(|&i| !in_train[i]).collect();
    if eval.len() < 2 {
        let cut = (2 * n / 3).max(1);
        ((0..cut).collect(), (cut..n).collect())
    } else {
        (train, eval)
    }
}

/// The pre-zero-copy reference fit: materialises every block-bootstrap
/// regression with `gather` and scores in design space. Kept as the
/// equivalence oracle for the weighted-Gram fast path.
#[cfg(test)]
pub(crate) fn fit_inner_materialized(series: &Matrix, cfg: &UoiVarConfig) -> UoiVarFit {
    let (_, p) = series.shape();
    let d = cfg.order;

    let means = series.col_means();
    let mut centred = series.clone();
    centred.center_cols(&means);

    let reg = VarRegression::build(&centred, d);
    let n = reg.samples();
    let dp = d * p;
    let total_coef = dp * p;
    let block_len = cfg.block_len.unwrap_or_else(|| default_block_len(n));
    let base = &cfg.base;

    let mut lmax = 0.0_f64;
    for i in 0..p {
        let yi = reg.y.col(i);
        lmax = lmax.max(uoi_solvers::lambda_max(&reg.x, &yi));
    }
    let lmax = lmax.max(1e-12);
    let lambdas = geometric_grid(lmax, base.lambda_min_ratio * lmax, base.q);

    let supports_by_bootstrap: Vec<Vec<Vec<usize>>> = (0..base.b1)
        .map(|k| {
            let mut rng = substream(base.seed, k as u64);
            let rows = block_bootstrap(&mut rng, n, n, block_len);
            let boot = reg.gather(&rows);
            let solver = LassoAdmm::new(boot.x.clone(), base.admm.clone());
            let mut supports = vec![Vec::new(); lambdas.len()];
            for i in 0..p {
                let yi = boot.y.col(i);
                let xty = gemv_t(&boot.x, &yi);
                for (j, sol) in solver
                    .solve_path_with_rhs(&xty, &lambdas)
                    .into_iter()
                    .enumerate()
                {
                    for idx in support_of(&sol.beta, base.support_tol) {
                        supports[j].push(i * dp + idx);
                    }
                }
            }
            for s in &mut supports {
                s.sort_unstable();
            }
            supports
        })
        .collect();

    let needed = crate::uoi_lasso::required_votes(base.intersection_frac, base.b1);
    let supports_per_lambda: Vec<Vec<usize>> = (0..lambdas.len())
        .map(|j| {
            if needed == base.b1 {
                let per_k: Vec<Vec<usize>> = supports_by_bootstrap
                    .iter()
                    .map(|sk| sk[j].clone())
                    .collect();
                intersect_many(&per_k)
            } else {
                let mut votes = vec![0usize; total_coef];
                for sk in &supports_by_bootstrap {
                    for &f in &sk[j] {
                        votes[f] += 1;
                    }
                }
                (0..total_coef).filter(|&f| votes[f] >= needed).collect()
            }
        })
        .collect();
    let support_family = dedup_family(supports_per_lambda.clone());

    let best_estimates: Vec<Vec<f64>> = (0..base.b2)
        .map(|k| {
            let mut rng = substream(base.seed, 20_000 + k as u64);
            let (train_rows, eval_rows) = block_bootstrap_with_oob(&mut rng, n, block_len);
            let train = reg.gather(&train_rows);
            let eval = reg.gather(&eval_rows);

            let mut best: Option<(f64, Vec<f64>)> = None;
            for support in &support_family {
                let beta = var_ols_on_support(&train, support, p, dp);
                let loss = var_loss(&eval, &beta, p, dp);
                if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                    best = Some((loss, beta));
                }
            }
            best.map(|(_, b)| b)
                .unwrap_or_else(|| vec![0.0; total_coef])
        })
        .collect();

    let mut vec_beta = vec![0.0; total_coef];
    for est in &best_estimates {
        for (b, e) in vec_beta.iter_mut().zip(est) {
            *b += e;
        }
    }
    for b in &mut vec_beta {
        *b /= base.b2 as f64;
    }

    let a_mats = partition_coefficients(&vec_beta, p, d);
    let mut mu = means.clone();
    for a in &a_mats {
        let shift = uoi_linalg::gemv(a, &means);
        for (m, s) in mu.iter_mut().zip(&shift) {
            *m -= s;
        }
    }

    UoiVarFit {
        a_mats,
        mu,
        vec_beta,
        lambdas,
        supports_per_lambda,
        support_family,
        degradation: None,
        recovery: None,
        speculation: None,
        // The materialised reference path never arms the guards.
        numerical: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitter::UoiVarFitter;
    use crate::metrics::SelectionCounts;
    use uoi_data::{VarConfig, VarProcess};
    use uoi_solvers::AdmmConfig;

    fn quick_cfg() -> UoiVarConfig {
        UoiVarConfig {
            order: 1,
            block_len: None,
            base: UoiLassoConfig {
                b1: 6,
                b2: 6,
                q: 10,
                // With the data-scaled ADMM penalty the small-lambda
                // solves truly converge (dense supports), so the grid
                // stops before the near-saturated tail that would flood
                // the candidate family with false positives.
                lambda_min_ratio: 5e-2,
                admm: AdmmConfig {
                    max_iter: 600,
                    ..Default::default()
                },
                support_tol: 1e-7,
                seed: 11,
                ..Default::default()
            },
        }
    }

    fn truth_support(proc: &VarProcess) -> Vec<usize> {
        // Vectorised support of the true coefficients.
        let v = crate::var_matrices::flatten_coefficients(&proc.coeffs);
        v.iter()
            .enumerate()
            .filter(|(_, x)| x.abs() > 0.0)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn checkpoint_fingerprint_follows_gram_bracketing() {
        let proc = VarProcess::generate(&VarConfig {
            p: 6,
            order: 1,
            density: 0.2,
            target_radius: 0.5,
            noise_std: 1.0,
            seed: 3,
        });
        let series = proc.simulate(120, 20, 4);
        let cfg = quick_cfg();
        let input = VarInput::new(&series, &cfg).unwrap();
        let path = uoi_solvers::PATH_VARIANT;
        let of = |bracketing| {
            let word = crate::uoi_lasso::generation_word_of(path, bracketing);
            var_ckpt_fingerprint(&input, word)
        };
        let now = var_ckpt_fingerprint(&input, crate::uoi_lasso::generation_word());
        assert_eq!(now, of(uoi_linalg::gram::BRACKETING));
        // A checkpoint of the previous, unfused bracketing must miss.
        assert_ne!(now, of("panel64-mul-add"));
    }

    #[test]
    fn recovers_sparse_var_network() {
        let proc = VarProcess::generate(&VarConfig {
            p: 10,
            order: 1,
            density: 0.12,
            target_radius: 0.65,
            noise_std: 1.0,
            seed: 5,
        });
        let series = proc.simulate(800, 100, 9);
        let fit = UoiVarFitter::new(quick_cfg()).fit(&series).unwrap();
        let truth = truth_support(&proc);
        let recovered: Vec<usize> = fit
            .vec_beta
            .iter()
            .enumerate()
            .filter(|(_, v)| v.abs() > 1e-7)
            .map(|(i, _)| i)
            .collect();
        let counts = SelectionCounts::compare(&recovered, &truth, 100);
        assert!(
            counts.recall() > 0.6,
            "recall {} (tp {} fn {})",
            counts.recall(),
            counts.true_positives,
            counts.false_negatives
        );
        assert!(
            counts.false_positive_rate() < 0.12,
            "FPR {}",
            counts.false_positive_rate()
        );
    }

    #[test]
    fn estimates_close_to_truth_on_recovered_edges() {
        let proc = VarProcess::generate(&VarConfig {
            p: 8,
            order: 1,
            density: 0.15,
            target_radius: 0.6,
            noise_std: 0.8,
            seed: 21,
        });
        let series = proc.simulate(1200, 100, 2);
        let fit = UoiVarFitter::new(quick_cfg()).fit(&series).unwrap();
        let a_true = &proc.coeffs[0];
        let a_hat = &fit.a_mats[0];
        for i in 0..8 {
            for j in 0..8 {
                if a_true[(i, j)] != 0.0 && a_hat[(i, j)] != 0.0 {
                    assert!(
                        (a_true[(i, j)] - a_hat[(i, j)]).abs() < 0.2,
                        "A[{i},{j}]: {} vs {}",
                        a_hat[(i, j)],
                        a_true[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn var2_fit_shapes() {
        let proc = VarProcess::generate(&VarConfig {
            p: 6,
            order: 2,
            density: 0.1,
            target_radius: 0.6,
            noise_std: 1.0,
            seed: 8,
        });
        let series = proc.simulate(600, 100, 3);
        let cfg = UoiVarConfig {
            order: 2,
            ..quick_cfg()
        };
        let fit = UoiVarFitter::new(cfg).fit(&series).unwrap();
        assert_eq!(fit.a_mats.len(), 2);
        assert_eq!(fit.a_mats[0].shape(), (6, 6));
        assert_eq!(fit.vec_beta.len(), 2 * 36);
        assert_eq!(fit.mu.len(), 6);
    }

    #[test]
    fn zero_copy_var_fit_matches_materialized_reference() {
        let proc = VarProcess::generate(&VarConfig {
            p: 8,
            order: 1,
            density: 0.1,
            seed: 13,
            ..Default::default()
        });
        let series = proc.simulate(500, 50, 5);
        let fast = UoiVarFitter::new(quick_cfg()).fit(&series).unwrap();
        let reference = fit_inner_materialized(&series, &quick_cfg());
        assert_eq!(fast.supports_per_lambda, reference.supports_per_lambda);
        assert_eq!(fast.support_family, reference.support_family);
        for (a, b) in fast.vec_beta.iter().zip(&reference.vec_beta) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        for (a, b) in fast.mu.iter().zip(&reference.mu) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn deterministic_and_network_extraction() {
        let proc = VarProcess::generate(&VarConfig {
            p: 8,
            order: 1,
            density: 0.1,
            seed: 13,
            ..Default::default()
        });
        let series = proc.simulate(500, 50, 5);
        let a = UoiVarFitter::new(quick_cfg()).fit(&series).unwrap();
        let b = UoiVarFitter::new(quick_cfg()).fit(&series).unwrap();
        assert_eq!(a.vec_beta, b.vec_beta);
        let net = a.network(0.0);
        assert_eq!(net.p, 8);
        assert_eq!(net.edge_count(), a.nnz());
    }

    #[test]
    fn forecast_shapes_and_stability() {
        let proc = VarProcess::generate(&VarConfig {
            p: 6,
            order: 1,
            density: 0.2,
            target_radius: 0.6,
            seed: 41,
            ..Default::default()
        });
        let series = proc.simulate(600, 50, 42);
        let fit = UoiVarFitter::new(quick_cfg()).fit(&series).unwrap();
        let fc = fit.forecast(&series, 20);
        assert_eq!(fc.shape(), (20, 6));
        assert!(fc.max_abs() < 100.0, "forecast must not explode");
        // One-step MSE on held-out data beats the naive zero predictor
        // (variance of the series).
        let holdout = proc.simulate(300, 650, 43);
        let mse_fit = fit.one_step_mse(&holdout);
        let var: f64 = holdout.as_slice().iter().map(|v| v * v).sum::<f64>() / holdout.len() as f64;
        assert!(
            mse_fit < var,
            "one-step MSE {mse_fit} vs series variance {var}"
        );
    }

    #[test]
    fn order_selection_finds_true_order() {
        // VAR(2) data: BIC should pick d = 2 over 1 and 3.
        let proc = VarProcess::generate(&VarConfig {
            p: 5,
            order: 2,
            density: 0.25,
            target_radius: 0.7,
            noise_std: 1.0,
            seed: 47,
        });
        let series = proc.simulate(1500, 100, 48);
        assert_eq!(select_var_order(&series, 4), 2);
        // VAR(1) data: picks 1.
        let proc1 = VarProcess::generate(&VarConfig {
            p: 5,
            order: 1,
            density: 0.3,
            target_radius: 0.7,
            noise_std: 1.0,
            seed: 49,
        });
        let series1 = proc1.simulate(1500, 100, 50);
        assert_eq!(select_var_order(&series1, 4), 1);
    }

    #[test]
    fn sparser_than_dense_ols() {
        // The UoI fit must be much sparser than unregularised OLS (which
        // is fully dense) while keeping predictive loss comparable.
        let proc = VarProcess::generate(&VarConfig {
            p: 10,
            order: 1,
            density: 0.1,
            seed: 4,
            ..Default::default()
        });
        let series = proc.simulate(700, 50, 6);
        let fit = UoiVarFitter::new(quick_cfg()).fit(&series).unwrap();
        assert!(
            fit.nnz() < 40,
            "UoI should select a sparse network, got {} nonzeros",
            fit.nnz()
        );
    }
}

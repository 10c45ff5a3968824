//! One UoI engine for `UoI_LASSO` and `UoI_VAR`.
//!
//! `UoI_VAR` is `UoI_LASSO` run on the Kronecker-vectorised lag
//! regression (paper Algorithm 2): each selection bootstrap solves `p`
//! response columns against one shared Gram, and column `i`'s feature
//! `j` sits at `i * stride + j` of the vectorised support. A LASSO fit
//! is the one-column case. A [`UoiProblem`] supplies what differs — the
//! resamplers, the batched system kernels, the estimation loss, the
//! averaging into a fit, and the [`Names`] its counters, spans and
//! checkpoints go by — and this module drives both through the same three
//! executors:
//!
//! * [`fit_serial`] — the in-process fit: checkpoint/resume with a
//!   preemption budget, fault-plan triage, one batched Gram pass per
//!   stage, quorum and soft intersection, the numerical-health report;
//! * [`fit_recovering`] — shrink-and-recover over a simulated cluster.
//!   Tasks are partitioned by [`TaskOwnership`] and their results
//!   exchanged through checksummed window blobs. When a rank dies the
//!   cluster agrees on the culprits, shrinks, and re-runs the round:
//!   survivors replay finished tasks from the recovery stash (or
//!   re-solve from selection-Gram checkpoints) while the dead rank's
//!   tasks move to their new sticky owners. An exhausted round budget
//!   falls back to the serial fit under a degraded plan that drops the
//!   dead ranks' round-0 tasks, so `max_rounds = 0` reproduces the
//!   degradation-tolerant pipeline exactly;
//! * [`dist::fit_dist`] — the SPMD Map–Solve–Reduce fit over a simulated
//!   cluster (paper §III), driving a [`dist::DistProblem`].
//!
//! Every serial and recovering task body is a pure function of
//! `(data, config, k)`, so who runs a task — the serial loop, its owner
//! rank, a stash replay or a survivor — never changes its bits.

use crate::degraded::{fingerprint, BootstrapFaultPlan, CheckpointStore, DegradationReport};
use crate::error::UoiError;
use crate::numerical::NumericalLedger;
use crate::recovery::{
    decode_index_lists, degraded_fallback_plan, encode_index_lists, exchange_blobs,
    parse_task_records, RecoveryConfig, RecoveryReport, TaskOwnership,
};
use crate::speculation::{fatal_to_uoi, run_speculative_stage, SpeculationReport};
use crate::support::dedup_family;
use crate::uoi_lasso::{required_votes, UoiLassoConfig};
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use uoi_linalg::{dot, Matrix};
use uoi_mpisim::{Cluster, Comm, MachineModel, MpiError, RankCtx, RecoveryContext, RecoveryError};
use uoi_solvers::{
    ols_on_support_gram_health, support_of, AdmmSolution, FactorHealth, LassoAdmm, PathHealth,
    SolverError,
};
use uoi_telemetry::{NumericalHealthReport, Telemetry, TraceEvent};

pub(crate) mod dist;

/// Every string that tells the two problems apart. Checkpoint stages,
/// stash keys and metric names are matched byte for byte by existing
/// checkpoint directories and dashboards, so each problem keeps its own.
pub(crate) struct Names {
    /// Serial-fit trace spans of the two stages.
    pub selection_span: &'static str,
    pub estimation_span: &'static str,
    /// Checkpoint stage of the selection supports, and the prefix of the
    /// family-fingerprinted estimation stage.
    pub selection_ckpt: &'static str,
    pub estimation_ckpt: &'static str,
    /// Checkpoint stage of the recovering fit's selection Grams.
    pub gram_ckpt: &'static str,
    /// Speculation stages; task `k`'s stash key is `"{stage}.{k}"`.
    pub selection_spec: &'static str,
    pub estimation_spec: &'static str,
    /// Stage labels of a missing exchanged result.
    pub selection_label: &'static str,
    pub estimation_label: &'static str,
    /// Counters.
    pub selection_failures: &'static str,
    pub estimation_failures: &'static str,
    pub selection_hits: &'static str,
    pub estimation_hits: &'static str,
    pub selection_bootstraps: &'static str,
    pub estimation_bootstraps: &'static str,
    pub gram_hits: &'static str,
    /// Per-λ intersected support size (histogram), candidate family size
    /// and the fitted model's size (gauges).
    pub support_size: &'static str,
    pub family_size: &'static str,
    pub final_gauge: &'static str,
}

/// One resample's weighted normal equations: the upper-stored Gram
/// `Xᵀ W X` and one right-hand side `Xᵀ W y_i` per response column.
pub(crate) struct System {
    pub gram: Matrix,
    pub rhs: Vec<Vec<f64>>,
}

/// An estimation resample's train/eval split.
pub(crate) struct Resample {
    /// Train multiplicities — the zero-copy stand-in for the resample.
    pub w: Vec<f64>,
    /// Out-of-bag evaluation rows.
    pub eval: Vec<usize>,
    /// Training sample count.
    pub n_train: usize,
}

/// Union-projected estimation inputs: the design gathered onto the
/// columns the candidate family touches, and the family re-indexed into
/// those columns per response.
pub(crate) struct Estimation {
    /// Design columns (`s % stride`) of the family's union, ascending.
    union: Vec<usize>,
    /// The design gathered onto `union`.
    xu: Matrix,
    /// `family[c][i]`: candidate `c`'s support for response column `i`,
    /// in union coordinates.
    family: Vec<Vec<Vec<usize>>>,
}

/// Everything a fit carries besides its averaged coefficients.
pub(crate) struct FitParts {
    pub supports_per_lambda: Vec<Vec<usize>>,
    pub support_family: Vec<Vec<usize>>,
    pub degradation: Option<DegradationReport>,
    pub recovery: Option<RecoveryReport>,
    pub speculation: Option<SpeculationReport>,
    pub numerical: Option<NumericalHealthReport>,
}

/// A UoI problem: the four steps of the paper's algorithms that differ
/// between `UoI_LASSO` and `UoI_VAR`. Built once per fit from validated,
/// centred inputs; a pure function of them.
pub(crate) trait UoiProblem: Sync {
    type Fit;
    const NAMES: Names;

    /// The shared UoI/solver knobs.
    fn cfg(&self) -> &UoiLassoConfig;
    /// The centred design every resample reweights; its column count is
    /// the support stride.
    fn design(&self) -> &Matrix;
    /// The centred response columns (one for LASSO, `p` for VAR).
    fn responses(&self) -> &[Vec<f64>];
    /// The λ grid shared by every bootstrap.
    fn lambdas(&self) -> &[f64];
    /// The fit's checkpoint store, when checkpointing is configured.
    fn store(&self) -> Option<&CheckpointStore>;

    /// Selection bootstrap `k`'s row multiplicities.
    fn selection_weights(&self, k: usize) -> Vec<f64>;
    /// Estimation resample `k`'s train/eval split.
    fn estimation_resample(&self, k: usize) -> Resample;
    /// Every resample's [`System`] over `x` (the design or its union
    /// projection) in one batched pass. A batch of one is bit-identical
    /// to the same resample inside a larger batch.
    fn systems(&self, x: &Matrix, weights: &[&[f64]]) -> Vec<System>;

    /// Nominal flops of one selection task (speculation deadlines).
    fn selection_flops(&self) -> f64;
    /// Nominal flops of one estimation task over a `u`-column union and
    /// `family` candidates.
    fn estimation_flops(&self, u: usize, family: usize) -> f64;

    /// Held-out loss of a candidate's union-space coefficients
    /// (`beta_u[i*u..(i+1)*u]` for column `i`) with `support` nonzeros:
    /// the mean per-column MSE on the out-of-bag rows unless overridden.
    fn loss(
        &self,
        est: &Estimation,
        _sys: &System,
        rs: &Resample,
        beta_u: &[f64],
        _support: usize,
    ) -> f64 {
        mean_column_mse(est, self.responses(), rs, beta_u)
    }

    /// The fit from the averaged winning coefficients (eq. 4).
    fn assemble(&self, coef: Vec<f64>, parts: FitParts) -> Self::Fit;
    /// Value of the `final_gauge` metric for a serial fit.
    fn final_gauge(&self, fit: &Self::Fit) -> f64;
}

/// Mean over response columns `ys` of the held-out MSE of union-space
/// coefficients `beta_u` on `rs`'s out-of-bag rows.
pub(crate) fn mean_column_mse(
    est: &Estimation,
    ys: &[Vec<f64>],
    rs: &Resample,
    beta_u: &[f64],
) -> f64 {
    let u = est.union.len();
    let mut total = 0.0;
    for (i, y) in ys.iter().enumerate() {
        let bi = &beta_u[i * u..(i + 1) * u];
        let mut sse = 0.0;
        for &e in &rs.eval {
            let d = dot(est.xu.row(e), bi) - y[e];
            sse += d * d;
        }
        total += sse / rs.eval.len() as f64;
    }
    total / ys.len() as f64
}

/// Length of a problem's vectorised coefficient (and support) space.
fn coef_len<P: UoiProblem>(prob: &P) -> usize {
    prob.design().cols() * prob.responses().len()
}

/// Open `cfg`'s checkpoint store under the fingerprint `fp` computes;
/// `None` when checkpointing is off (and the data is never hashed).
pub(crate) fn open_store(
    cfg: &UoiLassoConfig,
    fp: impl FnOnce() -> u64,
) -> Result<Option<CheckpointStore>, UoiError> {
    cfg.checkpoint
        .as_ref()
        .map(|ck| Ok(CheckpointStore::open(&ck.dir, fp())?.with_telemetry(&cfg.telemetry)))
        .transpose()
}

/// Run `body` inside a named trace span when tracing is on. Serial fits
/// have no virtual clock, so the span carries wall time: `t = 0` at
/// open, elapsed wall seconds at close.
fn traced<R>(tel: &Telemetry, name: &str, body: impl FnOnce() -> R) -> R {
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

// --- Stage bodies -------------------------------------------------------

/// Selection bootstrap `k`'s system: a batch of one.
fn selection_system<P: UoiProblem>(prob: &P, k: usize) -> System {
    let w = prob.selection_weights(k);
    prob.systems(prob.design(), &[&w])
        .pop()
        .expect("batch of one")
}

/// Solve selection bootstrap `k`'s λ path for every response column from
/// one factorisation of its Gram, returning the per-λ supports.
///
/// `None` means the task fell off the end of the numerical fallback
/// ladder (factorisation exhausted, or a λ stayed diverged through every
/// rho restart in some column). With resilience disabled the solve is
/// unguarded and never returns `None`.
///
/// When tracing is on, residual-curve capture is enabled on a local copy
/// of the solver config (capture never changes the iterates) and one
/// [`TraceEvent::Convergence`] per λ aggregates the columns.
fn solve_selection<P: UoiProblem>(prob: &P, sys: System, k: usize) -> Option<Vec<Vec<usize>>> {
    let cfg = prob.cfg();
    let tel = &cfg.telemetry;
    let lambdas = prob.lambdas();
    let mut admm = cfg.admm.clone();
    admm.capture_curve = tel.tracing_enabled();
    let paths: Vec<Vec<AdmmSolution>> = if !cfg.numerical.enabled {
        let mut solver = LassoAdmm::from_gram(sys.gram, admm);
        if let Some(m) = tel.metrics() {
            solver = solver.with_metrics(m);
        }
        sys.rhs
            .iter()
            .map(|xty| solver.solve_path_with_rhs(xty, lambdas))
            .collect()
    } else {
        let ledger = cfg.numerical.ledger();
        let mut solver = LassoAdmm::from_gram(sys.gram, admm);
        if let Some(m) = tel.metrics() {
            solver = solver.with_metrics(m);
        }
        // One shared factorisation: its health once, then the columns'
        // restarts and divergence outcomes folded together (dedup by λ —
        // several columns may trip on the same one).
        let mut health = PathHealth::default();
        let (mut recovered, mut diverged) = (BTreeSet::new(), BTreeSet::new());
        let mut paths = Vec::with_capacity(sys.rhs.len());
        for xty in &sys.rhs {
            match solver.solve_path_guarded(xty, lambdas, &cfg.numerical.resilience) {
                Ok((sols, h)) => {
                    health.factor_attempts = h.factor_attempts;
                    health.factor_jitter = h.factor_jitter;
                    health.rho_restarts += h.rho_restarts;
                    recovered.extend(h.recovered);
                    diverged.extend(h.diverged);
                    paths.push(sols);
                }
                Err(e) => {
                    if let SolverError::Factorization(b) = &e {
                        let exhausted = FactorHealth {
                            attempts: u32::MAX,
                            jitter: b.last_jitter,
                        };
                        ledger.note_factor(tel, "selection", k, &exhausted);
                    }
                    ledger.note_task_dropped(tel, "selection", k, &e.to_string());
                    return None;
                }
            }
        }
        health.recovered = recovered.into_iter().collect();
        health.diverged = diverged.into_iter().collect();
        ledger.note_path(tel, "selection", k, &health);
        if !health.diverged.is_empty() {
            ledger.note_task_dropped(tel, "selection", k, "divergence_unrecovered");
            return None;
        }
        paths
    };

    // supports[j] = vectorised support at λ_j. Each λ's convergence
    // record aggregates the columns, seeded from column 0: the worst
    // iteration count and residuals, converged only when every column
    // converged, and the residual curve of the slowest column.
    let stride = prob.design().cols();
    let tracing = tel.tracing_enabled();
    let mut supports = vec![Vec::new(); lambdas.len()];
    let mut records: Vec<Option<AdmmSolution>> = vec![None; lambdas.len()];
    for (i, sols) in paths.into_iter().enumerate() {
        for (j, sol) in sols.into_iter().enumerate() {
            for idx in support_of(&sol.beta, cfg.support_tol) {
                supports[j].push(i * stride + idx);
            }
            if !tracing {
                continue;
            }
            match &mut records[j] {
                None => {
                    records[j] = Some(AdmmSolution {
                        beta: Vec::new(),
                        ..sol
                    })
                }
                Some(a) => {
                    if sol.iterations > a.iterations {
                        a.iterations = sol.iterations;
                        a.curve = sol.curve;
                    }
                    a.converged &= sol.converged;
                    a.primal_residual = a.primal_residual.max(sol.primal_residual);
                    a.dual_residual = a.dual_residual.max(sol.dual_residual);
                }
            }
        }
    }
    for s in &mut supports {
        s.sort_unstable();
    }
    for (j, rec) in records.into_iter().enumerate() {
        if let Some(rec) = rec {
            let (at, max_iter, s) = ((k, j, lambdas[j]), cfg.admm.max_iter, supports[j].clone());
            tel.record(selection_record(at, rec, max_iter, s, (0, 0.0)));
        }
    }
    Some(supports)
}

/// The [`TraceEvent::Convergence`] record of selection task `k` at λ
/// index `j`: `sol`'s iterations, residuals, convergence flag and curve
/// (its `beta` is not read) under the `max_iter` cap, the selected
/// `support`, and the emitting `(rank, t)`.
pub(crate) fn selection_record(
    (k, j, lambda): (usize, usize, f64),
    sol: AdmmSolution,
    max_iter: usize,
    support: Vec<usize>,
    (rank, t): (usize, f64),
) -> TraceEvent {
    TraceEvent::Convergence {
        rank,
        stage: "selection",
        bootstrap: k,
        lambda_idx: j,
        lambda,
        iterations: sol.iterations,
        max_iter,
        converged: sol.converged,
        primal_residual: sol.primal_residual,
        dual_residual: sol.dual_residual,
        support,
        curve: sol.curve,
        t,
    }
}

/// The [`TraceEvent::Convergence`] record of estimation task `k`. Every
/// executor solves its candidates directly, so the record reports zero
/// iterations under a zero cap and always converges; it exists so
/// progress tracking and the task census cover both stages.
pub(crate) fn estimation_record(k: usize, (rank, t): (usize, f64)) -> TraceEvent {
    TraceEvent::Convergence {
        rank,
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
        t,
    }
}

/// [`solve_selection`] for callers that cannot drop a task (the
/// recovering exchange needs a payload per task): a task that falls off
/// the fallback ladder contributes the empty model on every λ.
fn solve_selection_or_empty<P: UoiProblem>(prob: &P, sys: System, k: usize) -> Vec<Vec<usize>> {
    solve_selection(prob, sys, k).unwrap_or_else(|| vec![Vec::new(); prob.lambdas().len()])
}

/// The per-λ vote tally of eq. 3, shared by every executor:
/// `counts[j * len + f]` bootstraps put feature `f` in their λ_j support.
/// Kept in `f64` so a distributed fit sums its groups' tallies with one
/// allreduce.
pub(crate) struct Votes {
    len: usize,
    pub counts: Vec<f64>,
}

impl Votes {
    pub(crate) fn new(q: usize, len: usize) -> Self {
        let counts = vec![0.0; q * len];
        Self { len, counts }
    }

    /// The tally of every bootstrap's per-λ supports.
    fn tally(q: usize, len: usize, supports_by_bootstrap: &[&Vec<Vec<usize>>]) -> Self {
        let mut votes = Self::new(q, len);
        for sk in supports_by_bootstrap {
            sk.iter().enumerate().for_each(|(j, s)| votes.add(j, s));
        }
        votes
    }

    pub(crate) fn add(&mut self, j: usize, support: &[usize]) {
        for &f in support {
            self.counts[j * self.len + f] += 1.0;
        }
    }

    /// The intersected support per λ (eq. 3 with the soft-threshold
    /// generalisation): the features with at least `needed` votes.
    pub(crate) fn supports(&self, needed: usize) -> Vec<Vec<usize>> {
        let needed = needed as f64 - 0.5;
        let keep = |c: &[f64]| (0..self.len).filter(|&f| c[f] >= needed).collect();
        self.counts.chunks(self.len).map(keep).collect()
    }
}

/// The degradation account of a fit under the fault `plan` (`None`
/// without one): the planned and surviving bootstrap counts, the failed
/// tasks and the votes the intersection required.
pub(crate) fn degradation_report(
    cfg: &UoiLassoConfig,
    plan: Option<&BootstrapFaultPlan>,
    (effective_b1, effective_b2): (usize, usize),
    needed: usize,
) -> Option<DegradationReport> {
    plan.map(|pl| DegradationReport {
        b1_planned: cfg.b1,
        b1_effective: effective_b1,
        b2_planned: cfg.b2,
        b2_effective: effective_b2,
        failed_selection: (0..cfg.b1).filter(|&k| pl.selection_failed(k)).collect(),
        failed_estimation: (0..cfg.b2).filter(|&k| pl.estimation_failed(k)).collect(),
        quorum_votes: needed,
        min_quorum_frac: cfg.degradation.min_quorum_frac,
    })
}

/// The design columns (`s % stride`) a candidate family touches,
/// ascending, and each column's position among them (`usize::MAX`
/// outside).
pub(crate) fn family_union(family: &[Vec<usize>], stride: usize) -> (Vec<usize>, Vec<usize>) {
    let mut union: Vec<usize> = family.iter().flatten().map(|&s| s % stride).collect();
    union.sort_unstable();
    union.dedup();
    let mut pos = vec![usize::MAX; stride];
    for (a, &c) in union.iter().enumerate() {
        pos[c] = a;
    }
    (union, pos)
}

/// Project the design onto the candidate family's column union. The
/// family only ever touches those columns, so each resample builds one
/// weighted union Gram and every candidate's OLS is a sub-Gram solve,
/// with no per-resample (or per-candidate) row gathering.
fn estimation_setup<P: UoiProblem>(prob: &P, family: &[Vec<usize>]) -> Estimation {
    let x = prob.design();
    let stride = x.cols();
    let (union, pos) = family_union(family, stride);
    let xu = x.gather_cols(&union);
    let family = family
        .iter()
        .map(|support| {
            let mut per_col = vec![Vec::new(); prob.responses().len()];
            for &s in support {
                per_col[s / stride].push(pos[s % stride]);
            }
            per_col
        })
        .collect();
    Estimation { union, xu, family }
}

/// Score every candidate support on estimation resample `k`'s system and
/// return the winner embedded in vectorised coordinates (Algorithm 1
/// lines 13–23, Algorithm 2 lines 20–28), then emit the resample's
/// convergence record. Sub-Gram extraction reads only the upper
/// triangle, so the upper-stored batched Gram needs no mirror.
fn estimation_score<P: UoiProblem>(
    prob: &P,
    est: &Estimation,
    sys: &System,
    rs: &Resample,
    k: usize,
) -> Vec<f64> {
    let cfg = prob.cfg();
    let ncols = prob.responses().len();
    let u = est.union.len();
    let guard = (cfg.numerical.enabled).then(|| (cfg.numerical.ledger(), &cfg.telemetry));
    let mut best: Option<(f64, Vec<f64>)> = None;
    for (c, per_col) in est.family.iter().enumerate() {
        let mut beta_u = vec![0.0; ncols * u];
        for (i, cols) in per_col.iter().enumerate() {
            if cols.is_empty() {
                continue;
            }
            let bi = solve_candidate(&sys.gram, &sys.rhs[i], cols, rs.n_train, guard, (k, c));
            beta_u[i * u..(i + 1) * u].copy_from_slice(&bi);
        }
        let support = per_col.iter().map(Vec::len).sum();
        let loss = prob.loss(est, sys, rs, &beta_u, support);
        if best.as_ref().is_none_or(|(l, _)| loss < *l) {
            best = Some((loss, beta_u));
        }
    }
    // An empty family (or all-empty supports) estimates zero.
    let stride = prob.design().cols();
    let mut full = vec![0.0; ncols * stride];
    if let Some((_, bu)) = best {
        for i in 0..ncols {
            for (a, &c) in est.union.iter().enumerate() {
                full[i * stride + c] = bu[i * u + a];
            }
        }
    }
    cfg.telemetry.record_with(|| estimation_record(k, (0, 0.0)));
    full
}

/// Candidate `c`'s exact OLS on estimation resample `k`: the sub-system
/// of the upper-stored `gram` and `rhs` on `cols`, embedded into the
/// Gram's coordinates. Every executor estimates through here. A guarded
/// fit passes its `(ledger, telemetry)` and notes a singular sub-Gram's
/// jitter ladder; the solve's bits do not depend on it.
pub(crate) fn solve_candidate(
    gram: &Matrix,
    rhs: &[f64],
    cols: &[usize],
    n_train: usize,
    guard: Option<(&NumericalLedger, &Telemetry)>,
    (k, c): (usize, usize),
) -> Vec<f64> {
    let (beta, health) = ols_on_support_gram_health(gram, rhs, cols, n_train);
    if let Some((ledger, tel)) = guard.filter(|_| health != FactorHealth::clean()) {
        ledger.note_candidate_factor(tel, "estimation", k, c, &health);
    }
    beta
}

/// Estimation resample `k` end to end: a batch of one.
fn estimation_task<P: UoiProblem>(prob: &P, est: &Estimation, k: usize) -> Vec<f64> {
    let rs = prob.estimation_resample(k);
    let sys = prob.systems(&est.xu, &[&rs.w]).pop().expect("batch of one");
    estimation_score(prob, est, &sys, &rs, k)
}

/// Average the winning estimates (eq. 4).
fn average(estimates: &[&Vec<f64>], len: usize) -> Vec<f64> {
    let mut coef = vec![0.0; len];
    for est in estimates {
        for (b, e) in coef.iter_mut().zip(est.iter()) {
            *b += e;
        }
    }
    for b in &mut coef {
        *b /= estimates.len() as f64;
    }
    coef
}

/// Flag a resample whose multiplicity mass sits on at most one distinct
/// row: its weighted Gram has rank <= 1, the classic zero-variance
/// degeneracy. Flag-only — the guarded solver absorbs the singular
/// system; this just names the cause in the health report.
fn note_degenerate_resample(cfg: &UoiLassoConfig, stage: &'static str, k: usize, w: &[f64]) {
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

// --- Serial executor ----------------------------------------------------

/// The preemption hook: a shared budget of newly computed tasks. Once it
/// runs dry the remaining tasks refuse to start and the fit returns
/// `Interrupted`, leaving finished checkpoints behind.
struct Budget {
    left: Option<AtomicI64>,
    interrupted: AtomicBool,
    computed: AtomicUsize,
}

impl Budget {
    fn new(abort_after: Option<usize>) -> Self {
        Self {
            left: abort_after.map(|k| AtomicI64::new(k as i64)),
            interrupted: AtomicBool::new(false),
            computed: AtomicUsize::new(0),
        }
    }

    /// Reserve one unit; `false` means the run is being preempted.
    fn reserve(&self) -> bool {
        let Some(left) = &self.left else {
            return true;
        };
        if left.fetch_sub(1, Ordering::SeqCst) > 0 {
            return true;
        }
        self.interrupted.store(true, Ordering::SeqCst);
        false
    }

    fn done(&self) {
        self.computed.fetch_add(1, Ordering::SeqCst);
    }

    fn check(&self) -> Result<(), UoiError> {
        if self.interrupted.load(Ordering::SeqCst) {
            return Err(UoiError::Interrupted {
                completed: self.computed.load(Ordering::SeqCst),
            });
        }
        Ok(())
    }
}

/// Triage a stage's `total` tasks sequentially in ascending `k`, so
/// budget consumption is deterministic: tasks the fault plan kills stay
/// empty, checkpoint hits fill their slot, and the rest reserve budget
/// and are returned for computing.
fn triage<T>(
    total: usize,
    killed: impl Fn(usize) -> bool,
    load: impl Fn(usize) -> Option<T>,
    budget: &Budget,
) -> (Vec<Option<T>>, Vec<usize>) {
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let mut todo = Vec::new();
    for k in 0..total {
        if killed(k) {
            continue;
        }
        if let Some(loaded) = load(k) {
            slots[k] = Some(loaded);
            continue;
        }
        if budget.reserve() {
            todo.push(k);
        }
    }
    (slots, todo)
}

/// The serial fit of a validated problem under its configured fault
/// plan.
pub(crate) fn fit_serial<P: UoiProblem>(prob: &P) -> Result<P::Fit, UoiError> {
    serial(prob, prob.cfg().degradation.plan.as_ref(), None)
}

fn serial<P: UoiProblem>(
    prob: &P,
    plan: Option<&BootstrapFaultPlan>,
    recovery: Option<RecoveryReport>,
) -> Result<P::Fit, UoiError> {
    let cfg = prob.cfg();
    let names = &P::NAMES;
    let tel = &cfg.telemetry;
    let store = prob.store();
    let budget = Budget::new(cfg.checkpoint.as_ref().and_then(|ck| ck.abort_after));
    let q = prob.lambdas().len();
    let len = coef_len(prob);

    // --- Model selection: B1 bootstraps x q lambdas. ---
    // Zero-copy: the resample never materialises X_b. The multiplicity
    // vector c of the bootstrap gives X_b^T X_b = sum_i c_i x_i x_i^T and
    // X_b^T y_b = sum_i c_i y_i x_i, so each bootstrap accumulates a
    // weighted Gram + rhs over the shared centred design and solves the
    // whole lambda path from those. Triage first, then one batched pass
    // over the design builds every system still to compute, and only the
    // solves fan out. A slot holds `None` when the fault plan killed the
    // task, the budget ran dry, or the task fell off the numerical
    // fallback ladder (never checkpointed: a rerun retries it).
    let selection = traced(tel, names.selection_span, || {
        let (mut slots, todo) = triage(
            cfg.b1,
            |k| {
                let dead = plan.is_some_and(|pl| pl.selection_failed(k));
                if dead {
                    tel.incr(names.selection_failures, 1);
                }
                dead
            },
            |k| {
                let loaded = store?.load_supports(names.selection_ckpt, k, q)?;
                tel.incr(names.selection_hits, 1);
                Some(loaded)
            },
            &budget,
        );
        let weights: Vec<Vec<f64>> = todo.iter().map(|&k| prob.selection_weights(k)).collect();
        if cfg.numerical.active() {
            for (&k, w) in todo.iter().zip(&weights) {
                note_degenerate_resample(cfg, "selection", k, w);
            }
        }
        let wrefs: Vec<&[f64]> = weights.iter().map(Vec::as_slice).collect();
        let systems = prob.systems(prob.design(), &wrefs);
        let work: Vec<_> = todo.into_iter().zip(systems).collect();
        let solved = work
            .into_par_iter()
            .map(|(k, sys)| {
                let supports = solve_selection(prob, sys, k);
                if let (Some(st), Some(sup)) = (store, &supports) {
                    st.save_supports(names.selection_ckpt, k, sup)?;
                }
                budget.done();
                Ok((k, supports))
            })
            .collect::<Result<Vec<_>, UoiError>>()?;
        for (k, supports) in solved {
            slots[k] = supports;
        }
        Ok::<_, UoiError>(slots)
    })?;
    budget.check()?;
    let supports_by_bootstrap: Vec<&Vec<Vec<usize>>> = selection.iter().flatten().collect();
    let effective_b1 = supports_by_bootstrap.len();
    cfg.degradation
        .check_quorum("selection", effective_b1, cfg.b1)?;

    // Intersect across *surviving* bootstraps per lambda (eq. 3), with
    // the soft threshold generalisation: keep features present in at
    // least `ceil(frac * B1_effective)` surviving supports.
    let needed = required_votes(cfg.intersection_frac, effective_b1);
    let supports_per_lambda = Votes::tally(q, len, &supports_by_bootstrap).supports(needed);
    let support_family = dedup_family(supports_per_lambda.clone());
    tel.incr(names.selection_bootstraps, effective_b1 as u64);
    for s in &supports_per_lambda {
        tel.observe(names.support_size, s.len() as f64);
    }
    tel.gauge(names.family_size, support_family.len() as f64);

    // --- Model estimation: B2 train/eval resamples. ---
    let est = estimation_setup(prob, &support_family);
    // Estimation checkpoints also depend on the candidate family (which
    // shifts when B1 or the fault plan changes), so the family is folded
    // into the stage name: stale estimates from another family can never
    // be replayed.
    let est_stage = store.map(|_| {
        let words = support_family
            .iter()
            .flat_map(|s| std::iter::once(s.len() as u64).chain(s.iter().map(|&f| f as u64)));
        format!("{}_{:016x}", names.estimation_ckpt, fingerprint(words))
    });
    let estimates = traced(tel, names.estimation_span, || {
        let (mut slots, todo) = triage(
            cfg.b2,
            |k| {
                let dead = plan.is_some_and(|pl| pl.estimation_failed(k));
                if dead {
                    tel.incr(names.estimation_failures, 1);
                }
                dead
            },
            |k| {
                let loaded = store?.load_coeffs(est_stage.as_deref()?, k, len)?;
                tel.incr(names.estimation_hits, 1);
                Some(loaded)
            },
            &budget,
        );
        let resamples: Vec<Resample> = todo.iter().map(|&k| prob.estimation_resample(k)).collect();
        if cfg.numerical.active() {
            for (&k, rs) in todo.iter().zip(&resamples) {
                note_degenerate_resample(cfg, "estimation", k, &rs.w);
            }
        }
        let wrefs: Vec<&[f64]> = resamples.iter().map(|rs| rs.w.as_slice()).collect();
        let systems = prob.systems(&est.xu, &wrefs);
        let work: Vec<_> = todo
            .into_iter()
            .zip(resamples.into_iter().zip(systems))
            .collect();
        let solved = work
            .into_par_iter()
            .map(|(k, (rs, sys))| {
                let full = estimation_score(prob, &est, &sys, &rs, k);
                if let (Some(st), Some(stage)) = (store, &est_stage) {
                    st.save_coeffs(stage, k, &full)?;
                }
                budget.done();
                Ok((k, full))
            })
            .collect::<Result<Vec<_>, UoiError>>()?;
        for (k, full) in solved {
            slots[k] = Some(full);
        }
        Ok::<_, UoiError>(slots)
    })?;
    budget.check()?;
    let best_estimates: Vec<&Vec<f64>> = estimates.iter().flatten().collect();
    let effective_b2 = best_estimates.len();
    cfg.degradation
        .check_quorum("estimation", effective_b2, cfg.b2)?;
    tel.incr(names.estimation_bootstraps, effective_b2 as u64);

    let degradation = degradation_report(cfg, plan, (effective_b1, effective_b2), needed);
    let fit = prob.assemble(
        average(&best_estimates, len),
        FitParts {
            supports_per_lambda,
            support_family,
            degradation,
            recovery,
            speculation: None,
            numerical: cfg
                .numerical
                .active()
                .then(|| cfg.numerical.ledger().drain_report()),
        },
    );
    tel.gauge(names.final_gauge, prob.final_gauge(&fit));
    Ok(fit)
}

// --- Shrink-and-recover executor ----------------------------------------

/// What one recovering round agrees on (identical on every rank).
struct RoundOut {
    supports_per_lambda: Vec<Vec<usize>>,
    support_family: Vec<Vec<usize>>,
    estimates: Vec<Vec<f64>>,
    speculation: Option<SpeculationReport>,
}

/// Fit a validated problem with shrink-and-recover execution over a
/// simulated `rcfg.world`-rank cluster. The fit's `recovery` report
/// accounts for the rounds, failures and reassignments; coefficients and
/// supports are bit-identical to [`fit_serial`] whenever recovery
/// succeeds (and to the degraded serial fit on fallback).
pub(crate) fn fit_recovering<P: UoiProblem>(
    prob: &P,
    rcfg: &RecoveryConfig,
) -> Result<P::Fit, UoiError> {
    rcfg.speculation.validate()?;
    if rcfg.world == 0 {
        return Err(UoiError::InvalidConfig(
            "recovery world must be >= 1".into(),
        ));
    }
    if !rcfg.enabled {
        return fit_serial(prob);
    }
    let cfg = prob.cfg();
    let ownership = TaskOwnership::new(rcfg.world, cfg.seed);
    let mut cluster = Cluster::new(rcfg.world, MachineModel::deterministic())
        .with_watchdog(rcfg.watchdog)
        .with_telemetry(cfg.telemetry.clone());
    if let Some(plan) = &rcfg.plan {
        cluster = cluster.with_fault_plan(plan.clone());
    }
    let outcome = cluster.try_run_recovering(rcfg.max_rounds, |ctx, comm, rctx| {
        round(prob, ctx, comm, rctx, rcfg, &ownership)
    });

    let report = |failed: &[usize], rounds_attempted: usize, degraded_fallback: bool| {
        let reassigned = |total: usize| -> Vec<usize> {
            (0..total)
                .filter(|&k| failed.contains(&ownership.owner(k, &[])))
                .collect()
        };
        RecoveryReport {
            world: rcfg.world,
            max_rounds: rcfg.max_rounds,
            rounds_attempted,
            failed_ranks: failed.to_vec(),
            reassigned_selection: reassigned(cfg.b1),
            reassigned_estimation: reassigned(cfg.b2),
            degraded_fallback,
        }
    };
    match outcome {
        Ok((sim, log)) => {
            let out = sim
                .results
                .into_iter()
                .next()
                .expect("a recovered round has a rank-0 result");
            let estimates: Vec<&Vec<f64>> = out.estimates.iter().collect();
            Ok(prob.assemble(
                average(&estimates, coef_len(prob)),
                FitParts {
                    supports_per_lambda: out.supports_per_lambda,
                    support_family: out.support_family,
                    degradation: None,
                    recovery: Some(report(&log.failed_ranks(), log.rounds.len(), false)),
                    speculation: out.speculation,
                    // Rounds record into the shared config ledger (each
                    // task runs on exactly one owner rank); drained once
                    // the cluster is done, so the report covers every
                    // round including re-executions.
                    numerical: cfg
                        .numerical
                        .active()
                        .then(|| cfg.numerical.ledger().drain_report()),
                },
            ))
        }
        Err(RecoveryError::Exhausted { rounds, failed, .. }) => {
            let plan = degraded_fallback_plan(&failed, &ownership, cfg.b1, cfg.b2, cfg.seed);
            serial(prob, Some(&plan), Some(report(&failed, rounds, true)))
        }
        Err(RecoveryError::Fatal(sim)) => Err(fatal_to_uoi(&sim)),
    }
}

/// One SPMD round: execute the owned selection tasks, exchange, and
/// replicate the cheap glue (intersection, union projection); then the
/// same for estimation. Pure with respect to the recovery state: any
/// surviving subset of ranks produces the same bits.
fn round<P: UoiProblem>(
    prob: &P,
    ctx: &mut RankCtx,
    comm: &Comm,
    rctx: &RecoveryContext,
    rcfg: &RecoveryConfig,
    ownership: &TaskOwnership,
) -> RoundOut {
    let span = rctx
        .is_recovery_round()
        .then(|| ctx.span_enter("recovery.reexec"));
    let cfg = prob.cfg();
    let names = &P::NAMES;
    let my_orig = rctx.original_rank(comm.rank());
    let stash = rctx.stash();
    let tel = ctx.telemetry().clone();
    let (n, dim) = prob.design().shape();
    let ncols = prob.responses().len();

    // Run a task unless a surviving producer already stashed its payload
    // (the owner may have changed between rounds; entries of failed
    // ranks are dropped by the driver).
    let stashed = |stage: &str, k: usize, run: &dyn Fn() -> Vec<f64>| -> Vec<f64> {
        let key = format!("{stage}.{k}");
        if let Some(payload) = (0..rctx.original_world).find_map(|r| stash.get(r, &key)) {
            return payload;
        }
        let payload = run();
        stash.put(my_orig, &key, payload.clone());
        payload
    };

    // --- Selection. With a checkpoint store, recovery re-solves skip the
    // O(n dim^2) Gram accumulation. Store failures are runtime invariant
    // violations in this simulated setting: escalated as fatal.
    let sel_nominal = ctx
        .model()
        .compute_time(prob.selection_flops(), ((n * dim + dim * dim) * 8) as f64);
    let checkpointed_selection = |k: usize| -> Vec<Vec<usize>> {
        let Some(st) = prob.store() else {
            return solve_selection_or_empty(prob, selection_system(prob, k), k);
        };
        let sys = match st.load_gram(names.gram_ckpt, k, dim * dim, ncols * dim) {
            Some((gram, rhs)) => {
                tel.incr(names.gram_hits, 1);
                System {
                    gram: Matrix::from_vec(dim, dim, gram),
                    rhs: rhs.chunks(dim).map(<[f64]>::to_vec).collect(),
                }
            }
            None => {
                let sys = selection_system(prob, k);
                if let Err(e) =
                    st.save_gram(names.gram_ckpt, k, sys.gram.as_slice(), &sys.rhs.concat())
                {
                    std::panic::panic_any(MpiError::Internal {
                        what: format!("gram checkpoint: {e}"),
                    });
                }
                sys
            }
        };
        solve_selection_or_empty(prob, sys, k)
    };
    let (sel_blob, sel_stats) = run_speculative_stage(
        ctx,
        rctx,
        ownership,
        &rcfg.speculation,
        names.selection_spec,
        cfg.b1,
        my_orig,
        sel_nominal,
        |k| {
            stashed(names.selection_spec, k, &|| {
                encode_index_lists(&checkpointed_selection(k))
            })
        },
        |k| {
            encode_index_lists(&solve_selection_or_empty(
                prob,
                selection_system(prob, k),
                k,
            ))
        },
    );
    let blobs = ctx.span("recovery.exchange_sel", |ctx| {
        exchange_blobs(ctx, comm, sel_blob, &rctx.rank_map, rcfg.get_attempts)
    });
    let selection: Vec<Vec<Vec<usize>>> = collect_results(&blobs, cfg.b1, names.selection_label)
        .iter()
        .map(|payload| decode_index_lists(payload))
        .collect();
    let supports_by_bootstrap: Vec<&Vec<Vec<usize>>> = selection.iter().collect();
    let needed = required_votes(cfg.intersection_frac, cfg.b1);
    let votes = Votes::tally(prob.lambdas().len(), coef_len(prob), &supports_by_bootstrap);
    let supports_per_lambda = votes.supports(needed);
    let support_family = dedup_family(supports_per_lambda.clone());

    // --- Estimation: same owner/exchange/replicate pattern. ---
    let est = estimation_setup(prob, &support_family);
    let u = est.union.len();
    let est_nominal = ctx.model().compute_time(
        prob.estimation_flops(u, support_family.len()),
        ((n * u + u * u) * 8) as f64,
    );
    let (est_blob, est_stats) = run_speculative_stage(
        ctx,
        rctx,
        ownership,
        &rcfg.speculation,
        names.estimation_spec,
        cfg.b2,
        my_orig,
        est_nominal,
        |k| stashed(names.estimation_spec, k, &|| estimation_task(prob, &est, k)),
        |k| estimation_task(prob, &est, k),
    );
    let blobs = ctx.span("recovery.exchange_est", |ctx| {
        exchange_blobs(ctx, comm, est_blob, &rctx.rank_map, rcfg.get_attempts)
    });
    let estimates = collect_results(&blobs, cfg.b2, names.estimation_label);

    if let Some(id) = span {
        ctx.span_exit(id);
    }
    // Both stages hedge together; every rank builds the identical report
    // (the schedule is a pure function of the shared timing record).
    let speculation = match (sel_stats, est_stats) {
        (Some(sel), Some(est)) => Some(SpeculationReport {
            enabled: true,
            stages: vec![sel, est],
        }),
        _ => None,
    };
    RoundOut {
        supports_per_lambda,
        support_family,
        estimates,
        speculation,
    }
}

/// Merge exchanged blobs into dense task order; a hole means the
/// ownership map and the blobs disagree — a runtime invariant violation.
fn collect_results(blobs: &[Vec<f64>], total: usize, stage: &str) -> Vec<Vec<f64>> {
    let mut slots: Vec<Option<Vec<f64>>> = vec![None; total];
    for blob in blobs {
        for (k, payload) in parse_task_records(blob) {
            slots[k] = Some(payload);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(k, s)| match s {
            Some(p) => p,
            None => std::panic::panic_any(MpiError::Internal {
                what: format!("{stage} task {k} has no owner result"),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::intersect_many;

    /// At full quorum the vote tally realises eq. 3 exactly — the
    /// intersection of every bootstrap's support — and one vote short of
    /// it, the features a quorum of bootstraps agrees on.
    #[test]
    fn votes_realise_the_intersection() {
        let fam = vec![vec![1, 2, 5, 7], vec![2, 5, 7], vec![0, 2, 7, 9]];
        let mut votes = Votes::new(2, 10);
        for s in &fam {
            votes.add(1, s);
        }
        assert_eq!(votes.supports(3), vec![vec![], intersect_many(&fam)]);
        assert_eq!(votes.supports(2), vec![vec![], vec![2, 5, 7]]);
    }
}

//! Distributed `UoI_LASSO` (paper Algorithm 1 + §III): the full
//! Map-Solve-Reduce pipeline over the simulated cluster.
//!
//! * **Map** — each ADMM rank keeps a resident Tier-1 row block and owns a
//!   block-striped share of every bootstrap resample. Per stage, the
//!   distinct rows of all its shares arrive by ONE Tier-2 one-sided
//!   shuffle ([`uoi_tieredio::tier2_shuffle`], Fig 1a/1c), and one
//!   batched weighted-Gram pass ([`uoi_linalg::gram_rhs_batch`], the
//!   serial fit's kernel) builds every share's local Gram and rhs.
//! * **Solve** — consensus LASSO-ADMM across the ADMM communicator
//!   ([`uoi_solvers::DistLassoAdmm`], built from the local Gram); OLS is
//!   the same solver at `lambda = 0`.
//! * **Reduce** — support intersection (eq. 3) through a single world
//!   `Allreduce` of per-lambda selection-count indicators; estimate
//!   averaging (eq. 4) through a world `Allreduce` of the winning OLS
//!   estimates.
//!
//! Work is decomposed over `P_B` bootstrap groups x `P_lambda` lambda
//! groups x ADMM cores ([`crate::parallelism::ParallelLayout`]); with the
//! [`ParallelLayout::admm_only`] layout all cores serve one distributed
//! solver, the configuration of the paper's multi-node scaling runs.

use crate::numerical::NumericalLedger;
use crate::parallelism::ParallelLayout;
use crate::support::dedup_family;
use crate::uoi_lasso::{bootstrap_with_oob, UoiFit, UoiLassoConfig};
use uoi_data::bootstrap::row_bootstrap;
use uoi_data::rng::substream;
use uoi_linalg::Matrix;
use uoi_mpisim::{Comm, RankCtx};
use uoi_solvers::{support_of, DistLassoAdmm, FactorHealth};
use uoi_telemetry::{Telemetry, TraceEvent};
use uoi_tieredio::distribution::{block_range, tier2_shuffle};

/// Fit `UoI_LASSO` distributed over `world`.
///
/// `x`/`y` stand for the dataset as resident after the Tier-1 parallel
/// read (every rank *uses* only its block; bootstrap rows move through
/// simulated one-sided windows). All ranks return the identical fit.
pub(crate) fn fit_uoi_lasso_dist(
    ctx: &mut RankCtx,
    world: &Comm,
    x: &Matrix,
    y: &[f64],
    cfg: &UoiLassoConfig,
    layout: ParallelLayout,
) -> UoiFit {
    let (n, p) = x.shape();
    assert_eq!(y.len(), n);

    let comms = layout.split(ctx, world);
    let c = comms.admm_comm.size();
    let admm_rank = comms.admm_comm.rank();

    // Numerical resilience: a rank-local ledger (never the shared config
    // ledger — rank closures run concurrently and draining would race).
    // Every guarded decision below is taken from collective-agreed state,
    // so all ranks record the same events and return identical health
    // reports (per lambda group; identical everywhere under `admm_only`).
    // Only group leaders forward events to the trace sink and counters,
    // matching the convergence-record convention.
    let guarded = cfg.numerical.enabled;
    let ledger = NumericalLedger::default();
    let num_tel = if comms.is_group_leader() {
        ctx.telemetry().clone()
    } else {
        Telemetry::disabled()
    };

    // Input validation: every rank validates the same full dataset under
    // the same policy, so findings (and any scrubbing) agree everywhere
    // without a collective.
    let scrubbed = cfg.numerical.validation.map(|policy| {
        let mut xs = x.clone();
        let mut ys = y.to_vec();
        let outcome = uoi_data::validate_xy(&mut xs, &mut ys, policy)
            .unwrap_or_else(|e| panic!("fit_uoi_lasso_dist: {e}"));
        ledger.note_validation(&num_tel, &outcome);
        (xs, ys)
    });
    let (x, y): (&Matrix, &[f64]) = match &scrubbed {
        Some((xs, ys)) => (xs, ys),
        None => (x, y),
    };

    // Degraded mode: the deterministic task-failure plan is identical on
    // every rank, so all ranks skip the same (bootstrap, stage) tasks and
    // the collectives stay aligned. Checkpointing is a serial-fit
    // feature; the distributed pipeline ignores it.
    let plan = cfg.degradation.plan.as_ref();
    let effective_b1 = cfg.b1
        - (0..cfg.b1)
            .filter(|&k| plan.is_some_and(|pl| pl.selection_failed(k)))
            .count();
    let effective_b2 = cfg.b2
        - (0..cfg.b2)
            .filter(|&k| plan.is_some_and(|pl| pl.estimation_failed(k)))
            .count();
    cfg.degradation
        .check_quorum("selection", effective_b1, cfg.b1)
        .unwrap_or_else(|e| panic!("fit_uoi_lasso_dist: {e}"));
    cfg.degradation
        .check_quorum("estimation", effective_b2, cfg.b2)
        .unwrap_or_else(|e| panic!("fit_uoi_lasso_dist: {e}"));

    // Resident Tier-1 block (rows + response column, `p + 1` wide) —
    // each rank materialises only its stripe of the dataset, never the
    // whole matrix.
    let my_range = block_range(n, c, admm_rank);
    let mut resident = {
        let mut block = Matrix::zeros(my_range.len(), p + 1);
        for (dst, src) in my_range.clone().enumerate() {
            block.row_mut(dst)[..p].copy_from_slice(x.row(src));
            block.row_mut(dst)[p] = y[src];
        }
        block
    };
    ctx.compute_membound((my_range.len() * (p + 1) * 8) as f64);

    // Global column means via one allreduce of the local partial sums
    // (the centring step that replaces the paper's intercept column).
    let mut sums = resident.col_means();
    for v in &mut sums {
        *v *= resident.rows() as f64;
    }
    sums.push(resident.rows() as f64);
    comms.admm_comm.allreduce_sum(ctx, &mut sums);
    let count = sums.pop().unwrap_or(1.0).max(1.0);
    let means: Vec<f64> = sums.iter().map(|s| s / count).collect();
    let x_means = means[..p].to_vec();
    let y_mean = means[p];
    resident.center_cols(&means);
    ctx.compute_membound((resident.len() * 8) as f64);

    // Shared lambda grid from the distributed `||X^T y||_inf`.
    let lambdas = {
        let cols: Vec<usize> = (0..p).collect();
        let xr = resident.gather_cols(&cols);
        let yr = resident.col(p);
        let mut xty = uoi_linalg::gemv_t(&xr, &yr);
        ctx.compute_flops(2.0 * (xr.rows() * p) as f64, (xr.len() * 8) as f64);
        comms.admm_comm.allreduce_sum(ctx, &mut xty);
        let lmax = uoi_linalg::norm_inf(&xty).max(1e-12);
        uoi_solvers::geometric_grid(lmax, cfg.lambda_min_ratio * lmax, cfg.q)
    };

    // --- Model selection ---
    // Map: one pull of the rank's bootstrap shares, then one batched
    // Gram pass ([`selection_map`]). A share is a multiset of pulled
    // rows, so its local system is the multiplicity-weighted Gram — the
    // serial fit's zero-copy contract, restricted to the rank's share.
    // votes[j*p + f] = number of bootstraps whose lambda_j support
    // contains f (group leaders contribute; one vote per (k, j)).
    let sel_span = ctx.span_enter("uoi.selection");
    let mut votes = vec![0.0; cfg.q * p];
    let my_lambda_ids = layout.lambdas_for(comms.l_group, cfg.q);
    let my_lambdas: Vec<f64> = my_lambda_ids.iter().map(|&j| lambdas[j]).collect();
    let my_boots: Vec<usize> = layout
        .bootstraps_for(comms.b_group, cfg.b1)
        .into_iter()
        .filter(|&k| !plan.is_some_and(|pl| pl.selection_failed(k)))
        .collect();
    let systems = selection_map(ctx, &comms.admm_comm, &resident, n, cfg.seed, &my_boots);
    // Residual-curve capture is symmetric across ranks (it never touches
    // a collective), and only group leaders emit the record.
    let mut admm = cfg.admm.clone();
    admm.capture_curve = ctx.telemetry().tracing_enabled();
    for (&k, sys) in my_boots.iter().zip(&systems) {
        let sols = if !guarded {
            sys.try_solver(ctx, &comms.admm_comm, admm.clone())
                .expect("local ADMM system must factor (is the design non-finite?)")
                .solve_path_with_rhs(ctx, &comms.admm_comm, &sys.xty, &my_lambdas)
        } else {
            // Guarded construction. The solver's only collective (the
            // penalty allreduce) runs before any rank can fail, so all
            // ranks reach the agreement allreduce below regardless of
            // who broke: [breakdowns, jitter attempts, jitter] summed
            // across the ADMM communicator gives every rank the same
            // verdict and the same (deterministic) health numbers.
            let attempt = sys.try_solver(ctx, &comms.admm_comm, admm.clone());
            let mut stats = match &attempt {
                Ok(s) => {
                    let fh = s.factor_health();
                    vec![0.0, fh.attempts as f64, fh.jitter]
                }
                Err(_) => vec![1.0, 0.0, 0.0],
            };
            comms.admm_comm.allreduce_sum(ctx, &mut stats);
            if stats[0] > 0.0 {
                ledger.note_factor(
                    &num_tel,
                    "selection",
                    k,
                    &FactorHealth {
                        attempts: u32::MAX,
                        jitter: 0.0,
                        condest: None,
                    },
                );
                ledger.note_task_dropped(&num_tel, "selection", k, "factorization_exhausted");
                continue;
            }
            if stats[1] > 0.0 {
                ledger.note_factor(
                    &num_tel,
                    "selection",
                    k,
                    &FactorHealth {
                        attempts: stats[1] as u32,
                        jitter: stats[2],
                        condest: None,
                    },
                );
            }
            let solver = attempt.expect("no rank reported a factor breakdown");
            let mut sols = solver.solve_path_with_rhs(ctx, &comms.admm_comm, &sys.xty, &my_lambdas);
            recover_diverged_dist(
                ctx,
                &comms.admm_comm,
                sys,
                &admm,
                cfg,
                &lambdas,
                &my_lambda_ids,
                &mut sols,
                &ledger,
                &num_tel,
                k,
            );
            sols
        };
        if comms.is_group_leader() {
            for (&j, sol) in my_lambda_ids.iter().zip(&sols) {
                let support = support_of(&sol.beta, cfg.support_tol);
                let (rank, t) = (ctx.world_rank(), ctx.clock());
                ctx.telemetry().record_with(|| TraceEvent::Convergence {
                    rank,
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
                    curve: sol.curve.clone(),
                    t,
                });
                for f in support {
                    votes[j * p + f] += 1.0;
                }
            }
        }
    }
    // Reduce: one world allreduce realises eq. 3 for every lambda at once
    // (soft threshold: >= ceil(frac * B1) votes).
    world.allreduce_sum(ctx, &mut votes);
    let needed = crate::uoi_lasso::required_votes(cfg.intersection_frac, effective_b1) as f64;
    let supports_per_lambda: Vec<Vec<usize>> = (0..cfg.q)
        .map(|j| {
            (0..p)
                .filter(|&f| votes[j * p + f] >= needed - 0.5)
                .collect()
        })
        .collect();
    let support_family = dedup_family(supports_per_lambda.clone());
    ctx.span_exit(sel_span);

    // --- Model estimation ---
    // Estimation bootstraps are spread over all (b, lambda) groups. The
    // candidate family only references its column union, so the resident
    // block is projected onto the union plus the response *before* the
    // pull (rows travel u+1 wide, not p+1). One pull fetches the distinct
    // train and eval rows of every resample the rank serves; one batched
    // pass builds each resample's union Gram from its train
    // multiplicities; eval rows are scored in place in the pulled block.
    // Every support's distributed OLS then factors an |S|x|S| sub-Gram
    // instead of re-gathering and re-factoring the shuffled design.
    let est_span = ctx.span_enter("uoi.estimation");
    let mut union: Vec<usize> = support_family.iter().flatten().copied().collect();
    union.sort_unstable();
    union.dedup();
    let mut union_pos = vec![usize::MAX; p];
    for (a, &f) in union.iter().enumerate() {
        union_pos[f] = a;
    }
    let groups = layout.p_b * layout.p_lambda;
    let my_group = comms.b_group * layout.p_lambda + comms.l_group;
    let my_est: Vec<usize> = (0..cfg.b2)
        .filter(|&k| k % groups == my_group)
        .filter(|&k| !plan.is_some_and(|pl| pl.estimation_failed(k)))
        .collect();
    // This rank's share of each resample's train and eval row lists.
    let splits: Vec<(Vec<usize>, Vec<usize>)> = my_est
        .iter()
        .map(|&k| {
            let mut rng = substream(cfg.seed, 10_000 + k as u64);
            let (train_idx, eval_idx) = bootstrap_with_oob(&mut rng, n);
            (
                my_share(&train_idx, c, admm_rank),
                my_share(&eval_idx, c, admm_rank),
            )
        })
        .collect();
    let pull = {
        let mut keep = union.clone();
        keep.push(p);
        let projected = resident.gather_cols(&keep);
        ctx.compute_membound((projected.len() * 8) as f64);
        StagePull::new(
            ctx,
            &comms.admm_comm,
            projected,
            n,
            splits
                .iter()
                .flat_map(|(train, eval)| [train.as_slice(), eval.as_slice()]),
        )
    };
    let sp_gram = ctx.span_enter("gram_build.union");
    let est_systems = {
        let weights: Vec<Vec<f64>> = splits
            .iter()
            .map(|(train, _)| pull.weights(train))
            .collect();
        pull.gram_rhs(ctx, &weights)
    };
    ctx.span_exit(sp_gram);
    let u = union.len();
    let mut est_sum = vec![0.0; p];
    for ((&k, (train, eval)), (gram_u, xty_u)) in my_est.iter().zip(&splits).zip(est_systems) {
        let eval_rows: Vec<usize> = eval.iter().map(|&r| pull.pos[r]).collect();
        let mut best: Option<(f64, Vec<f64>)> = None;
        // Worst-case OLS solver outcome across the candidate family —
        // the estimation task's convergence record.
        let (mut est_iters, mut est_conv) = (0usize, true);
        for support in &support_family {
            // Distributed OLS (ADMM at lambda = 0) on the |S|x|S|
            // sub-Gram, as the paper's estimation step does.
            let s = support.len();
            let sub = Matrix::from_fn(s, s, |a, b| {
                let (i, j) = (union_pos[support[a]], union_pos[support[b]]);
                if i <= j {
                    gram_u[(i, j)]
                } else {
                    gram_u[(j, i)]
                }
            });
            let rhs: Vec<f64> = support.iter().map(|&f| xty_u[union_pos[f]]).collect();
            let solver =
                DistLassoAdmm::from_gram(ctx, &comms.admm_comm, sub, train.len(), cfg.admm.clone());
            let sol = solver.solve_ols_with_rhs(ctx, &comms.admm_comm, &rhs);
            est_iters = est_iters.max(sol.iterations);
            est_conv &= sol.converged;
            // Embed into full coordinates, plus union coordinates for the
            // evaluation pass.
            let mut beta = vec![0.0; p];
            let mut beta_u = vec![0.0; u];
            for (&f, &b) in support.iter().zip(&sol.beta) {
                beta[f] = b;
                beta_u[union_pos[f]] = b;
            }
            // Distributed evaluation loss: local SSE, allreduce 2 scalars.
            let sp_score = ctx.span_enter("scoring.eval");
            let mut sse = 0.0;
            for &e in &eval_rows {
                let d = uoi_linalg::dot(pull.x.row(e), &beta_u) - pull.y[e];
                sse += d * d;
            }
            ctx.compute_flops(
                2.0 * (eval_rows.len() * u) as f64,
                (eval_rows.len() * u * 8) as f64,
            );
            let mut stats = vec![sse, eval_rows.len() as f64];
            comms.admm_comm.allreduce_sum(ctx, &mut stats);
            ctx.span_exit(sp_score);
            let loss = stats[0] / stats[1].max(1.0);
            if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                best = Some((loss, beta));
            }
        }
        if comms.is_group_leader() {
            let (rank, t) = (ctx.world_rank(), ctx.clock());
            ctx.telemetry().record_with(|| TraceEvent::Convergence {
                rank,
                stage: "estimation",
                bootstrap: k,
                lambda_idx: 0,
                lambda: 0.0,
                iterations: est_iters,
                max_iter: cfg.admm.max_iter,
                converged: est_conv,
                primal_residual: 0.0,
                dual_residual: 0.0,
                support: Vec::new(),
                curve: Vec::new(),
                t,
            });
            if let Some((_, beta)) = best {
                for (s, b) in est_sum.iter_mut().zip(&beta) {
                    *s += b;
                }
            }
        }
    }
    // Reduce: average the winners across groups (eq. 4).
    world.allreduce_sum(ctx, &mut est_sum);
    ctx.span_exit(est_span);
    let beta: Vec<f64> = est_sum.iter().map(|v| v / effective_b2 as f64).collect();

    let intercept = y_mean - uoi_linalg::dot(&x_means, &beta);
    let support = support_of(&beta, cfg.support_tol);
    let degradation = plan.map(|pl| crate::degraded::DegradationReport {
        b1_planned: cfg.b1,
        b1_effective: effective_b1,
        b2_planned: cfg.b2,
        b2_effective: effective_b2,
        failed_selection: (0..cfg.b1).filter(|&k| pl.selection_failed(k)).collect(),
        failed_estimation: (0..cfg.b2).filter(|&k| pl.estimation_failed(k)).collect(),
        quorum_votes: needed as usize,
        min_quorum_frac: cfg.degradation.min_quorum_frac,
    });
    UoiFit {
        beta,
        intercept,
        support,
        lambdas,
        supports_per_lambda,
        support_family,
        degradation,
        recovery: None,
        speculation: None,
        numerical: cfg.numerical.active().then(|| ledger.drain_report()),
    }
}

/// Post-hoc divergence detection and bounded-rho recovery for a solved
/// distributed selection path.
///
/// The residuals in `sols` are consensus (allreduced) quantities, so
/// every rank detects the same divergences and walks the same restart
/// rungs — control flow stays collectively aligned. Each rung rebuilds
/// the consensus solver from the same local system at a Boyd-balanced
/// escalated (or relaxed) penalty and cold-solves just the diverged
/// lambda, mirroring the serial [`uoi_solvers::ResilientLasso`] recovery. A lambda that
/// exhausts the budget degrades to the zero iterate — it then
/// contributes no selection votes — and is recorded as a dropped
/// divergence.
#[allow(clippy::too_many_arguments)]
fn recover_diverged_dist(
    ctx: &mut RankCtx,
    comm: &Comm,
    sys: &LocalSystem,
    admm: &uoi_solvers::AdmmConfig,
    cfg: &UoiLassoConfig,
    lambdas: &[f64],
    my_lambda_ids: &[usize],
    sols: &mut [uoi_solvers::AdmmSolution],
    ledger: &NumericalLedger,
    num_tel: &Telemetry,
    k: usize,
) {
    let res = cfg.numerical.resilience;
    let cap = res.divergence_cap;
    let tripped = |s: &uoi_solvers::AdmmSolution| {
        !s.converged
            && (!s.primal_residual.is_finite()
                || !s.dual_residual.is_finite()
                || s.primal_residual.abs() > cap
                || s.dual_residual.abs() > cap)
    };
    let diverged: Vec<usize> = (0..sols.len()).filter(|&i| tripped(&sols[i])).collect();
    if diverged.is_empty() {
        return;
    }
    let mut health = uoi_solvers::PathHealth::default();
    for &i in &diverged {
        let j = my_lambda_ids[i];
        // Boyd residual balancing: same direction rule as the serial
        // resilient solver (non-finite defaults to increase).
        let (r, s) = (sols[i].primal_residual, sols[i].dual_residual);
        let increase = !s.is_finite() || !r.is_finite() || r >= s;
        let mut recovered = false;
        for rung in 1..=res.max_rho_restarts {
            health.rho_restarts += 1;
            let scale = 10f64.powi(rung as i32);
            let mut admm_r = admm.clone();
            admm_r.rho = if increase {
                admm.rho * scale
            } else {
                admm.rho / scale
            };
            // Same agreement protocol as construction: the restarted
            // factorisation may itself break on some rank.
            let attempt = sys.try_solver(ctx, comm, admm_r);
            let mut broke = vec![if attempt.is_err() { 1.0 } else { 0.0 }];
            comm.allreduce_sum(ctx, &mut broke);
            if broke[0] > 0.0 {
                continue;
            }
            let solver = attempt.expect("no rank reported a factor breakdown");
            let redo = solver.solve_path_with_rhs(ctx, comm, &sys.xty, &[lambdas[j]]);
            let sol = redo.into_iter().next().expect("one lambda was solved");
            if !tripped(&sol) {
                sols[i] = sol;
                recovered = true;
                break;
            }
        }
        if recovered {
            health.recovered.push(j);
        } else {
            sols[i].beta = vec![0.0; sols[i].beta.len()];
            sols[i].converged = false;
            health.diverged.push(j);
        }
    }
    ledger.note_path(num_tel, "selection", k, &health);
}

/// One stage's Tier-2 pull: the sorted distinct global rows of every
/// share a rank serves, fetched by a single one-sided shuffle and split
/// into design and response (the block's last column).
struct StagePull {
    x: Matrix,
    y: Vec<f64>,
    /// Global row id -> its row in `x` (`usize::MAX` when not pulled).
    pos: Vec<usize>,
}

impl StagePull {
    /// Collective over `comm`: every rank pulls exactly once per stage,
    /// even with no shares to serve.
    fn new<'a>(
        ctx: &mut RankCtx,
        comm: &Comm,
        resident: Matrix,
        n: usize,
        shares: impl IntoIterator<Item = &'a [usize]>,
    ) -> Self {
        let mut rows: Vec<usize> = shares.into_iter().flatten().copied().collect();
        rows.sort_unstable();
        rows.dedup();
        let (block, _) = tier2_shuffle(ctx, comm, resident, n, &rows);
        let w = block.cols() - 1;
        let x = block.gather_cols(&(0..w).collect::<Vec<_>>());
        let y = block.col(w);
        let mut pos = vec![usize::MAX; n];
        for (i, &r) in rows.iter().enumerate() {
            pos[r] = i;
        }
        Self { x, y, pos }
    }

    /// Multiplicity of every pulled row in `share`.
    fn weights(&self, share: &[usize]) -> Vec<f64> {
        let mut w = vec![0.0; self.x.rows()];
        for &r in share {
            w[self.pos[r]] += 1.0;
        }
        w
    }

    /// Upper-stored weighted Gram and rhs of every weight vector in one
    /// batched pass over the pulled block — the serial fit's kernel and
    /// contract. Charged as one streaming read of the block plus
    /// cache-resident tiled flops over each vector's nonzero-weight rows.
    fn gram_rhs(&self, ctx: &mut RankCtx, weights: &[Vec<f64>]) -> Vec<(Matrix, Vec<f64>)> {
        let u = self.x.cols();
        let wrefs: Vec<&[f64]> = weights.iter().map(Vec::as_slice).collect();
        let systems = uoi_linalg::gram_rhs_batch(&self.x, &self.y, &wrefs);
        let nnz: usize = weights
            .iter()
            .map(|w| w.iter().filter(|v| **v != 0.0).count())
            .sum();
        ctx.compute_membound((self.x.len() * 8) as f64);
        ctx.compute_flops(
            (nnz * u * (u + 2)) as f64,
            uoi_linalg::gram::gram_kernel_ws(u),
        );
        systems
            .into_iter()
            .map(|(g, xty)| (g.into_upper(), xty))
            .collect()
    }

    /// `share`'s rows in order, duplicates included.
    fn gather(&self, share: &[usize]) -> (Matrix, Vec<f64>) {
        let at: Vec<usize> = share.iter().map(|&r| self.pos[r]).collect();
        (
            self.x.gather_rows(&at),
            at.iter().map(|&i| self.y[i]).collect(),
        )
    }
}

/// One selection bootstrap's rank-local consensus system.
struct LocalSystem {
    source: LocalSource,
    /// The share's local `X_i^T y_i`.
    xty: Vec<f64>,
}

enum LocalSource {
    /// Upper-stored local Gram and the share's row count.
    Gram(Matrix, usize),
    /// The gathered share itself: fewer rows than features, so the
    /// solver keeps the design for its Woodbury x-update.
    Dense(Matrix),
}

impl LocalSystem {
    /// Build the consensus solver (collective: penalty allreduce). Also
    /// the rebuild path of the rho restarts, so the system is borrowed.
    fn try_solver(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        admm: uoi_solvers::AdmmConfig,
    ) -> Result<DistLassoAdmm, uoi_linalg::FactorBreakdown> {
        match &self.source {
            LocalSource::Gram(gram, n_rows) => {
                DistLassoAdmm::try_from_gram(ctx, comm, gram.clone(), *n_rows, admm)
            }
            LocalSource::Dense(x) => DistLassoAdmm::try_new(ctx, comm, x.clone(), admm),
        }
    }
}

/// The selection Map: this rank's block-striped share of every bootstrap
/// in `boots`, the distinct rows of all shares fetched by ONE pull, and each share's
/// local system. Shares with at least as many rows as features get their
/// Gram and rhs from one batched pass over the pulled block; shorter
/// shares (the Woodbury regime) are gathered for the dense solver. Every
/// share has the rank's block length, so one route serves the stage.
fn selection_map(
    ctx: &mut RankCtx,
    comm: &Comm,
    resident: &Matrix,
    n: usize,
    seed: u64,
    boots: &[usize],
) -> Vec<LocalSystem> {
    let my_range = block_range(n, comm.size(), comm.rank());
    let shares: Vec<Vec<usize>> = boots
        .iter()
        .map(|&k| {
            let mut rng = substream(seed, k as u64);
            row_bootstrap(&mut rng, n, n)[my_range.clone()].to_vec()
        })
        .collect();
    let pull = StagePull::new(
        ctx,
        comm,
        resident.clone(),
        n,
        shares.iter().map(Vec::as_slice),
    );
    if my_range.len() < pull.x.cols() {
        return shares
            .iter()
            .map(|share| {
                let (x, y) = pull.gather(share);
                let xty = uoi_linalg::gemv_t(&x, &y);
                ctx.compute_membound((x.len() * 8) as f64);
                ctx.compute_flops(2.0 * x.len() as f64, (x.len() * 8) as f64);
                LocalSystem {
                    source: LocalSource::Dense(x),
                    xty,
                }
            })
            .collect();
    }
    let sp = ctx.span_enter("gram_build.batch");
    let weights: Vec<Vec<f64>> = shares.iter().map(|s| pull.weights(s)).collect();
    let systems = pull
        .gram_rhs(ctx, &weights)
        .into_iter()
        .zip(&shares)
        .map(|((gram, xty), share)| LocalSystem {
            source: LocalSource::Gram(gram, share.len()),
            xty,
        })
        .collect();
    ctx.span_exit(sp);
    systems
}

/// This rank's block-striped share of a resample index list (the global
/// row ids the rank must fetch).
fn my_share(idx: &[usize], c: usize, rank: usize) -> Vec<usize> {
    block_range(idx.len(), c, rank).map(|i| idx[i]).collect()
}

pub use crate::parallelism::ParallelLayout as Layout;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitter::UoiFitter;
    use crate::metrics::SelectionCounts;
    use uoi_data::LinearConfig;
    use uoi_mpisim::{Cluster, MachineModel, Phase};
    use uoi_solvers::AdmmConfig;

    fn cfg() -> UoiLassoConfig {
        UoiLassoConfig {
            b1: 6,
            b2: 6,
            q: 10,
            lambda_min_ratio: 2e-2,
            admm: AdmmConfig {
                max_iter: 3000,
                abstol: 1e-9,
                reltol: 1e-8,
                ..Default::default()
            },
            support_tol: 1e-6,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn distributed_matches_serial_statistically() {
        let ds = LinearConfig {
            n_samples: 96,
            n_features: 20,
            n_nonzero: 4,
            snr: 10.0,
            seed: 3,
            ..Default::default()
        }
        .generate();
        let serial = UoiFitter::new(cfg()).fit(&ds.x, &ds.y).unwrap();
        let (x, y) = (ds.x.clone(), ds.y.clone());
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, world| {
            fit_uoi_lasso_dist(ctx, world, &x, &y, &cfg(), ParallelLayout::admm_only())
        });
        let dist = &report.results[0];
        // Selection is driven by the same bootstrap streams; supports per
        // lambda should agree.
        assert_eq!(dist.supports_per_lambda, serial.supports_per_lambda);
        // Recovery quality matches.
        let cs = SelectionCounts::compare(&serial.support, &ds.support_true, 20);
        let cd = SelectionCounts::compare(&dist.support, &ds.support_true, 20);
        assert!(
            cd.f1() >= cs.f1() - 0.15,
            "dist f1 {} vs serial {}",
            cd.f1(),
            cs.f1()
        );
        // Coefficients close.
        for (a, b) in dist.beta.iter().zip(&serial.beta) {
            assert!((a - b).abs() < 0.05, "dist {a} vs serial {b}");
        }
    }

    #[test]
    fn all_ranks_return_identical_fits() {
        let ds = LinearConfig {
            n_samples: 64,
            n_features: 12,
            n_nonzero: 3,
            seed: 9,
            ..Default::default()
        }
        .generate();
        let (x, y) = (ds.x.clone(), ds.y);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, world| {
            let fit = fit_uoi_lasso_dist(ctx, world, &x, &y, &cfg(), ParallelLayout::admm_only());
            (fit.beta, fit.support)
        });
        for r in 1..4 {
            assert_eq!(report.results[0], report.results[r]);
        }
    }

    #[test]
    fn pb_plambda_layout_equivalent_to_admm_only() {
        let ds = LinearConfig {
            n_samples: 64,
            n_features: 12,
            n_nonzero: 3,
            seed: 5,
            ..Default::default()
        }
        .generate();
        let run = |layout: ParallelLayout| {
            let (x, y) = (ds.x.clone(), ds.y.clone());
            Cluster::new(8, MachineModel::deterministic())
                .run(move |ctx, world| fit_uoi_lasso_dist(ctx, world, &x, &y, &cfg(), layout))
                .results
                .remove(0)
        };
        let flat = run(ParallelLayout::admm_only());
        let nested = run(ParallelLayout {
            p_b: 2,
            p_lambda: 2,
        });
        assert_eq!(flat.supports_per_lambda, nested.supports_per_lambda);
        for (a, b) in flat.beta.iter().zip(&nested.beta) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    /// The resident block of `range`: centred rows plus the response.
    fn resident_of(xc: &Matrix, yc: &[f64], range: std::ops::Range<usize>) -> Matrix {
        let p = xc.cols();
        let mut block = Matrix::zeros(range.len(), p + 1);
        for (dst, src) in range.enumerate() {
            block.row_mut(dst)[..p].copy_from_slice(xc.row(src));
            block.row_mut(dst)[p] = yc[src];
        }
        block
    }

    #[test]
    fn union_pull_partitions_the_serial_selection_gram() {
        let (n, b1, seed) = (90, 5, 7);
        let ds = LinearConfig {
            n_samples: n,
            n_features: 12,
            n_nonzero: 3,
            seed: 4,
            ..Default::default()
        }
        .generate();
        let (xc, yc, _, _) = crate::uoi_lasso::centre_data(&ds.x, &ds.y);
        let nested = ParallelLayout {
            p_b: 2,
            p_lambda: 2,
        };
        // Three-rank ADMM communicators: the whole world under admm_only,
        // each of the four (b, lambda) groups under the nested layout.
        for (world, layout) in [(3, ParallelLayout::admm_only()), (12, nested)] {
            let (xr, yr) = (xc.clone(), yc.clone());
            let report = Cluster::new(world, MachineModel::deterministic()).run(move |ctx, w| {
                let comms = layout.split(ctx, w);
                let (c, r) = (comms.admm_comm.size(), comms.admm_comm.rank());
                let resident = resident_of(&xr, &yr, block_range(n, c, r));
                let boots = layout.bootstraps_for(comms.b_group, b1);
                let systems = selection_map(ctx, &comms.admm_comm, &resident, n, seed, &boots);
                let rows = block_range(n, c, r).len();
                let out: Vec<(usize, Matrix, Vec<f64>, usize)> = boots
                    .iter()
                    .zip(systems)
                    .map(|(&k, sys)| match sys.source {
                        LocalSource::Gram(gram, n_rows) => (k, gram, sys.xty, n_rows),
                        LocalSource::Dense(_) => {
                            panic!("a {rows}-row share must take the Gram route")
                        }
                    })
                    .collect();
                (comms.l_group, c, rows, out)
            });
            // Sum every (lambda group, bootstrap) over its ADMM ranks.
            let mut sums: std::collections::BTreeMap<(usize, usize), (Matrix, Vec<f64>, usize)> =
                Default::default();
            for (l_group, c, rows, out) in report.results {
                assert_eq!(c, 3, "three-rank ADMM communicator");
                for (k, gram, xty, n_rows) in out {
                    assert_eq!(n_rows, rows, "n_rows must be the rank's block length");
                    let e = sums
                        .entry((l_group, k))
                        .or_insert_with(|| (Matrix::zeros(12, 12), vec![0.0; 12], 0));
                    for (a, b) in e.0.as_mut_slice().iter_mut().zip(gram.as_slice()) {
                        *a += b;
                    }
                    for (a, b) in e.1.iter_mut().zip(&xty) {
                        *a += b;
                    }
                    e.2 += 1;
                }
            }
            assert_eq!(sums.len(), b1 * layout.p_lambda, "every bootstrap served");
            for ((_, k), (gram, xty, ranks)) in &sums {
                assert_eq!(*ranks, 3, "bootstrap {k}: one share per ADMM rank");
                let w = crate::uoi_lasso::selection_weights(n, seed, *k);
                let (want_g, want_r) = uoi_linalg::gram_rhs_batch(&xc, &yc, &[&w])
                    .pop()
                    .expect("batch of one");
                let want_g = want_g.into_upper();
                let scale = want_g
                    .as_slice()
                    .iter()
                    .fold(0.0_f64, |m, v| m.max(v.abs()));
                for i in 0..12 {
                    for j in i..12 {
                        let d = (gram[(i, j)] - want_g[(i, j)]).abs();
                        assert!(
                            d <= 1e-10 * scale,
                            "bootstrap {k}: Gram ({i},{j}) off by {d}"
                        );
                    }
                }
                let rscale = want_r.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
                for (a, b) in xty.iter().zip(&want_r) {
                    assert!(
                        (a - b).abs() <= 1e-10 * rscale,
                        "bootstrap {k}: rhs {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn short_shares_take_the_dense_route_and_match_serial() {
        // 64 rows over 4 ranks: every 16-row share is shorter than p = 40,
        // the Woodbury regime of fig3's small blocks.
        let (n, p) = (64, 40);
        let ds = LinearConfig {
            n_samples: n,
            n_features: p,
            n_nonzero: 4,
            snr: 10.0,
            seed: 12,
            ..Default::default()
        }
        .generate();
        let (xc, yc, _, _) = crate::uoi_lasso::centre_data(&ds.x, &ds.y);
        let routes = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, w| {
            let resident = resident_of(&xc, &yc, block_range(n, 4, w.rank()));
            selection_map(ctx, w, &resident, n, 7, &[0, 1, 2])
                .iter()
                .all(|s| matches!(&s.source, LocalSource::Dense(x) if x.rows() == 16))
        });
        assert!(
            routes.results.iter().all(|&dense| dense),
            "short shares stay dense"
        );

        let serial = UoiFitter::new(cfg()).fit(&ds.x, &ds.y).unwrap();
        let (x, y) = (ds.x.clone(), ds.y);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, world| {
            let fit = fit_uoi_lasso_dist(ctx, world, &x, &y, &cfg(), ParallelLayout::admm_only());
            (fit.beta, fit.supports_per_lambda)
        });
        for r in 1..4 {
            assert_eq!(report.results[0], report.results[r], "rank {r} disagrees");
        }
        assert_eq!(report.results[0].1, serial.supports_per_lambda);
    }

    #[test]
    fn one_tier2_pull_per_stage_per_rank() {
        use std::collections::HashMap;
        use std::sync::Arc;
        use uoi_telemetry::MemorySink;
        let ds = LinearConfig {
            n_samples: 64,
            n_features: 12,
            n_nonzero: 3,
            seed: 9,
            ..Default::default()
        }
        .generate();
        let sink = Arc::new(MemorySink::new());
        let (x, y) = (ds.x.clone(), ds.y);
        Cluster::new(2, MachineModel::deterministic())
            .with_telemetry(Telemetry::with_sink(sink.clone()))
            .run(move |ctx, world| {
                fit_uoi_lasso_dist(ctx, world, &x, &y, &cfg(), ParallelLayout::admm_only())
            });
        let mut spans: HashMap<u64, (String, Option<u64>, usize)> = HashMap::new();
        for e in sink.snapshot() {
            if let TraceEvent::SpanStart {
                id,
                parent,
                name,
                rank,
                ..
            } = e
            {
                spans.insert(id, (name, parent, rank));
            }
        }
        // Attribute every pull to its enclosing stage span.
        let mut pulls: HashMap<(usize, String), usize> = HashMap::new();
        for (name, parent, rank) in spans.values() {
            if name != "shuffle_t2.window" {
                continue;
            }
            let mut up = *parent;
            while let Some(id) = up {
                let (pname, pparent, _) = &spans[&id];
                if pname.starts_with("uoi.") {
                    *pulls.entry((*rank, pname.clone())).or_default() += 1;
                    break;
                }
                up = *pparent;
            }
        }
        for rank in 0..2 {
            for stage in ["uoi.selection", "uoi.estimation"] {
                assert_eq!(
                    pulls.get(&(rank, stage.to_string())),
                    Some(&1),
                    "rank {rank}: one pull in {stage}"
                );
            }
        }
        assert_eq!(pulls.values().sum::<usize>(), 4, "no pull outside a stage");
    }

    #[test]
    fn phases_all_recorded() {
        let ds = LinearConfig {
            n_samples: 48,
            n_features: 10,
            n_nonzero: 2,
            seed: 1,
            ..Default::default()
        }
        .generate();
        let (x, y) = (ds.x.clone(), ds.y);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, world| {
            let _ = fit_uoi_lasso_dist(ctx, world, &x, &y, &cfg(), ParallelLayout::admm_only());
            ctx.ledger()
        });
        let l = report.phase_max();
        assert!(l.get(Phase::Compute) > 0.0, "compute time must be recorded");
        assert!(l.get(Phase::Comm) > 0.0, "allreduce time must be recorded");
        assert!(
            l.get(Phase::Distribution) > 0.0,
            "tier-2 shuffles must be recorded"
        );
    }
}

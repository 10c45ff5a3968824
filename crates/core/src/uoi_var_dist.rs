//! Distributed `UoI_VAR` (paper Algorithm 2 + §III-B2): block bootstrap,
//! **distributed Kronecker product and vectorisation** through one-sided
//! reader windows, lockstep distributed LASSO-ADMM over the vectorised
//! problem, and the intersection/union reduces.
//!
//! The defining scaling feature (paper §III-B2): the input series is tiny
//! (MBs) but the vectorised problem `vec Y = (I ⊗ X) vec B` explodes
//! ≈ p^3. A small set of `n_reader` ranks holds the lag-matrix rows and
//! exposes them through MPI-style windows; every compute rank *pulls* the
//! rows it needs to assemble its local share of `(I ⊗ X)` — the full
//! matrix is never materialised in one place, and the reader windows
//! serialise, which is exactly the distribution bottleneck of Figs 9–10.
//!
//! Each ADMM rank owns a contiguous band of response columns (a set of
//! diagonal blocks of `I ⊗ X`). Because blocks are disjoint, the global
//! LASSO decomposes exactly; the ranks nevertheless run their per-column
//! ADMM iterations in lockstep and allreduce the full `d p^2` estimate
//! every round — reproducing the paper's "converge to a common value of
//! estimates via `MPI_Allreduce`" communication pattern while staying
//! numerically identical to the serial path (tested).

use crate::parallelism::ParallelLayout;
use crate::support::dedup_family;
use crate::uoi_var::{block_bootstrap_with_oob, UoiVarConfig, UoiVarFit};
use crate::var_matrices::{partition_coefficients, VarRegression};
use uoi_data::bootstrap::{block_bootstrap, default_block_len, resample_weights};
use uoi_data::rng::substream;
use uoi_linalg::{gemv_t_weighted_multi, syrk_t_upper, syrk_t_weighted_upper, Matrix};
use uoi_mpisim::{Comm, Phase, RankCtx, Window};
use uoi_solvers::{
    admm_active_iter_flops, geometric_grid, ols_on_support_gram, support_of, LassoAdmm,
};
use uoi_telemetry::TraceEvent;
use uoi_tieredio::distribution::{block_owner, block_range};

/// Configuration of the distributed fit.
#[derive(Debug, Clone)]
pub struct UoiVarDistConfig {
    /// The statistical configuration (shared with the serial fit).
    pub var: UoiVarConfig,
    /// Number of reader ranks exposing the lag-matrix windows (the
    /// paper's `n_reader`, "usually equal to the number of samples based
    /// on the availability of resources"). Clamped to the world size.
    pub n_readers: usize,
    /// `P_B x P_lambda x ADMM` decomposition (Fig 8 sweeps); the default
    /// dedicates every core to the distributed solver.
    pub layout: ParallelLayout,
}

impl Default for UoiVarDistConfig {
    fn default() -> Self {
        Self {
            var: UoiVarConfig::default(),
            n_readers: 4,
            layout: ParallelLayout::admm_only(),
        }
    }
}

/// Timing summary of the distributed-Kronecker stages (for the Fig 7–10
/// harnesses).
#[derive(Debug, Clone, Copy, Default)]
pub struct KronStats {
    /// Virtual seconds in distributed Kronecker/vectorisation pulls.
    pub kron_seconds: f64,
    /// Number of one-sided row pulls issued by this rank.
    pub rows_pulled: usize,
}

/// Fit `UoI_VAR` distributed over `world`; every rank returns the
/// identical fit plus its local Kronecker-stage stats.
#[deprecated(
    since = "0.6.0",
    note = "use `uoi_core::UoiVarFitter` with `ExecMode::Dist` (or `fit_on` inside a cluster) instead"
)]
pub fn fit_uoi_var_dist(
    ctx: &mut RankCtx,
    world: &Comm,
    series: &Matrix,
    cfg: &UoiVarDistConfig,
) -> (UoiVarFit, KronStats) {
    let (n_raw, p) = series.shape();
    let d = cfg.var.order;
    assert!(n_raw > d + 4, "series too short");
    let base = &cfg.var.base;

    // Input validation (deterministic scrub, identical on every rank; a
    // rank-local ledger keeps concurrent rank closures from racing on
    // the shared config ledger, and only world rank 0 forwards events so
    // run traces carry each issue once). Solver-level numerical guards
    // for the lockstep VAR path are documented in DESIGN.md §7 — the
    // serial VAR and both LASSO paths carry the full ladder.
    let num_ledger = crate::numerical::NumericalLedger::default();
    let num_tel = if world.rank() == 0 {
        ctx.telemetry().clone()
    } else {
        uoi_telemetry::Telemetry::disabled()
    };
    let scrubbed = base.numerical.validation.map(|policy| {
        let mut xs = series.clone();
        let mut dummy = vec![0.0; xs.rows()];
        let outcome = uoi_data::validate_xy(&mut xs, &mut dummy, policy)
            .unwrap_or_else(|e| panic!("fit_uoi_var_dist: {e}"));
        num_ledger.note_validation(&num_tel, &outcome);
        xs
    });
    let series: &Matrix = scrubbed.as_ref().unwrap_or(series);

    // Centre (identical everywhere; one membound sweep).
    let means = series.col_means();
    let mut centred = series.clone();
    centred.center_cols(&means);
    ctx.compute_membound((n_raw * p * 8) as f64);

    // Readers build their row block of the (Y | X) lag regression and
    // expose it; other ranks expose nothing.
    let reg_full = VarRegression::build(&centred, d);
    let n = reg_full.samples();
    let dp = d * p;
    let total_coef = dp * p;
    let width = p + dp; // (Y | X) row width in the window
    let readers = cfg.n_readers.clamp(1, world.size());
    let my_reader_block = if world.rank() < readers {
        let r = block_range(n, readers, world.rank());
        let mut block = Matrix::zeros(r.len(), width);
        for (dst, src) in r.clone().enumerate() {
            block.row_mut(dst)[..p].copy_from_slice(reg_full.y.row(src));
            block.row_mut(dst)[p..].copy_from_slice(reg_full.x.row(src));
        }
        ctx.compute_membound((r.len() * width * 8) as f64);
        block.into_vec()
    } else {
        Vec::new()
    };
    let win = Window::create(ctx, world, my_reader_block);
    win.fence(ctx, world);

    let mut kron = KronStats::default();
    // Stagger offset: spreads concurrent pulls across reader windows.
    let stagger = world.rank() * n.div_ceil(world.size());

    // P_B x P_lambda x ADMM decomposition; column ownership is a
    // contiguous band of response columns per ADMM rank *within a group*.
    let comms = cfg.layout.split(ctx, world);
    let c = comms.admm_comm.size();
    let my_cols = block_range(p, c, comms.admm_comm.rank());

    // Lambda grid (identical everywhere, from the full regression).
    let mut lmax = 0.0_f64;
    for i in 0..p {
        let yi = reg_full.y.col(i);
        lmax = lmax.max(uoi_solvers::lambda_max(&reg_full.x, &yi));
    }
    ctx.compute_flops(2.0 * (n * dp * p) as f64, (n * dp * 8) as f64);
    let lmax = lmax.max(1e-12);
    let lambdas = geometric_grid(lmax, base.lambda_min_ratio * lmax, base.q);
    let block_len = cfg.var.block_len.unwrap_or_else(|| default_block_len(n));

    // --- Model selection ---
    // Each (bootstrap-group, lambda-group) pair handles its share of the
    // (k, lambda_j) grid; group leaders vote, one world allreduce
    // realises the eq. 3 intersection for every lambda at once.
    // Degraded mode: the deterministic plan is identical on every rank,
    // so all ranks skip the same tasks and collectives stay aligned.
    let plan = base.degradation.plan.as_ref();
    let effective_b1 = base.b1
        - (0..base.b1)
            .filter(|&k| plan.is_some_and(|pl| pl.selection_failed(k)))
            .count();
    let effective_b2 = base.b2
        - (0..base.b2)
            .filter(|&k| plan.is_some_and(|pl| pl.estimation_failed(k)))
            .count();
    base.degradation
        .check_quorum("selection", effective_b1, base.b1)
        .unwrap_or_else(|e| panic!("fit_uoi_var_dist: {e}"));
    base.degradation
        .check_quorum("estimation", effective_b2, base.b2)
        .unwrap_or_else(|e| panic!("fit_uoi_var_dist: {e}"));

    let sel_span = ctx.span_enter("uoi_var.selection");
    let my_lambda_ids = cfg.layout.lambdas_for(comms.l_group, base.q);
    let my_lambdas: Vec<f64> = my_lambda_ids.iter().map(|&j| lambdas[j]).collect();
    let mut votes = vec![0.0; base.q * total_coef];
    for &k in &cfg.layout.bootstraps_for(comms.b_group, base.b1) {
        if plan.is_some_and(|pl| pl.selection_failed(k)) {
            continue;
        }
        let mut rng = substream(base.seed, k as u64);
        let rows = block_bootstrap(&mut rng, n, n, block_len);
        // Distributed Kronecker + vectorisation: pull the resampled rows
        // through the reader windows (Algorithm 2 line 5). The pulled
        // block is the physical resample copy; the solve itself uses the
        // equivalent weighted-Gram form (row multiplicities over the
        // shared regression), keeping the arithmetic bit-identical to the
        // serial zero-copy path.
        let boot = pull_regression(ctx, &win, &rows, n, readers, p, dp, stagger, &mut kron);
        let w = resample_weights(&rows, n);
        let (full_vec, path_stats) = dist_lasso_path(
            ctx,
            &comms.admm_comm,
            &reg_full,
            &w,
            boot.samples(),
            &my_cols,
            &my_lambdas,
            base,
        );
        // full_vec[jj] = full vectorised estimate at my lambda jj. The
        // lockstep round counts come from the allreduced convergence
        // counter, so they are globally consistent and one leader per
        // group can emit the convergence record.
        if comms.is_group_leader() {
            for ((&j, vec_z), &(rounds, conv)) in
                my_lambda_ids.iter().zip(&full_vec).zip(&path_stats)
            {
                let support = support_of(vec_z, base.support_tol);
                let (rank, t) = (ctx.world_rank(), ctx.clock());
                ctx.telemetry().record_with(|| TraceEvent::Convergence {
                    rank,
                    stage: "selection",
                    bootstrap: k,
                    lambda_idx: j,
                    lambda: lambdas[j],
                    iterations: rounds,
                    max_iter: base.admm.max_iter,
                    converged: conv,
                    primal_residual: 0.0,
                    dual_residual: 0.0,
                    support: support.clone(),
                    curve: Vec::new(),
                    t,
                });
                for f in support {
                    votes[j * total_coef + f] += 1.0;
                }
            }
        }
    }
    world.allreduce_sum(ctx, &mut votes);
    let needed = crate::uoi_lasso::required_votes(base.intersection_frac, effective_b1) as f64;
    let supports_per_lambda: Vec<Vec<usize>> = (0..base.q)
        .map(|j| {
            (0..total_coef)
                .filter(|&f| votes[j * total_coef + f] >= needed - 0.5)
                .collect()
        })
        .collect();
    let support_family = dedup_family(supports_per_lambda.clone());
    ctx.span_exit(sel_span);

    // --- Model estimation ---
    // Estimation bootstraps are spread over all (b, lambda) groups. The
    // family only references the union of its lag columns, so each
    // bootstrap builds one union-Gram from its pulled training block and
    // every candidate's per-column OLS is a sub-Gram extraction.
    let est_span = ctx.span_enter("uoi_var.estimation");
    let mut union_cols: Vec<usize> = support_family.iter().flatten().map(|&s| s % dp).collect();
    union_cols.sort_unstable();
    union_cols.dedup();
    let u_len = union_cols.len();
    let mut col_pos = vec![usize::MAX; dp];
    for (a, &cq) in union_cols.iter().enumerate() {
        col_pos[cq] = a;
    }
    let groups = cfg.layout.p_b * cfg.layout.p_lambda;
    let my_group = comms.b_group * cfg.layout.p_lambda + comms.l_group;
    let mut est_sum = vec![0.0; total_coef];
    let mut pred: Vec<f64> = Vec::new();
    for k in 0..base.b2 {
        if k % groups != my_group {
            continue;
        }
        if plan.is_some_and(|pl| pl.estimation_failed(k)) {
            continue;
        }
        let mut rng = substream(base.seed, 20_000 + k as u64);
        let (train_rows, eval_rows) = block_bootstrap_with_oob(&mut rng, n, block_len);
        let train = pull_regression(
            ctx,
            &win,
            &train_rows,
            n,
            readers,
            p,
            dp,
            stagger,
            &mut kron,
        );
        let eval = pull_regression(ctx, &win, &eval_rows, n, readers, p, dp, stagger, &mut kron);
        let n_train = train.samples();
        // Upper-stored union-Gram (the sub-Gram OLS below reads canonical
        // coordinates) plus all owned rhs vectors in one pass over the
        // projected training block.
        let sp_gram = ctx.span_enter("gram_build.union");
        let xu_t = train.x.gather_cols(&union_cols);
        let gram_u = syrk_t_upper(&xu_t).into_upper();
        ctx.compute_membound((n_train * u_len * 8) as f64);
        ctx.compute_flops(
            (n_train * u_len * u_len) as f64,
            uoi_linalg::gram::gram_kernel_ws(u_len),
        );
        let ones = vec![1.0; n_train];
        let yts: Vec<Vec<f64>> = my_cols.clone().map(|i| train.y.col(i)).collect();
        let ytrefs: Vec<&[f64]> = yts.iter().map(|v| v.as_slice()).collect();
        let xty_u = gemv_t_weighted_multi(&xu_t, &ones, &ytrefs);
        ctx.compute_membound((n_train * u_len * 8) as f64);
        ctx.compute_flops(
            (2 * n_train * u_len * ytrefs.len()) as f64,
            (ytrefs.len() * u_len * 8) as f64,
        );
        ctx.span_exit(sp_gram);
        let xe_u = eval.x.gather_cols(&union_cols);

        let mut best: Option<(f64, Vec<f64>)> = None;
        for support in &support_family {
            // Per-owned-column restricted OLS in Gram space.
            let mut beta_local = vec![0.0; total_coef];
            let mut local_sse = 0.0;
            let mut local_cnt = 0.0;
            for (slot, i) in my_cols.clone().enumerate() {
                let cols: Vec<usize> = support
                    .iter()
                    .filter(|&&s| s / dp == i)
                    .map(|&s| col_pos[s % dp])
                    .collect();
                let mut bu = vec![0.0; u_len];
                if !cols.is_empty() {
                    let sp_ols = ctx.span_enter("ols_estimation.col");
                    bu = ols_on_support_gram(&gram_u, &xty_u[slot], &cols, n_train);
                    ctx.compute_flops(
                        (cols.len() * cols.len()) as f64
                            + (cols.len() * cols.len() * cols.len()) as f64 / 3.0,
                        (cols.len() * cols.len() * 8) as f64,
                    );
                    ctx.span_exit(sp_ols);
                    for (a, &cq) in union_cols.iter().enumerate() {
                        beta_local[i * dp + cq] = bu[a];
                    }
                }
                let sp_score = ctx.span_enter("scoring.eval");
                let ye = eval.y.col(i);
                uoi_linalg::gemv_into(&xe_u, &bu, &mut pred);
                ctx.compute_flops(2.0 * (xe_u.rows() * u_len) as f64, 0.0);
                local_sse += pred
                    .iter()
                    .zip(&ye)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>();
                local_cnt += ye.len() as f64;
                ctx.span_exit(sp_score);
            }
            // Assemble the full estimate and the global loss in one
            // allreduce (disjoint ownership sums correctly).
            let sp_red = ctx.span_enter("scoring.reduce");
            let mut payload = beta_local;
            payload.push(local_sse);
            payload.push(local_cnt);
            comms.admm_comm.allreduce_sum(ctx, &mut payload);
            ctx.span_exit(sp_red);
            let cnt = payload.pop().unwrap();
            let sse = payload.pop().unwrap();
            let loss = sse / cnt.max(1.0);
            if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                best = Some((loss, payload));
            }
        }
        if comms.is_group_leader() {
            // The estimation step is direct per-column OLS — no iterative
            // solver — so the record reports zero iterations, converged.
            let (rank, t) = (ctx.world_rank(), ctx.clock());
            ctx.telemetry().record_with(|| TraceEvent::Convergence {
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
            });
            if let Some((_, beta)) = best {
                for (s, b) in est_sum.iter_mut().zip(&beta) {
                    *s += b;
                }
            }
        }
    }
    // Union reduce (eq. 4): average the winners across groups.
    world.allreduce_sum(ctx, &mut est_sum);
    ctx.span_exit(est_span);
    let vec_beta: Vec<f64> = est_sum.iter().map(|v| v / effective_b2 as f64).collect();

    let a_mats = partition_coefficients(&vec_beta, p, d);
    let mut mu = means.clone();
    for a in &a_mats {
        let shift = uoi_linalg::gemv(a, &means);
        for (m, s) in mu.iter_mut().zip(&shift) {
            *m -= s;
        }
    }

    let degradation = plan.map(|pl| crate::degraded::DegradationReport {
        b1_planned: base.b1,
        b1_effective: effective_b1,
        b2_planned: base.b2,
        b2_effective: effective_b2,
        failed_selection: (0..base.b1).filter(|&k| pl.selection_failed(k)).collect(),
        failed_estimation: (0..base.b2).filter(|&k| pl.estimation_failed(k)).collect(),
        quorum_votes: needed as usize,
        min_quorum_frac: base.degradation.min_quorum_frac,
    });
    (
        UoiVarFit {
            a_mats,
            mu,
            vec_beta,
            lambdas,
            supports_per_lambda,
            support_family,
            degradation,
            recovery: None,
            speculation: None,
            numerical: base.numerical.active().then(|| num_ledger.drain_report()),
        },
        kron,
    )
}

/// Pull the listed regression rows from the reader windows, assembling
/// the local copy of `(Y_boot | X_boot)` — the distributed Kronecker
/// product / vectorisation data movement. Every pulled row is one
/// one-sided `get` against its owning reader.
#[allow(clippy::too_many_arguments)]
fn pull_regression(
    ctx: &mut RankCtx,
    win: &Window,
    rows: &[usize],
    n: usize,
    readers: usize,
    p: usize,
    dp: usize,
    stagger: usize,
    kron: &mut KronStats,
) -> VarRegression {
    let width = p + dp;
    let sp = ctx.span_enter("shuffle_t2.pull");
    let t0 = ctx.ledger().get(Phase::Distribution);
    let mut y = Matrix::zeros(rows.len(), p);
    let mut x = Matrix::zeros(rows.len(), dp);
    let mut buf: Vec<f64> = Vec::new();
    // Non-blocking epoch (MPI_Get + fence): all pulls are in flight
    // together; staggered start positions spread the first requests over
    // the reader windows. Successive destinations (no wrap) requesting
    // consecutive global rows from the same reader coalesce into one
    // block-granular get — block-bootstrap resamples are contiguous runs,
    // so the per-get latency drops from O(rows) to O(blocks).
    let m = rows.len();
    let mut epoch = win.epoch(ctx);
    let mut j = 0;
    while j < m {
        let dst = (j + stagger) % m;
        let row = rows[dst];
        let (owner, offset) = block_owner(n, readers, row);
        let mut len = 1;
        while j + len < m && (j + len + stagger) % m == dst + len {
            let r2 = rows[dst + len];
            if r2 != row + len {
                break;
            }
            let (o2, _) = block_owner(n, readers, r2);
            if o2 != owner {
                break;
            }
            len += 1;
        }
        buf.resize(len * width, 0.0);
        epoch.get_into(ctx, owner, offset * width..(offset + len) * width, &mut buf);
        for t in 0..len {
            let b = &buf[t * width..(t + 1) * width];
            y.row_mut(dst + t).copy_from_slice(&b[..p]);
            x.row_mut(dst + t).copy_from_slice(&b[p..]);
        }
        j += len;
    }
    epoch.finish(ctx);
    ctx.span_exit(sp);
    kron.rows_pulled += m;
    kron.kron_seconds += ctx.ledger().get(Phase::Distribution) - t0;
    VarRegression {
        y,
        x,
        order: dp / p,
    }
}

/// Lockstep distributed LASSO path over the vectorised problem: each rank
/// iterates per-column ADMM on its owned diagonal blocks; every round the
/// full `d p^2` estimate (owned blocks, zeros elsewhere) plus a
/// convergence counter is allreduced. Returns, per lambda, the full
/// vectorised estimate (identical on all ranks) and the `(rounds,
/// converged)` outcome of the lockstep loop — also identical on all
/// ranks, because both derive from the allreduced convergence counter.
#[allow(clippy::too_many_arguments)]
fn dist_lasso_path(
    ctx: &mut RankCtx,
    admm_comm: &Comm,
    reg: &VarRegression,
    w: &[f64],
    n_boot: usize,
    my_cols: &std::ops::Range<usize>,
    lambdas: &[f64],
    base: &crate::uoi_lasso::UoiLassoConfig,
) -> (Vec<Vec<f64>>, Vec<(usize, bool)>) {
    let p = reg.dim();
    let dp = reg.x.cols();
    let total = dp * p;
    let n = n_boot;

    // Zero-copy resample: the weighted Gram / rhs over the shared
    // regression equal X_b^T X_b and X_b^T y_b of the pulled block
    // exactly, without cloning the design into the solver. Upper-stored:
    // the solver factors from the upper triangle, skipping the mirror.
    // Charged as one streaming read of the regression block plus
    // cache-resident tiled Gram flops and a blocked Cholesky — the
    // batched kernel's cost model.
    let sp_gram = ctx.span_enter("gram_build.weighted");
    let gram = syrk_t_weighted_upper(&reg.x, w).into_upper();
    let mut solver = LassoAdmm::from_gram(gram, base.admm.clone());
    // Per-column convergence lands in the shared registry via `step`;
    // columns are disjointly owned, so counts are not duplicated.
    if let Some(m) = ctx.telemetry().metrics() {
        solver = solver.with_metrics(m);
    }
    let dim = n.min(dp);
    ctx.compute_membound((n * dp * 8) as f64);
    ctx.compute_flops((n * dp * dim) as f64, uoi_linalg::gram::gram_kernel_ws(dp));
    ctx.compute_flops(
        (dim * dim * dim) as f64 / 3.0,
        uoi_linalg::gram::gram_kernel_ws(dim),
    );
    // All owned rhs vectors in ONE pass over the shared regression block.
    let ys: Vec<Vec<f64>> = my_cols.clone().map(|i| reg.y.col(i)).collect();
    let yrefs: Vec<&[f64]> = ys.iter().map(|v| v.as_slice()).collect();
    let rhs = gemv_t_weighted_multi(&reg.x, w, &yrefs);
    ctx.compute_membound((n * dp * 8) as f64);
    ctx.compute_flops(
        (2 * n * dp * yrefs.len()) as f64,
        (yrefs.len() * dp * 8) as f64,
    );
    ctx.span_exit(sp_gram);

    let mut out = Vec::with_capacity(lambdas.len());
    let mut path_stats = Vec::with_capacity(lambdas.len());
    // One screened Sequential path per owned column, driven exactly as
    // the serial `solve_path_with_rhs` drives it — per-lambda transition,
    // then at most `max_iter` steps — so every column is bit-identical
    // to the serial fit's.
    let mut states: Vec<uoi_solvers::AdmmState> =
        my_cols.clone().map(|_| solver.init_state()).collect();
    // `admm`-tagged span: the profiler splits its charges into
    // admm_local (compute) vs admm_consensus (allreduce) by ledger.
    let sp_admm = ctx.span_enter("admm.path");
    for &lam in lambdas {
        for (st, xty) in states.iter_mut().zip(&rhs) {
            solver.begin_lambda(xty, lam, st);
        }
        charge_sub_factors(ctx, &mut states);
        let mut full = vec![0.0; total];
        let mut rounds = 0usize;
        let mut lam_converged = false;
        // Round payload reused across iterations: non-owned sections are
        // re-zeroed each round (they carry the previous allreduce sums).
        let mut payload = vec![0.0; total + 1];
        for _round in 0..base.admm.max_iter {
            rounds += 1;
            // One lockstep round over the owned columns, each a screened
            // step on its own active set. Each active column is charged
            // one iteration on its `|S|`-sized sub-factor, scaled by
            // `ceil(active / threads) / active` lockstep slots (exactly
            // one charge per active column with one thread); KKT
            // re-entries that refactor are charged their sub-factor.
            let active = states.iter().filter(|st| !st.converged).count();
            let mut unconverged = 0usize;
            if active > 0 {
                let slots = uoi_solvers::lockstep_round_charges(active, base.admm.threads);
                let scale = slots as f64 / active as f64;
                for st in states.iter().filter(|st| !st.converged) {
                    let m = st.active_len();
                    ctx.compute_flops(
                        admm_active_iter_flops(m) * scale,
                        ((m * m + 2 * m) * 8) as f64,
                    );
                }
                let mut tasks: Vec<uoi_solvers::StepTask<'_>> = states
                    .iter_mut()
                    .zip(rhs.iter())
                    .map(|(state, xty)| uoi_solvers::StepTask {
                        xty,
                        lambda: lam,
                        state,
                    })
                    .collect();
                solver.step_many(&mut tasks);
                charge_sub_factors(ctx, &mut states);
                unconverged = states.iter().filter(|st| !st.converged).count();
            }
            // Allreduce the full estimate + convergence counter — the
            // paper's per-iteration "communicate the estimates" call.
            payload.fill(0.0);
            for (slot, i) in my_cols.clone().enumerate() {
                payload[i * dp..(i + 1) * dp].copy_from_slice(&states[slot].z);
            }
            payload[total] = unconverged as f64;
            admm_comm.allreduce_sum(ctx, &mut payload);
            let all_unconverged = payload[total];
            full.copy_from_slice(&payload[..total]);
            if all_unconverged == 0.0 {
                lam_converged = true;
                break;
            }
        }
        out.push(full);
        path_stats.push((rounds, lam_converged));
    }
    ctx.span_exit(sp_admm);
    (out, path_stats)
}

/// Charge the active-set factorisations the columns performed since the
/// last charge (per-lambda transitions and KKT re-entries), each against
/// its `|S| x |S|` working set.
fn charge_sub_factors(ctx: &mut RankCtx, states: &mut [uoi_solvers::AdmmState]) {
    for st in states {
        let flops = st.take_factor_flops();
        if flops > 0.0 {
            let m = st.active_len();
            ctx.compute_flops(flops, (m * m * 8) as f64);
        }
    }
}

#[cfg(test)]
// Exercises the deprecated free-function fit surface on purpose: these
// tests pin its behaviour for as long as the wrappers exist.
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::uoi_lasso::UoiLassoConfig;
    use crate::uoi_var::fit_uoi_var;
    use uoi_data::{VarConfig, VarProcess};
    use uoi_mpisim::{Cluster, MachineModel};
    use uoi_solvers::AdmmConfig;

    fn cfg() -> UoiVarDistConfig {
        UoiVarDistConfig {
            var: UoiVarConfig {
                order: 1,
                block_len: None,
                base: UoiLassoConfig {
                    b1: 4,
                    b2: 4,
                    q: 8,
                    lambda_min_ratio: 2e-2,
                    admm: AdmmConfig {
                        max_iter: 2000,
                        abstol: 1e-9,
                        reltol: 1e-8,
                        ..Default::default()
                    },
                    support_tol: 1e-6,
                    seed: 17,
                    ..Default::default()
                },
            },
            n_readers: 2,
            layout: ParallelLayout::admm_only(),
        }
    }

    fn series() -> Matrix {
        let proc = VarProcess::generate(&VarConfig {
            p: 8,
            order: 1,
            density: 0.12,
            target_radius: 0.6,
            noise_std: 1.0,
            seed: 23,
        });
        proc.simulate(400, 50, 4)
    }

    #[test]
    fn distributed_matches_serial() {
        let s = series();
        let serial_cfg = cfg().var;
        let serial = fit_uoi_var(&s, &serial_cfg);
        let s2 = s;
        let report = Cluster::new(4, MachineModel::deterministic())
            .run(move |ctx, world| fit_uoi_var_dist(ctx, world, &s2, &cfg()).0);
        let dist = &report.results[0];
        assert_eq!(
            dist.supports_per_lambda, serial.supports_per_lambda,
            "selection must agree with the serial column-decomposed path"
        );
        for (a, b) in dist.vec_beta.iter().zip(&serial.vec_beta) {
            assert!((a - b).abs() < 5e-3, "dist {a} vs serial {b}");
        }
    }

    #[test]
    fn all_ranks_identical_and_kron_time_recorded() {
        let s = series();
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, world| {
            let (fit, kron) = fit_uoi_var_dist(ctx, world, &s, &cfg());
            (fit.vec_beta, kron.kron_seconds, kron.rows_pulled)
        });
        for r in 1..4 {
            assert_eq!(report.results[0].0, report.results[r].0);
        }
        for (_, ks, rp) in &report.results {
            assert!(*ks > 0.0, "Kronecker distribution time must be recorded");
            assert!(*rp > 0);
        }
    }

    #[test]
    fn pb_plambda_layout_matches_flat() {
        let s = series();
        let run = |layout: ParallelLayout| {
            let s = s.clone();
            Cluster::new(8, MachineModel::deterministic())
                .run(move |ctx, world| {
                    let mut c = cfg();
                    c.layout = layout;
                    fit_uoi_var_dist(ctx, world, &s, &c).0
                })
                .results
                .remove(0)
        };
        let flat = run(ParallelLayout::admm_only());
        let nested = run(ParallelLayout {
            p_b: 2,
            p_lambda: 2,
        });
        assert_eq!(flat.supports_per_lambda, nested.supports_per_lambda);
        for (a, b) in flat.vec_beta.iter().zip(&nested.vec_beta) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    /// The lockstep path and the serial per-column screened path drive the
    /// same per-lambda transition, so every column's selection solution is
    /// bit-identical to the serial one, whichever way the columns split
    /// across ranks.
    #[test]
    fn lockstep_path_bit_identical_to_serial_columns() {
        let reg = VarRegression::build(&series(), 1);
        let (n, p, dp) = (reg.samples(), reg.dim(), reg.x.cols());
        let w: Vec<f64> = (0..n).map(|i| ((i * 7) % 3) as f64).collect();
        let base = cfg().var.base;
        let ys: Vec<Vec<f64>> = (0..p).map(|i| reg.y.col(i)).collect();
        let yrefs: Vec<&[f64]> = ys.iter().map(|v| v.as_slice()).collect();
        let xtys = gemv_t_weighted_multi(&reg.x, &w, &yrefs);
        let lmax = xtys.iter().flatten().fold(0.0_f64, |m, v| m.max(v.abs()));
        let lambdas = geometric_grid(lmax, 1e-2 * lmax, 8);
        let solver = LassoAdmm::from_gram(
            syrk_t_weighted_upper(&reg.x, &w).into_upper(),
            base.admm.clone(),
        );
        let serial: Vec<Vec<uoi_solvers::AdmmSolution>> = xtys
            .iter()
            .map(|xty| solver.solve_path_with_rhs(xty, &lambdas))
            .collect();
        for ranks in [1, 3] {
            let (reg, w) = (reg.clone(), w.clone());
            let (lambdas, base) = (lambdas.clone(), base.clone());
            let cluster = Cluster::new(ranks, MachineModel::deterministic());
            let report = cluster.run(move |ctx, world| {
                let cols = block_range(p, ranks, world.rank());
                dist_lasso_path(ctx, world, &reg, &w, n, &cols, &lambdas, &base).0
            });
            for (j, full) in report.results[0].iter().enumerate() {
                for (i, path) in serial.iter().enumerate() {
                    for (a, b) in full[i * dp..(i + 1) * dp].iter().zip(&path[j].beta) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{ranks} ranks, lambda {j}, column {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fewer_readers_increase_distribution_time() {
        let s = series();
        let run = |readers: usize| {
            let s = s.clone();
            Cluster::new(8, MachineModel::deterministic())
                .modeled_ranks(8 * 256)
                .run(move |ctx, world| {
                    let mut c = cfg();
                    c.n_readers = readers;
                    let (_, kron) = fit_uoi_var_dist(ctx, world, &s, &c);
                    kron.kron_seconds
                })
                .results
                .iter()
                .copied()
                .fold(0.0, f64::max)
        };
        let few = run(1);
        let many = run(8);
        assert!(
            few > 2.0 * many,
            "1 reader ({few:.3}s) must be slower than 8 readers ({many:.3}s)"
        );
    }
}

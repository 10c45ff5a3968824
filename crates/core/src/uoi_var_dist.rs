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

use crate::engine::dist::{DistProblem, Emit};
use crate::engine::{family_union, solve_candidate, FitParts};
use crate::fitter::DistOptions;
use crate::numerical::NumericalLedger;
use crate::parallelism::LayoutComms;
use crate::uoi_var::{block_bootstrap_with_oob, UoiVarFit, VarInput};
use crate::var_matrices::VarRegression;
use std::ops::Range;
use uoi_data::bootstrap::{block_bootstrap, resample_weights};
use uoi_data::rng::substream;
use uoi_linalg::{gemv_t_weighted_multi, syrk_t_upper, syrk_t_weighted_upper, Matrix};
use uoi_mpisim::{Comm, Phase, RankCtx, Window};
use uoi_solvers::{admm_active_iter_flops, AdmmConfig, AdmmSolution, LassoAdmm};
use uoi_telemetry::Telemetry;
use uoi_tieredio::distribution::{block_owner, block_range};

/// Timing summary of the distributed-Kronecker stages (for the Fig 7–10
/// harnesses).
#[derive(Debug, Clone, Copy, Default)]
pub struct KronStats {
    /// Virtual seconds in distributed Kronecker/vectorisation pulls.
    pub kron_seconds: f64,
    /// Number of one-sided row pulls issued by this rank.
    pub rows_pulled: usize,
}

/// One rank's share of a distributed `UoI_VAR` fit: the reader windows
/// over the lag regression, the rank's band of response columns, and the
/// shared λ grid.
pub(crate) struct VarDist<'a> {
    /// The centred lag regression and λ grid, built once per fit and
    /// shared by every rank.
    input: &'a VarInput<'a>,
    /// The readers' `(Y | X)` row blocks.
    win: Window,
    readers: usize,
    /// Stagger offset: spreads concurrent pulls across reader windows.
    stagger: usize,
    /// This rank's contiguous band of response columns within its group.
    cols: Range<usize>,
    kron: KronStats,
    /// The validation findings, and a guarded fit's estimation jitter on
    /// this rank's own response columns (the lockstep selection path has
    /// no solver-level guards, DESIGN.md §7): the trace carries each
    /// event once, and each rank's report covers its own column band.
    ledger: NumericalLedger,
    /// Prediction scratch of the estimation score.
    pred: Vec<f64>,
}

impl<'a> DistProblem<'a> for VarDist<'a> {
    type Input = VarInput<'a>;
    type Fit = UoiVarFit;
    type Stats = KronStats;
    const SPANS: [&'static str; 2] = ["uoi_var.selection", "uoi_var.estimation"];

    fn setup(
        ctx: &mut RankCtx,
        world: &Comm,
        opts: &DistOptions,
        input: &'a VarInput<'a>,
    ) -> (Self, LayoutComms) {
        let (n_raw, p) = input.series.shape();
        // Only world rank 0 forwards the findings, so run traces carry
        // each issue once.
        let ledger = NumericalLedger::default();
        if let Some(outcome) = &input.outcome {
            let tel = if world.rank() == 0 {
                ctx.telemetry().clone()
            } else {
                Telemetry::disabled()
            };
            ledger.note_validation(&tel, outcome);
        }
        let reg = &input.reg;
        // Centring: identical everywhere, one membound sweep.
        ctx.compute_membound((n_raw * p * 8) as f64);

        // Readers build their row block of the (Y | X) lag regression and
        // expose it; other ranks expose nothing.
        let n = reg.samples();
        let width = p + reg.x.cols(); // (Y | X) row width in the window
        let readers = opts.n_readers.clamp(1, world.size());
        let my_reader_block = if world.rank() < readers {
            let r = block_range(n, readers, world.rank());
            let mut block = Matrix::zeros(r.len(), width);
            for (dst, src) in r.clone().enumerate() {
                block.row_mut(dst)[..p].copy_from_slice(reg.y.row(src));
                block.row_mut(dst)[p..].copy_from_slice(reg.x.row(src));
            }
            ctx.compute_membound((r.len() * width * 8) as f64);
            block.into_vec()
        } else {
            Vec::new()
        };
        let win = Window::create(ctx, world, my_reader_block);
        win.fence(ctx, world);
        let stagger = world.rank() * n.div_ceil(world.size());

        // Column ownership is a contiguous band of response columns per
        // ADMM rank *within a group*.
        let comms = opts.layout.split(ctx, world);
        let cols = block_range(p, comms.admm_comm.size(), comms.admm_comm.rank());

        // The λ grid: identical everywhere, from the full regression.
        let dp = reg.x.cols();
        ctx.compute_flops(2.0 * (n * dp * p) as f64, (n * dp * 8) as f64);
        let prob = Self {
            input,
            win,
            readers,
            stagger,
            cols,
            kron: KronStats::default(),
            ledger,
            pred: Vec::new(),
        };
        (prob, comms)
    }

    fn lambdas(&self) -> &[f64] {
        &self.input.lambdas
    }

    fn coef_len(&self) -> usize {
        self.input.reg.x.cols() * self.input.reg.dim()
    }

    fn ledger(&self) -> &NumericalLedger {
        &self.ledger
    }

    /// Distributed Kronecker + vectorisation: each bootstrap pulls its
    /// resampled rows through the reader windows (Algorithm 2 line 5),
    /// then runs the lockstep path. The pulled block is the physical
    /// resample copy; the solve itself uses the equivalent weighted-Gram
    /// form (row multiplicities over the shared regression), keeping the
    /// arithmetic bit-identical to the serial zero-copy path.
    fn select(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        boots: &[usize],
        lambda_ids: &[usize],
        emit: &mut Emit<Vec<AdmmSolution>>,
    ) {
        let n = self.input.reg.samples();
        let lambdas: Vec<f64> = lambda_ids.iter().map(|&j| self.input.lambdas[j]).collect();
        for &k in boots {
            let mut rng = substream(self.input.cfg.base.seed, k as u64);
            let rows = block_bootstrap(&mut rng, n, n, self.input.block_len);
            self.pull(ctx, &rows);
            let w = resample_weights(&rows, n);
            let admm = &self.input.cfg.base.admm;
            let path = dist_lasso_path(ctx, comm, &self.input.reg, &w, &self.cols, &lambdas, admm);
            emit(ctx, k, path);
        }
    }

    /// The family only references the union of its lag columns, so each
    /// resample builds one union Gram from its pulled training block and
    /// every candidate's owned-column OLS is a sub-Gram extraction; the
    /// full estimate and the global held-out loss take one allreduce per
    /// candidate.
    fn estimate(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        family: &[Vec<usize>],
        ks: &[usize],
        emit: &mut Emit<Option<Vec<f64>>>,
    ) {
        let (n, dp) = (self.input.reg.samples(), self.input.reg.x.cols());
        let tel = ctx.telemetry().clone();
        let guarded = self.input.cfg.base.numerical.enabled;
        let (union, pos) = family_union(family, dp);
        let (total, u_len) = (self.coef_len(), union.len());
        for &k in ks {
            let mut rng = substream(self.input.cfg.base.seed, 20_000 + k as u64);
            let (train_rows, eval_rows) =
                block_bootstrap_with_oob(&mut rng, n, self.input.block_len);
            let train = self.pull(ctx, &train_rows);
            let eval = self.pull(ctx, &eval_rows);
            let n_train = train.samples();
            // Upper-stored union-Gram (the sub-Gram OLS below reads canonical
            // coordinates) plus all owned rhs vectors in one pass over the
            // projected training block.
            let sp_gram = ctx.span_enter("gram_build.union");
            let xu_t = train.x.gather_cols(&union);
            let gram_u = syrk_t_upper(&xu_t).into_upper();
            ctx.compute_membound((n_train * u_len * 8) as f64);
            ctx.compute_flops(
                (n_train * u_len * u_len) as f64,
                uoi_linalg::gram::gram_kernel_ws(u_len),
            );
            let ones = vec![1.0; n_train];
            let yts: Vec<Vec<f64>> = self.cols.clone().map(|i| train.y.col(i)).collect();
            let ytrefs: Vec<&[f64]> = yts.iter().map(|v| v.as_slice()).collect();
            let xty_u = gemv_t_weighted_multi(&xu_t, &ones, &ytrefs);
            ctx.compute_membound((n_train * u_len * 8) as f64);
            ctx.compute_flops(
                (2 * n_train * u_len * ytrefs.len()) as f64,
                (ytrefs.len() * u_len * 8) as f64,
            );
            ctx.span_exit(sp_gram);
            let xe_u = eval.x.gather_cols(&union);

            let mut best: Option<(f64, Vec<f64>)> = None;
            for (c, support) in family.iter().enumerate() {
                // Per-owned-column restricted OLS in Gram space.
                let mut beta_local = vec![0.0; total];
                let mut local_sse = 0.0;
                let mut local_cnt = 0.0;
                for (slot, i) in self.cols.clone().enumerate() {
                    let cols: Vec<usize> = support
                        .iter()
                        .filter(|&&s| s / dp == i)
                        .map(|&s| pos[s % dp])
                        .collect();
                    let mut bu = vec![0.0; u_len];
                    if !cols.is_empty() {
                        let sp_ols = ctx.span_enter("ols_estimation.col");
                        let guard = guarded.then_some((&self.ledger, &tel));
                        bu = solve_candidate(&gram_u, &xty_u[slot], &cols, n_train, guard, (k, c));
                        ctx.compute_flops(
                            (cols.len() * cols.len()) as f64
                                + (cols.len() * cols.len() * cols.len()) as f64 / 3.0,
                            (cols.len() * cols.len() * 8) as f64,
                        );
                        ctx.span_exit(sp_ols);
                        for (a, &c) in union.iter().enumerate() {
                            beta_local[i * dp + c] = bu[a];
                        }
                    }
                    let sp_score = ctx.span_enter("scoring.eval");
                    let ye = eval.y.col(i);
                    uoi_linalg::gemv_into(&xe_u, &bu, &mut self.pred);
                    ctx.compute_flops(2.0 * (xe_u.rows() * u_len) as f64, 0.0);
                    local_sse += self
                        .pred
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
                comm.allreduce_sum(ctx, &mut payload);
                ctx.span_exit(sp_red);
                let cnt = payload.pop().unwrap();
                let sse = payload.pop().unwrap();
                let loss = sse / cnt.max(1.0);
                if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                    best = Some((loss, payload));
                }
            }
            emit(ctx, k, best.map(|(_, beta)| beta));
        }
    }

    fn assemble(self, vec_beta: Vec<f64>, parts: FitParts) -> (UoiVarFit, KronStats) {
        (self.input.fit(vec_beta, parts), self.kron)
    }
}

impl VarDist<'_> {
    /// Pull the listed regression rows from the reader windows,
    /// assembling the local copy of `(Y_boot | X_boot)` — the distributed
    /// Kronecker product / vectorisation data movement. Every pulled row
    /// is one one-sided `get` against its owning reader.
    fn pull(&mut self, ctx: &mut RankCtx, rows: &[usize]) -> VarRegression {
        let (n, p, dp) = (
            self.input.reg.samples(),
            self.input.reg.dim(),
            self.input.reg.x.cols(),
        );
        let width = p + dp;
        let sp = ctx.span_enter("shuffle_t2.pull");
        let t0 = ctx.ledger().get(Phase::Distribution);
        let mut y = Matrix::zeros(rows.len(), p);
        let mut x = Matrix::zeros(rows.len(), dp);
        let mut buf: Vec<f64> = Vec::new();
        // Non-blocking epoch (MPI_Get + fence): all pulls are in flight
        // together; staggered start positions spread the first requests
        // over the reader windows. Successive destinations (no wrap)
        // requesting consecutive global rows from the same reader
        // coalesce into one block-granular get — block-bootstrap
        // resamples are contiguous runs, so the per-get latency drops
        // from O(rows) to O(blocks).
        let m = rows.len();
        let mut epoch = self.win.epoch(ctx);
        let mut j = 0;
        while j < m {
            let dst = (j + self.stagger) % m;
            let row = rows[dst];
            let (owner, offset) = block_owner(n, self.readers, row);
            let mut len = 1;
            while j + len < m && (j + len + self.stagger) % m == dst + len {
                let r2 = rows[dst + len];
                if r2 != row + len {
                    break;
                }
                let (o2, _) = block_owner(n, self.readers, r2);
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
        self.kron.rows_pulled += m;
        self.kron.kron_seconds += ctx.ledger().get(Phase::Distribution) - t0;
        VarRegression {
            y,
            x,
            order: dp / p,
        }
    }
}

/// Lockstep distributed LASSO path over the vectorised problem: each rank
/// iterates per-column ADMM on its owned diagonal blocks (response
/// columns `cols` of `reg`, reweighted by the resample's row
/// multiplicities `w`); every round the full `d p^2` estimate (owned
/// blocks, zeros elsewhere) plus a convergence counter is allreduced.
/// Returns, per lambda, the full vectorised estimate (identical on all
/// ranks) with the lockstep loop's round count and convergence — also
/// identical on all ranks, because both derive from the allreduced
/// convergence counter. The lockstep loop keeps no residuals.
fn dist_lasso_path(
    ctx: &mut RankCtx,
    admm_comm: &Comm,
    reg: &VarRegression,
    w: &[f64],
    cols: &Range<usize>,
    lambdas: &[f64],
    admm: &AdmmConfig,
) -> Vec<AdmmSolution> {
    let p = reg.dim();
    let dp = reg.x.cols();
    let total = dp * p;
    // The resample's row count.
    let n = w.iter().sum::<f64>() as usize;

    // Zero-copy resample: the weighted Gram / rhs over the shared
    // regression equal X_b^T X_b and X_b^T y_b of the pulled block
    // exactly, without cloning the design into the solver. Upper-stored:
    // the solver factors from the upper triangle, skipping the mirror.
    // Charged as one streaming read of the regression block plus
    // cache-resident tiled Gram flops and a blocked Cholesky — the
    // batched kernel's cost model.
    let sp_gram = ctx.span_enter("gram_build.weighted");
    let gram = syrk_t_weighted_upper(&reg.x, w).into_upper();
    let mut solver = LassoAdmm::from_gram(gram, admm.clone());
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
    let ys: Vec<Vec<f64>> = cols.clone().map(|i| reg.y.col(i)).collect();
    let yrefs: Vec<&[f64]> = ys.iter().map(|v| v.as_slice()).collect();
    let rhs = gemv_t_weighted_multi(&reg.x, w, &yrefs);
    ctx.compute_membound((n * dp * 8) as f64);
    ctx.compute_flops(
        (2 * n * dp * yrefs.len()) as f64,
        (yrefs.len() * dp * 8) as f64,
    );
    ctx.span_exit(sp_gram);

    let mut out = Vec::with_capacity(lambdas.len());
    // One screened Sequential path per owned column, driven exactly as
    // the serial `solve_path_with_rhs` drives it — per-lambda transition,
    // then at most `max_iter` steps — so every column is bit-identical
    // to the serial fit's.
    let mut states: Vec<uoi_solvers::AdmmState> =
        cols.clone().map(|_| solver.init_state()).collect();
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
        for _round in 0..admm.max_iter {
            rounds += 1;
            // One lockstep round over the owned columns, each a screened
            // step on its own active set. Each active column is charged
            // one iteration on its `|S|`-sized sub-factor, scaled by
            // `ceil(active / threads) / active` lockstep slots (exactly
            // one charge per active column with one thread); KKT
            // re-entries that refactor are charged their sub-factor, and
            // polish attempts their reduced factor and gradient.
            let active = states.iter().filter(|st| !st.converged).count();
            let mut unconverged = 0usize;
            if active > 0 {
                let slots = uoi_solvers::lockstep_round_charges(active, admm.threads);
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
            for (slot, i) in cols.clone().enumerate() {
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
        out.push(AdmmSolution {
            beta: full,
            iterations: rounds,
            primal_residual: 0.0,
            dual_residual: 0.0,
            converged: lam_converged,
            curve: Vec::new(),
        });
    }
    ctx.span_exit(sp_admm);
    out
}

/// Charge the active-set factorisations and polish attempts the columns
/// performed since the last charge (per-lambda transitions, KKT
/// re-entries, and each polish's `|A|^3 / 3` factor plus its `2 p |A|`
/// KKT gradient), each against its `|S| x |S|` working set.
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
mod tests {
    use super::*;
    use crate::fitter::{ExecMode, UoiVarFitter};
    use crate::parallelism::ParallelLayout;
    use crate::uoi_lasso::UoiLassoConfig;
    use crate::uoi_var::UoiVarConfig;
    use uoi_data::{VarConfig, VarProcess};
    use uoi_mpisim::{Cluster, MachineModel};
    use uoi_solvers::geometric_grid;

    /// A distributed fit's statistical configuration and cluster shape.
    struct Setup {
        var: UoiVarConfig,
        opts: DistOptions,
    }

    fn fit_uoi_var_dist(
        ctx: &mut RankCtx,
        world: &Comm,
        series: &Matrix,
        cfg: &Setup,
    ) -> (UoiVarFit, KronStats) {
        UoiVarFitter::new(cfg.var.clone())
            .mode(ExecMode::Dist(cfg.opts.clone()))
            .fit_on(ctx, world, series)
    }

    fn cfg() -> Setup {
        Setup {
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
            opts: DistOptions::default()
                .n_readers(2)
                .layout(ParallelLayout::admm_only()),
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
        let serial = UoiVarFitter::new(serial_cfg).fit(&s).unwrap();
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
                    c.opts.layout = layout;
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
                dist_lasso_path(ctx, world, &reg, &w, &cols, &lambdas, &base.admm)
            });
            for (j, full) in report.results[0].iter().enumerate() {
                for (i, path) in serial.iter().enumerate() {
                    for (a, b) in full.beta[i * dp..(i + 1) * dp].iter().zip(&path[j].beta) {
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
                    c.opts.n_readers = readers;
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

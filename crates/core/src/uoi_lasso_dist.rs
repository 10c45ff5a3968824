//! Distributed `UoI_LASSO` (paper Algorithm 1 + §III): the Map, Solve
//! and estimation score of the engine's distributed executor
//! ([`crate::engine::dist`], which owns the Reduce).
//!
//! * **Map** — each ADMM rank keeps a resident Tier-1 row block and owns a
//!   block-striped share of every bootstrap resample. Per stage, the
//!   distinct rows of all its shares arrive by ONE Tier-2 one-sided
//!   shuffle ([`uoi_tieredio::tier2_shuffle`], Fig 1a/1c), and one
//!   batched weighted-Gram pass ([`uoi_linalg::gram_rhs_batch`], the
//!   serial fit's kernel) builds every share's local Gram and rhs.
//! * **Solve** — consensus LASSO-ADMM across the ADMM communicator
//!   ([`uoi_solvers::DistLassoAdmm`], built from the local Gram), with
//!   guarded breakdown agreement and rho restarts.
//! * **Estimation score** — one allreduce per resample sums the ranks'
//!   union Grams; every rank then solves each candidate exactly on its
//!   sub-Gram, as the serial fit does (this departs from the paper's
//!   OLS as consensus ADMM at `lambda = 0`), and scores it per
//!   `UoiLassoConfig::score` by a distributed held-out MSE or by BIC on
//!   the global system.
//!
//! With the [`ParallelLayout::admm_only`] layout all cores serve one
//! distributed solver, the configuration of the paper's multi-node
//! scaling runs.
//!
//! [`ParallelLayout::admm_only`]: crate::parallelism::ParallelLayout::admm_only

use crate::engine::dist::{DistProblem, Emit};
use crate::engine::{family_union, solve_candidate, FitParts};
use crate::fitter::DistOptions;
use crate::numerical::NumericalLedger;
use crate::parallelism::LayoutComms;
use crate::uoi_lasso::{
    bic_from_rss, bootstrap_with_oob, gram_rss, Centring, EstimationScore, LassoInput, UoiFit,
    UoiLassoConfig,
};
use uoi_data::bootstrap::row_bootstrap;
use uoi_data::rng::substream;
use uoi_linalg::{dot, weighted_sumsq, Matrix};
use uoi_mpisim::{Comm, RankCtx};
use uoi_solvers::{restart_tripped, AdmmConfig, AdmmSolution, DistLassoAdmm, FactorHealth};
use uoi_telemetry::Telemetry;
use uoi_tieredio::distribution::{block_range, tier2_shuffle};

/// One rank's share of a distributed `UoI_LASSO` fit: its resident
/// Tier-1 block of the centred data and the shared λ grid. Every rank
/// reads the one validated dataset of the fit but keeps only its block,
/// as after the Tier-1 parallel read; bootstrap rows move through
/// simulated one-sided windows.
pub(crate) struct LassoDist<'a> {
    cfg: &'a UoiLassoConfig,
    /// The solver settings, with residual-curve capture on when tracing
    /// (capture is symmetric across ranks: it never touches a
    /// collective).
    admm: AdmmConfig,
    n: usize,
    /// Resident rows plus the response column, `p + 1` wide, centred.
    resident: Matrix,
    centring: Centring,
    /// A rank-local ledger (never the shared config ledger — rank
    /// closures run concurrently and draining would race). Every guarded
    /// decision is taken from collective-agreed state, so all ranks
    /// record the same events and return identical health reports (per λ
    /// group; identical everywhere under `admm_only`).
    ledger: NumericalLedger,
    /// Only group leaders forward numerical events to the trace sink and
    /// counters, matching the convergence-record convention.
    num_tel: Telemetry,
}

impl<'a> DistProblem<'a> for LassoDist<'a> {
    type Input = LassoInput<'a>;
    type Fit = UoiFit;
    type Stats = ();
    const SPANS: [&'static str; 2] = ["uoi.selection", "uoi.estimation"];

    fn setup(
        ctx: &mut RankCtx,
        world: &Comm,
        opts: &DistOptions,
        input: &'a LassoInput<'a>,
    ) -> (Self, LayoutComms) {
        let LassoInput { cfg, x, y, outcome } = input;
        let (n, p) = x.shape();
        let comms = opts.layout.split(ctx, world);
        let comm = &comms.admm_comm;
        let ledger = NumericalLedger::default();
        let num_tel = if comms.is_group_leader() {
            ctx.telemetry().clone()
        } else {
            Telemetry::disabled()
        };
        // The fit validated the dataset once, so every rank's ledger
        // holds the same findings; only world rank 0 forwards them, so
        // run traces carry each issue once whatever the layout.
        if let Some(outcome) = outcome {
            let tel = if world.rank() == 0 {
                ctx.telemetry().clone()
            } else {
                Telemetry::disabled()
            };
            ledger.note_validation(&tel, outcome);
        }

        // Resident Tier-1 block — each rank materialises only its stripe
        // of the dataset, never the whole matrix.
        let my_range = block_range(n, comm.size(), comm.rank());
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
        comm.allreduce_sum(ctx, &mut sums);
        let count = sums.pop().unwrap_or(1.0).max(1.0);
        let means: Vec<f64> = sums.iter().map(|s| s / count).collect();
        resident.center_cols(&means);
        ctx.compute_membound((resident.len() * 8) as f64);

        // Shared lambda grid from the distributed `||X^T y||_inf`.
        let lambdas = {
            let cols: Vec<usize> = (0..p).collect();
            let xr = resident.gather_cols(&cols);
            let yr = resident.col(p);
            let mut xty = uoi_linalg::gemv_t(&xr, &yr);
            ctx.compute_flops(2.0 * (xr.rows() * p) as f64, (xr.len() * 8) as f64);
            comm.allreduce_sum(ctx, &mut xty);
            let lmax = uoi_linalg::norm_inf(&xty).max(1e-12);
            uoi_solvers::geometric_grid(lmax, cfg.lambda_min_ratio * lmax, cfg.q)
        };
        let mut admm = cfg.admm.clone();
        admm.capture_curve = ctx.telemetry().tracing_enabled();
        let prob = Self {
            cfg,
            admm,
            n,
            resident,
            centring: Centring {
                x_means: means[..p].to_vec(),
                y_mean: means[p],
                lambdas,
            },
            ledger,
            num_tel,
        };
        (prob, comms)
    }

    fn lambdas(&self) -> &[f64] {
        &self.centring.lambdas
    }

    fn coef_len(&self) -> usize {
        self.resident.cols() - 1
    }

    fn ledger(&self) -> &NumericalLedger {
        &self.ledger
    }

    /// Map: one pull of the rank's bootstrap shares, then one batched
    /// Gram pass ([`selection_map`]). A share is a multiset of pulled
    /// rows, so its local system is the multiplicity-weighted Gram — the
    /// serial fit's zero-copy contract, restricted to the rank's share.
    /// Solve: consensus LASSO-ADMM across the ADMM communicator.
    fn select(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        boots: &[usize],
        lambda_ids: &[usize],
        emit: &mut Emit<Vec<AdmmSolution>>,
    ) {
        let systems = selection_map(ctx, comm, &self.resident, self.n, self.cfg.seed, boots);
        for (&k, sys) in boots.iter().zip(&systems) {
            if let Some(path) = self.solve(ctx, comm, sys, k, lambda_ids) {
                emit(ctx, k, path);
            }
        }
    }

    /// The candidate family only references its column union, so the
    /// resident block is projected onto the union plus the response
    /// *before* the pull (rows travel u+1 wide, not p+1). One pull
    /// fetches the distinct train and eval rows of every resample the
    /// rank serves; one batched pass builds each resample's local union
    /// Gram from its train multiplicities. One allreduce per resample sums
    /// the union systems, and every rank solves every candidate exactly on
    /// the global sub-Gram, as the serial fit does. BIC reads the global
    /// system; the held-out MSE sums each rank's eval rows, scored in
    /// place, by one `[sse_1 … sse_F, m]` allreduce.
    fn estimate(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        family: &[Vec<usize>],
        ks: &[usize],
        emit: &mut Emit<Option<Vec<f64>>>,
    ) {
        let p = self.coef_len();
        let (union, union_pos) = family_union(family, p);
        // This rank's share of each resample's train and eval row lists.
        let (c, r) = (comm.size(), comm.rank());
        let splits: Vec<(Vec<usize>, Vec<usize>)> = ks
            .iter()
            .map(|&k| {
                let mut rng = substream(self.cfg.seed, 10_000 + k as u64);
                let (train_idx, eval_idx) = bootstrap_with_oob(&mut rng, self.n);
                (my_share(&train_idx, c, r), my_share(&eval_idx, c, r))
            })
            .collect();
        let pull = {
            let mut keep = union.clone();
            keep.push(p);
            let projected = self.resident.gather_cols(&keep);
            ctx.compute_membound((projected.len() * 8) as f64);
            let shares = splits
                .iter()
                .flat_map(|(t, e)| [t.as_slice(), e.as_slice()]);
            StagePull::new(ctx, comm, projected, self.n, shares)
        };
        let sp_gram = ctx.span_enter("gram_build.union");
        let weights: Vec<Vec<f64>> = splits.iter().map(|(t, _)| pull.weights(t)).collect();
        let systems = pull.gram_rhs(ctx, &weights);
        ctx.span_exit(sp_gram);
        let u = union.len();
        let guard = (self.cfg.numerical.enabled).then_some((&self.ledger, &self.num_tel));
        let runs = ks.iter().zip(&splits).zip(&weights).zip(systems);
        for (((&k, (train, eval)), w), (mut gram, xty_u)) in runs {
            // The union Gram's upper triangle, the rhs, Σ w y² and the
            // train count: u(u+1)/2 + u + 2 words.
            let sp = ctx.span_enter("ols_estimation.reduce");
            let mut sums: Vec<f64> = upper_mut(&mut gram).map(|g| *g).collect();
            sums.extend_from_slice(&xty_u);
            sums.extend([weighted_sumsq(w, &pull.y), train.len() as f64]);
            comm.allreduce_sum(ctx, &mut sums);
            ctx.span_exit(sp);
            upper_mut(&mut gram).zip(&sums).for_each(|(g, s)| *g = *s);
            let rest = &sums[u * (u + 1) / 2..];
            let (xty, ysq_w, n_train) = (&rest[..u], rest[u], rest[u + 1] as usize);

            let sp = ctx.span_enter("ols_estimation.solve");
            let betas: Vec<Vec<f64>> = (family.iter().enumerate())
                .map(|(i, support)| {
                    let cols: Vec<usize> = support.iter().map(|&f| union_pos[f]).collect();
                    let s = cols.len() as f64;
                    ctx.compute_flops(s * s + s * s * s / 3.0, s * s * 8.0);
                    solve_candidate(&gram, xty, &cols, n_train, guard, (k, i))
                })
                .collect();
            ctx.span_exit(sp);

            let sp = ctx.span_enter("scoring.eval");
            let losses: Vec<f64> = match self.cfg.score {
                EstimationScore::Mse => {
                    let rows: Vec<usize> = eval.iter().map(|&r| pull.pos[r]).collect();
                    let residual = |b: &[f64], e: usize| dot(pull.x.row(e), b) - pull.y[e];
                    let sse = |b: &Vec<f64>| rows.iter().map(|&e| residual(b, e).powi(2)).sum();
                    let mut sums: Vec<f64> =
                        betas.iter().map(sse).chain([rows.len() as f64]).collect();
                    let work = (rows.len() * u * betas.len()) as f64;
                    ctx.compute_flops(2.0 * work, 8.0 * work);
                    comm.allreduce_sum(ctx, &mut sums);
                    let m = sums.pop().unwrap_or(0.0).max(1.0);
                    sums.iter().map(|v| v / m).collect()
                }
                EstimationScore::Bic => (betas.iter().zip(family))
                    .map(|(b, support)| {
                        ctx.compute_flops((2 * u * u + 4 * u) as f64, (u * u * 8) as f64);
                        bic_from_rss(gram_rss(&gram, xty, ysq_w, b), n_train, support.len())
                    })
                    .collect(),
            };
            ctx.span_exit(sp);

            // The first strict minimum, as the serial fit picks it.
            let best = (0..losses.len()).reduce(|b, i| if losses[i] < losses[b] { i } else { b });
            let embed = |b: &[f64]| {
                let mut beta = vec![0.0; p];
                union.iter().zip(b).for_each(|(&f, &v)| beta[f] = v);
                beta
            };
            emit(ctx, k, best.map(|i| embed(&betas[i])));
        }
    }

    fn assemble(self, beta: Vec<f64>, parts: FitParts) -> (UoiFit, ()) {
        (self.centring.fit(beta, self.cfg.support_tol, parts), ())
    }
}

impl LassoDist<'_> {
    /// Bootstrap `k`'s consensus path over the λ indices `lambda_ids`;
    /// `None` when every rank agreed the factorisation broke down.
    fn solve(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        sys: &LocalSystem,
        k: usize,
        lambda_ids: &[usize],
    ) -> Option<Vec<AdmmSolution>> {
        let lambdas: Vec<f64> = lambda_ids
            .iter()
            .map(|&j| self.centring.lambdas[j])
            .collect();
        if !self.cfg.numerical.enabled {
            let solver = sys.solver(ctx, comm, self.admm.clone());
            return Some(solver.solve_path_with_rhs(ctx, comm, &sys.xty, &lambdas));
        }
        // Guarded construction. The solver's only collective (the
        // penalty allreduce) runs before any rank can fail, so all ranks
        // reach the agreement allreduce below regardless of who broke:
        // [breakdowns, jitter attempts, jitter] summed across the ADMM
        // communicator gives every rank the same verdict and the same
        // (deterministic) health numbers.
        let attempt = sys.try_solver(ctx, comm, self.admm.clone());
        let mut stats = match &attempt {
            Ok(s) => {
                let fh = s.factor_health();
                vec![0.0, fh.attempts as f64, fh.jitter]
            }
            Err(_) => vec![1.0, 0.0, 0.0],
        };
        comm.allreduce_sum(ctx, &mut stats);
        let exhausted = stats[0] > 0.0;
        if exhausted || stats[1] > 0.0 {
            let health = FactorHealth {
                attempts: if exhausted { u32::MAX } else { stats[1] as u32 },
                jitter: if exhausted { 0.0 } else { stats[2] },
            };
            self.ledger
                .note_factor(&self.num_tel, "selection", k, &health);
        }
        if exhausted {
            self.ledger
                .note_task_dropped(&self.num_tel, "selection", k, "factorization_exhausted");
            return None;
        }
        let solver = attempt
            .expect("no rank reported a factor breakdown")
            .divergence_cap(self.cfg.numerical.resilience.divergence_cap);
        let mut sols = solver.solve_path_with_rhs(ctx, comm, &sys.xty, &lambdas);
        self.recover_diverged(ctx, comm, sys, lambda_ids, &mut sols, k);
        Some(sols)
    }

    /// Bounded-rho recovery for the λs of a distributed selection path
    /// that tripped the divergence cap, on the shared ladder
    /// ([`restart_tripped`]).
    ///
    /// The tripwire reads consensus (allreduced) residuals on every
    /// iteration, so every rank trips on the same λs and walks the same
    /// restart rungs — control flow stays collectively aligned. Each rung
    /// rebuilds the armed consensus solver from the same local system at
    /// the rung's penalty and re-solves just the diverged lambda as a
    /// one-λ screened path. Its factorisation may break on some rank, so
    /// every rung first agrees on that with an allreduce, as construction does;
    /// a rung that broke anywhere is skipped everywhere. A lambda that
    /// exhausts the budget degrades to the zero iterate — it then
    /// contributes no selection votes — and is recorded as a dropped
    /// divergence.
    fn recover_diverged(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        sys: &LocalSystem,
        lambda_ids: &[usize],
        sols: &mut [AdmmSolution],
        k: usize,
    ) {
        let res = &self.cfg.numerical.resilience;
        let mut health = restart_tripped(res, self.admm.rho, sols, |i, rho| {
            let cfg = AdmmConfig {
                rho,
                ..self.admm.clone()
            };
            let attempt = sys.try_solver(ctx, comm, cfg);
            let mut broke = vec![if attempt.is_err() { 1.0 } else { 0.0 }];
            comm.allreduce_sum(ctx, &mut broke);
            if broke[0] > 0.0 {
                return None;
            }
            let solver = attempt
                .expect("no rank reported a factor breakdown")
                .divergence_cap(res.divergence_cap);
            let lambda = [self.centring.lambdas[lambda_ids[i]]];
            solver
                .solve_path_with_rhs(ctx, comm, &sys.xty, &lambda)
                .pop()
        });
        if health.recovered.is_empty() && health.diverged.is_empty() {
            return;
        }
        for idx in health.recovered.iter_mut().chain(&mut health.diverged) {
            *idx = lambda_ids[*idx];
        }
        self.ledger
            .note_path(&self.num_tel, "selection", k, &health);
    }
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
    /// Build the unguarded consensus solver (collective: penalty
    /// allreduce). A Gram-backed solver factors its full local system
    /// only if a screened path needs it; a breakdown panics.
    fn solver(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        admm: uoi_solvers::AdmmConfig,
    ) -> DistLassoAdmm {
        match &self.source {
            LocalSource::Gram(gram, n_rows) => {
                DistLassoAdmm::from_gram(ctx, comm, gram.clone(), *n_rows, admm)
            }
            LocalSource::Dense(x) => DistLassoAdmm::new(ctx, comm, x.clone(), admm),
        }
    }

    /// Build the guarded consensus solver, its full local system factored
    /// eagerly so the breakdown agreement can read its health. Also the
    /// rebuild path of the rho restarts, so the system is borrowed.
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

/// The upper triangle of a square matrix, row by row.
fn upper_mut(g: &mut Matrix) -> impl Iterator<Item = &mut f64> {
    let u = g.cols().max(1);
    (g.as_mut_slice().chunks_mut(u).enumerate()).flat_map(|(i, row)| &mut row[i..])
}

/// This rank's block-striped share of a resample index list (the global
/// row ids the rank must fetch).
fn my_share(idx: &[usize], c: usize, rank: usize) -> Vec<usize> {
    block_range(idx.len(), c, rank).map(|i| idx[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitter::{ExecMode, UoiFitter};
    use crate::metrics::SelectionCounts;
    use crate::parallelism::ParallelLayout;
    use uoi_data::LinearConfig;
    use uoi_mpisim::{Cluster, MachineModel, Phase};
    use uoi_solvers::AdmmConfig;
    use uoi_telemetry::TraceEvent;

    fn fit_uoi_lasso_dist(
        ctx: &mut RankCtx,
        world: &Comm,
        x: &Matrix,
        y: &[f64],
        layout: ParallelLayout,
    ) -> UoiFit {
        UoiFitter::new(cfg())
            .mode(ExecMode::Dist(DistOptions::default().layout(layout)))
            .fit_on(ctx, world, x, y)
    }

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
            fit_uoi_lasso_dist(ctx, world, &x, &y, ParallelLayout::admm_only())
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
        // Both fits solve each candidate exactly on the same sub-Gram.
        for (a, b) in dist.beta.iter().zip(&serial.beta) {
            assert!((a - b).abs() < 1e-9, "dist {a} vs serial {b}");
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
            let fit = fit_uoi_lasso_dist(ctx, world, &x, &y, ParallelLayout::admm_only());
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
                .run(move |ctx, world| fit_uoi_lasso_dist(ctx, world, &x, &y, layout))
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
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
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
            let fit = fit_uoi_lasso_dist(ctx, world, &x, &y, ParallelLayout::admm_only());
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
                fit_uoi_lasso_dist(ctx, world, &x, &y, ParallelLayout::admm_only())
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
            let _ = fit_uoi_lasso_dist(ctx, world, &x, &y, ParallelLayout::admm_only());
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

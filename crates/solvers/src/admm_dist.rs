//! Distributed consensus LASSO-ADMM over the simulated cluster — the
//! `ADMM_cores` solver of the paper (§II-C, §III-B1).
//!
//! The samples are split row-wise across the ranks of a communicator
//! (`N/B` rows each, the paper's row-wise block striping); each rank `i`
//! holds `(X_i, y_i)` and the global problem
//!
//! ```text
//! minimize sum_i 1/2 ||X_i b_i - y_i||^2 + lambda ||z||_1
//! subject to b_i = z
//! ```
//!
//! is solved by consensus ADMM (Boyd et al. §8.2):
//!
//! ```text
//! x_i <- (X_i^T X_i + rho I)^{-1} (X_i^T y_i + rho (z - u_i))   [local]
//! z   <- S_{lambda/(rho B)}( mean_i(x_i + u_i) )                [Allreduce]
//! u_i <- u_i + x_i - z                                          [local]
//! ```
//!
//! The `MPI_Allreduce` of the z-update is the communication the paper's
//! weak/strong-scaling figures are dominated by; every call here goes
//! through [`Comm::allreduce_sum`] and is therefore both really executed
//! and virtually timed. Setting `lambda = 0` yields distributed OLS, the
//! paper's model-estimation solver; the UoI fits instead estimate every
//! candidate exactly on an allreduced sub-Gram, and only the fig4/fig6
//! scaling proxy still runs this iterative OLS.
//!
//! λ paths are screened with the serial solver's per-λ
//! transition ([`LassoAdmm::begin_lambda`](crate::LassoAdmm::begin_lambda)):
//! each rank computes its local gradient `X_i^T y_i - G_i z` over the
//! support columns, one allreduce sums them into the global
//! `X^T y - G z`, and the sequential strong rule and the KKT re-entry run
//! on that sum — so every rank selects the same active set `S` and the
//! collectives stay aligned. Each rank factors its own `G_i,SS + rho I`;
//! the x/z/u iteration then runs on `|S|`-vectors, with one `|S|`-wide
//! consensus allreduce and one 3-scalar residual allreduce per step.
//! Each λ ends with the serial solver's polish
//! ([`LassoAdmm::step`](crate::LassoAdmm::step)): the consensus `z` is the
//! same on every rank, so every rank sees the same sign pattern, and one
//! allreduce of the local packed `G_i,AA` triangle and `c_i,A` gives
//! every rank the same reduced system; the KKT check reads the p-wide
//! gradient allreduce at the polished `β`. Every rank decides alike and
//! makes the same collectives. The proxy's OLS
//! ([`DistLassoAdmm::solve_ols`]) iterates on all `p` coefficients
//! against the full local factor. See DESIGN.md §3.
//!
//! The solver has no guarded path of its own: the distributed `UoI_LASSO`
//! fit checks the allreduced residuals of a path after the fact and runs
//! the shared ρ-restart ladder ([`crate::resilience::restart_tripped`]).

use crate::admm::{
    admm_active_iter_flops, admm_iter_flops, decimate_curve, effective_rho, factor_ridged,
    factor_ridged_pristine, try_factorize, AdmmConfig, AdmmSolution, AdmmState, DesignStore,
    Factorization, Polish, PolishSystem, CURVE_MAX_POINTS,
};
use crate::prox::soft_threshold_vec;
use crate::resilience::FactorHealth;
use std::sync::{Arc, OnceLock};
use uoi_linalg::{gemv_into, gemv_t, gemv_t_into, norm_inf, FactorBreakdown, Matrix};
use uoi_mpisim::{Comm, RankCtx};
use uoi_telemetry::MetricsRegistry;

/// A distributed LASSO/OLS solver bound to one rank's local data block.
/// The full x-update factorisation is cached across lambda values; a
/// solver built with [`DistLassoAdmm::from_gram`] factors it on first use.
pub struct DistLassoAdmm {
    /// The rank's block: its pristine upper Gram `X_i^T X_i` (plus the
    /// design when built from one, for the response entry points), or a
    /// wide block's design. Screened paths gather `G_i,SS` from it.
    design: DesignStore,
    /// Rows of the local block.
    n_rows: usize,
    /// Rows summed over the communicator: no support larger than this
    /// has a nonsingular `G_AA`, so a polish never gathers one.
    global_rows: usize,
    /// The full local factor of `X_i^T X_i + rho I` and how it went
    /// (jitter attempts consumed by the escalation ladder; 0 on the clean
    /// path). Screened paths read it only when `S` holds every feature.
    full: OnceLock<(Factorization, FactorHealth)>,
    cfg: AdmmConfig,
    /// Effective penalty shared by every rank: `cfg.rho` scaled by the
    /// mean diagonal of the *global* Gram (allreduced at construction),
    /// so all local factorisations split the consensus problem with one
    /// common, data-scaled `rho`.
    rho: f64,
    /// Inherited from the rank's telemetry handle at construction; solves
    /// record `admm_dist.*` metrics (communicator rank 0 only, so a
    /// collective solve counts once, not once per rank).
    metrics: Option<Arc<MetricsRegistry>>,
}

/// Buffers of the local x-update, reused across iterations and λs.
#[derive(Default)]
struct Local {
    rhs: Vec<f64>,
    x_i: Vec<f64>,
    /// Woodbury scratch: `X v` then the inner solve, and `X^T inner`.
    wn: Vec<f64>,
    wt: Vec<f64>,
}

impl Local {
    /// `rhs = xty + rho (z - u)` over all coefficients.
    fn build_rhs(&mut self, xty: &[f64], z: &[f64], u: &[f64], rho: f64) {
        self.rhs.clear();
        self.rhs.extend_from_slice(xty);
        for ((r, zi), ui) in self.rhs.iter_mut().zip(z).zip(u) {
            *r += rho * (zi - ui);
        }
    }
}

/// Buffers of the consensus half of an iteration, reused across
/// iterations and λs.
#[derive(Default)]
struct Consensus {
    payload: Vec<f64>,
    z_old: Vec<f64>,
    sums: Vec<f64>,
}

impl DistLassoAdmm {
    /// Allreduce the local Gram-diagonal sum and row count and derive
    /// the shared effective penalty — a 2-scalar collective, so every
    /// rank factors its block with the same data-scaled `rho` — and the
    /// global row count.
    fn global_rho(
        ctx: &mut RankCtx,
        comm: &Comm,
        local_diag_sum: f64,
        n_rows: usize,
        p: usize,
        cfg_rho: f64,
    ) -> (f64, usize) {
        let mut v = vec![local_diag_sum, n_rows as f64];
        comm.allreduce_sum(ctx, &mut v);
        (effective_rho(cfg_rho, v[0], p), v[1] as usize)
    }

    /// Factor the local system and charge the setup flops. Collective
    /// over `comm`: the effective penalty is `cfg.rho` times the mean
    /// diagonal of the global Gram, allreduced so all ranks agree.
    pub fn new(ctx: &mut RankCtx, comm: &Comm, x_local: Matrix, cfg: AdmmConfig) -> Self {
        Self::try_new(ctx, comm, x_local, cfg)
            .expect("local ADMM system must factor (is the design non-finite?)")
    }

    /// Fallible [`DistLassoAdmm::new`]: rank-deficient local blocks climb
    /// the deterministic jitter ladder instead of panicking (clean blocks
    /// take the plain factorisation and stay bit-identical); only ladder
    /// exhaustion errors. The consumed attempts/jitter are recorded in
    /// [`DistLassoAdmm::factor_health`]. The ladder is a local decision
    /// from local data, so ranks stay deterministic without extra
    /// collectives.
    pub fn try_new(
        ctx: &mut RankCtx,
        comm: &Comm,
        x_local: Matrix,
        cfg: AdmmConfig,
    ) -> Result<Self, FactorBreakdown> {
        assert!(cfg.rho > 0.0);
        let sp = ctx.span_enter("gram_build.factor");
        let (n, p) = x_local.shape();
        // Packed-panel cost model: the design streams from DRAM once, the
        // O(n p min) SYRK flops run register-tiled on cache-resident
        // panels, and the blocked Cholesky works on CHOL_NB-wide panels
        // with the same footprint.
        let dim = n.min(p);
        ctx.compute_membound((n * p * 8) as f64);
        ctx.compute_flops((n * p * dim) as f64, uoi_linalg::gram::gram_kernel_ws(p));
        ctx.compute_flops(
            (dim * dim * dim) as f64 / 3.0,
            uoi_linalg::gram::gram_kernel_ws(dim),
        );
        let (rho, global_rows, factor, health, design) = if p <= n {
            // Mirror `from_gram`: diagonal read off the local Gram before
            // the ridge is added, and the Gram kept pristine, so
            // `from_gram(syrk_t(&x_local), ..)` stays bit-identical for
            // p <= n_local blocks.
            let mut gram = uoi_linalg::syrk_t_upper(&x_local).into_upper();
            let local_diag: f64 = (0..p).map(|i| gram[(i, i)]).sum();
            let (rho, rows) = Self::global_rho(ctx, comm, local_diag, n, p, cfg.rho);
            let (chol, health) = factor_ridged_pristine(&mut gram, rho)?;
            let design = DesignStore::gram(gram, Some(x_local));
            (rho, rows, Factorization::Primal(chol), health, design)
        } else {
            let local_diag: f64 = x_local.as_slice().iter().map(|v| v * v).sum();
            let (rho, rows) = Self::global_rho(ctx, comm, local_diag, n, p, cfg.rho);
            let (factor, health) = try_factorize(&x_local, rho)?;
            (rho, rows, factor, health, DesignStore::Wide(x_local))
        };
        let metrics = ctx.telemetry().metrics();
        ctx.span_exit(sp);
        Ok(Self {
            design,
            n_rows: n,
            global_rows,
            full: OnceLock::from((factor, health)),
            cfg,
            rho,
            metrics,
        })
    }

    /// Build from a precomputed local Gram `X_i^T X_i` (consumed and kept
    /// pristine; screened paths gather their active-set Grams from it) and
    /// the row count that produced it. Collective over `comm` (penalty
    /// allreduce). Solves must then go through the `*_with_rhs` entry
    /// points with the matching local `X_i^T y_i`. The full local factor
    /// is built on first use — a screened path whose `S` never holds every
    /// feature never builds it — and its Cholesky flops are charged then;
    /// the Gram itself was the caller's (already-charged) work. A
    /// breakdown of that factor panics.
    pub fn from_gram(
        ctx: &mut RankCtx,
        comm: &Comm,
        gram: Matrix,
        n_rows: usize,
        cfg: AdmmConfig,
    ) -> Self {
        assert!(cfg.rho > 0.0);
        let sp = ctx.span_enter("gram_build.cholesky");
        let p = gram.rows();
        assert_eq!(p, gram.cols(), "from_gram: Gram matrix must be square");
        let local_diag: f64 = (0..p).map(|i| gram[(i, i)]).sum();
        let (rho, global_rows) = Self::global_rho(ctx, comm, local_diag, n_rows, p, cfg.rho);
        let metrics = ctx.telemetry().metrics();
        ctx.span_exit(sp);
        Self {
            // Mirrors the upper triangle, so upper-stored Grams from the
            // batched engine (and the checkpoint warm path that round-trips
            // them) are taken as they are.
            design: DesignStore::gram(gram, None),
            n_rows,
            global_rows,
            full: OnceLock::new(),
            cfg,
            rho,
            metrics,
        }
    }

    /// [`DistLassoAdmm::from_gram`] that factors the full local system
    /// eagerly, so [`DistLassoAdmm::factor_health`] reports it: singular
    /// local Grams climb the deterministic jitter ladder instead of
    /// panicking; clean Grams stay bit-identical (`attempts == 0`).
    pub fn try_from_gram(
        ctx: &mut RankCtx,
        comm: &Comm,
        gram: Matrix,
        n_rows: usize,
        cfg: AdmmConfig,
    ) -> Result<Self, FactorBreakdown> {
        let solver = Self::from_gram(ctx, comm, gram, n_rows, cfg);
        let built = solver.build_full_factor(ctx)?;
        let _ = solver.full.set(built);
        Ok(solver)
    }

    /// Factor a Gram-backed solver's full local system `G_i + rho I`
    /// through the jitter ladder, charged as one streaming read of the
    /// Gram plus panel-blocked `p^3 / 3` flops (CHOL_NB-wide panels share
    /// the packed-kernel footprint) under a `gram_build` span.
    fn build_full_factor(
        &self,
        ctx: &mut RankCtx,
    ) -> Result<(Factorization, FactorHealth), FactorBreakdown> {
        let DesignStore::Gram { gram, .. } = &self.design else {
            unreachable!("a wide block's factor is built at construction");
        };
        let sp = ctx.span_enter("gram_build.cholesky");
        let p = gram.rows();
        ctx.compute_membound((p * p * 8) as f64);
        ctx.compute_flops(
            (p * p * p) as f64 / 3.0,
            uoi_linalg::gram::gram_kernel_ws(p),
        );
        let built = factor_ridged(gram.clone(), self.rho);
        ctx.span_exit(sp);
        built.map(|(chol, health)| (Factorization::Primal(chol), health))
    }

    /// The full local factor, built (and charged) on first use.
    fn full_factor(&self, ctx: &mut RankCtx) -> &Factorization {
        &self
            .full
            .get_or_init(|| {
                self.build_full_factor(ctx)
                    .expect("local ADMM system must factor (is the Gram non-finite?)")
            })
            .0
    }

    /// How this rank's full factorisation went: jitter attempts consumed
    /// by the escalation ladder, 0 on the clean path. A solver from
    /// [`DistLassoAdmm::from_gram`] reports the clean default until its
    /// factor is built.
    pub fn factor_health(&self) -> FactorHealth {
        self.full
            .get()
            .map_or_else(FactorHealth::clean, |(_, health)| *health)
    }

    fn local_shape(&self) -> (usize, usize) {
        (self.n_rows, self.design.n_coefficients())
    }

    /// The local design block. Panics for a solver built with
    /// [`DistLassoAdmm::from_gram`].
    pub fn local_design(&self) -> &Matrix {
        self.design.dense()
    }

    /// The local `X_i^T y_i`, computed once per (design, response) and
    /// charged to the rank's virtual clock.
    fn prepare_local_rhs(&self, ctx: &mut RankCtx, y_local: &[f64]) -> Vec<f64> {
        let x = self.design.dense();
        let (n, p) = x.shape();
        assert_eq!(y_local.len(), n, "local response length mismatch");
        let xty = gemv_t(x, y_local);
        ctx.compute_flops(2.0 * (n * p) as f64, (n * p * 8) as f64);
        xty
    }

    /// Warm-started full-problem solve of one λ against a precomputed
    /// local `X_i^T y_i`: every iteration runs on all `p` coefficients
    /// against the full local factor, unscreened. It is the body of
    /// [`DistLassoAdmm::solve_ols`] and the unscreened reference the
    /// screened path is tested against. The local arithmetic reuses its
    /// buffers across iterations; each allreduce still copies its payload
    /// into the communicator (and, on more than one rank, records a
    /// collective event).
    pub fn solve_warm_with_rhs(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        xty: &[f64],
        lambda: f64,
        mut z: Vec<f64>,
        mut u: Vec<f64>,
    ) -> AdmmSolution {
        let (n, p) = self.local_shape();
        assert_eq!(xty.len(), p, "local rhs length mismatch");
        assert_eq!(z.len(), p);
        assert_eq!(u.len(), p);
        let rho = self.rho;
        let span = ctx.span_enter("admm_dist.solve");
        // Consensus threshold: lambda / (rho * B).
        let kappa = lambda / (rho * comm.size() as f64);

        let working_set = ((n.min(p) * n.min(p) + n * p) * 8) as f64;
        let mut local = Local::default();
        let mut cons = Consensus::default();
        let (mut r_norm, mut s_norm) = (f64::INFINITY, f64::INFINITY);
        let mut iterations = 0;
        let mut converged = false;

        let mut curve_buf: Vec<f64> = Vec::new();
        for it in 0..self.cfg.max_iter {
            iterations = it + 1;
            // Local x-update.
            local.build_rhs(xty, &z, &u, rho);
            self.x_update(ctx, &mut local);
            ctx.compute_flops(admm_iter_flops(n, p), working_set);

            let (r, s, conv) =
                self.consensus_update(ctx, comm, kappa, &local.x_i, &mut z, &mut u, &mut cons);
            r_norm = r;
            s_norm = s;
            if self.cfg.capture_curve {
                curve_buf.push(r_norm);
            }
            if conv {
                converged = true;
                break;
            }
        }

        ctx.span_exit(span);
        self.note_solve(comm, iterations, converged, r_norm, s_norm);
        AdmmSolution {
            beta: z,
            iterations,
            primal_residual: r_norm,
            dual_residual: s_norm,
            converged,
            curve: decimate_curve(&curve_buf, CURVE_MAX_POINTS),
        }
    }

    /// The consensus half of one iteration, given this rank's fresh
    /// `x_i`: allreduce the sum of `x_i + u_i` and threshold the mean
    /// into `z`, update `u_i`, then allreduce the three residual sums
    /// (`||x_i - z||^2` needs the *new* z, so it cannot ride the first
    /// reduction). The vectors are `p`-long on a full solve and
    /// `|S|`-long on a screened one, where the absolute tolerance scales
    /// with `sqrt(B |S|)`. Returns `(r_norm, s_norm, converged)`; every
    /// input to the decision is allreduced, so all ranks take it alike.
    #[allow(clippy::too_many_arguments)]
    fn consensus_update(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        kappa: f64,
        x_i: &[f64],
        z: &mut [f64],
        u: &mut [f64],
        cons: &mut Consensus,
    ) -> (f64, f64, bool) {
        let len = z.len();
        let b = comm.size() as f64;
        let rho = self.rho;
        let Consensus {
            payload,
            z_old,
            sums,
        } = cons;
        payload.clear();
        payload.extend(x_i.iter().zip(&*u).map(|(a, c)| a + c));
        comm.allreduce_sum(ctx, payload);
        z_old.clear();
        z_old.extend_from_slice(z);
        for v in payload.iter_mut() {
            *v /= b;
        }
        if kappa > 0.0 {
            soft_threshold_vec(payload, kappa, z);
        } else {
            z.copy_from_slice(payload);
        }
        ctx.compute_membound((len * 8 * 3) as f64);

        // u-update.
        for ((ui, xi), zi) in u.iter_mut().zip(x_i).zip(&*z) {
            *ui += xi - zi;
        }

        // Global residuals (small allreduce of 3 scalars).
        let mut local = [0.0_f64; 3];
        for ((xi, zi), ui) in x_i.iter().zip(&*z).zip(&*u) {
            local[0] += (xi - zi) * (xi - zi);
            local[1] += xi * xi;
            local[2] += (rho * ui) * (rho * ui);
        }
        sums.clear();
        sums.extend_from_slice(&local);
        comm.allreduce_sum(ctx, sums);
        let r_norm = sums[0].sqrt();
        let x_norm = sums[1].sqrt();
        let u_norm = sums[2].sqrt();
        let z_norm = uoi_linalg::norm2(z) * b.sqrt();
        let dz: f64 = z
            .iter()
            .zip(&*z_old)
            .map(|(a, c)| (a - c) * (a - c))
            .sum::<f64>()
            .sqrt();
        let s_norm = rho * dz * b.sqrt();

        let sqrt_np = (b * len as f64).sqrt();
        let eps_pri = sqrt_np * self.cfg.abstol + self.cfg.reltol * x_norm.max(z_norm);
        let eps_dual = sqrt_np * self.cfg.abstol + self.cfg.reltol * u_norm;
        (r_norm, s_norm, r_norm <= eps_pri && s_norm <= eps_dual)
    }

    /// Per-solve metrics, recorded on communicator rank 0 only.
    fn note_solve(&self, comm: &Comm, iterations: usize, converged: bool, r: f64, s: f64) {
        if comm.rank() != 0 {
            return;
        }
        if let Some(m) = &self.metrics {
            m.incr("admm_dist.solves", 1);
            if converged {
                m.incr("admm_dist.converged", 1);
            } else {
                m.incr("admm_dist.max_iter_hit", 1);
            }
            m.observe("admm_dist.iterations", iterations as f64);
            m.observe("admm_dist.primal_residual", r);
            m.observe("admm_dist.dual_residual", s);
            m.observe("solver.iterations", iterations as f64);
            m.incr("solver.nonconverged", u64::from(!converged));
        }
    }

    /// Distributed OLS (`lambda = 0`) — the paper's estimation solver,
    /// kept for the fig4/fig6 scaling proxy (the UoI fits solve their
    /// candidates exactly). Wrapped in an `ols_estimation` span so
    /// profilers attribute the inner ADMM iterations to the estimation
    /// phase, not to LASSO.
    pub fn solve_ols(&self, ctx: &mut RankCtx, comm: &Comm, y_local: &[f64]) -> AdmmSolution {
        let sp = ctx.span_enter("ols_estimation.solve");
        let xty = self.prepare_local_rhs(ctx, y_local);
        let p = xty.len();
        let sol = self.solve_warm_with_rhs(ctx, comm, &xty, 0.0, vec![0.0; p], vec![0.0; p]);
        ctx.span_exit(sp);
        sol
    }

    /// Solve a whole lambda path from a local response: the local
    /// `X_i^T y_i` once for the whole path, then
    /// [`DistLassoAdmm::solve_path_with_rhs`]. Kept with
    /// [`DistLassoAdmm::solve_ols`] for the fig4/fig6 scaling proxy.
    pub fn solve_path(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        y_local: &[f64],
        lambdas: &[f64],
    ) -> Vec<AdmmSolution> {
        let xty = self.prepare_local_rhs(ctx, y_local);
        self.solve_path_with_rhs(ctx, comm, &xty, lambdas)
    }

    /// Solve a whole lambda path against a precomputed local
    /// `X_i^T y_i` — the one path entry point for dense and Gram-built
    /// solvers. Collective over `comm`. Solves largest-first, each λ a
    /// screened active-set solve warm-started from the previous λ's
    /// solution and ended by a polish (see the module docs).
    pub fn solve_path_with_rhs(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        xty: &[f64],
        lambdas: &[f64],
    ) -> Vec<AdmmSolution> {
        let (n, p) = self.local_shape();
        assert_eq!(xty.len(), p, "local rhs length mismatch");
        let rho = self.rho;
        let b = comm.size() as f64;
        let mut st = AdmmState::new(p);
        let mut local = Local::default();
        let mut cons = Consensus::default();
        let mut polish = Polish::default();
        let mut curve = Vec::new();
        let mut out = Vec::with_capacity(lambdas.len());
        for &lam in lambdas {
            assert!(lam >= 0.0);
            let span = ctx.span_enter("admm_dist.solve");
            // The per-λ transition on the summed gradient. On a fresh
            // state z = 0, so the gradient is the global X^T y and the
            // strong rule's λ_prev is its ∞-norm. A cut 2λ - λ_prev <= 0
            // keeps every feature whatever the gradient holds, so the
            // reduction is skipped then.
            let prev = st.previous_lambda();
            if !st.gradient().1 && prev.is_none_or(|prev| 2.0 * lam > prev) {
                self.reduce_gradient(ctx, comm, xty, &mut st);
            }
            st.screen(lam, prev.unwrap_or_else(|| norm_inf(st.gradient().0)));
            let mut full = self.factor_active(ctx, comm, &mut st);
            let kappa = lam / (rho * b);
            curve.clear();
            for _ in 0..self.cfg.max_iter {
                let m = st.active_len();
                st.active_rhs(xty, rho, &mut local.rhs);
                let (flops, bytes) = if full {
                    self.x_update(ctx, &mut local);
                    let k = n.min(m);
                    (admm_iter_flops(n, m), (k * k + n * m) * 8)
                } else {
                    local.x_i.clear();
                    local.x_i.extend_from_slice(&local.rhs);
                    st.solve_active(&mut local.x_i);
                    (admm_active_iter_flops(m), (m * m + 2 * m) * 8)
                };
                ctx.compute_flops(flops, bytes as f64);
                let (zs, us) = st.compact_mut();
                let (r_norm, s_norm, conv) =
                    self.consensus_update(ctx, comm, kappa, &local.x_i, zs, us, &mut cons);
                st.commit_step(r_norm, s_norm);
                if self.cfg.capture_curve {
                    curve.push(r_norm);
                }
                let due = st.polish_due((!conv).then_some(&cons.z_old));
                if due && self.polish(ctx, comm, xty, lam, &mut st, &mut polish) {
                    break;
                }
                if conv {
                    // KKT check over the complement of S, on the summed
                    // gradient; violators join S and the solve goes on.
                    // An S of every feature has no complement to check.
                    if m == p {
                        st.converged = true;
                        break;
                    }
                    self.reduce_gradient(ctx, comm, xty, &mut st);
                    if !st.admit(lam) {
                        st.converged = true;
                        break;
                    }
                    full = self.factor_active(ctx, comm, &mut st);
                    if let (0, Some(reg)) = (comm.rank(), &self.metrics) {
                        reg.incr("admm_dist.kkt_reentries", 1);
                    }
                }
            }
            ctx.span_exit(span);
            self.note_solve(
                comm,
                st.iterations,
                st.converged,
                st.primal_residual,
                st.dual_residual,
            );
            out.push(AdmmSolution {
                beta: st.z.clone(),
                iterations: st.iterations,
                primal_residual: st.primal_residual,
                dual_residual: st.dual_residual,
                converged: st.converged,
                curve: decimate_curve(&curve, CURVE_MAX_POINTS),
            });
        }
        out
    }

    /// One polish attempt on the consensus iterate's sign pattern: the
    /// local `G_i,AA` and `c_i,A` are summed by one allreduce, every rank
    /// solves the same reduced system, and — signs agreeing — the KKT
    /// check reads the allreduced gradient at `β`. A support larger than
    /// the global row count is singular and rejected before any
    /// collective. Charged as the gather, an `|A|^3 / 3` factorisation and
    /// the gradient refresh.
    fn polish(
        &self,
        ctx: &mut RankCtx,
        comm: &Comm,
        xty: &[f64],
        lambda: f64,
        st: &mut AdmmState,
        pl: &mut Polish,
    ) -> bool {
        st.polish_support(pl);
        let a = pl.support_len();
        let solved = if a > self.global_rows {
            st.reject_pattern();
            false
        } else {
            st.polish_gather(&self.design, xty, pl);
            comm.allreduce_sum(ctx, pl.system_mut());
            st.polish_solve(pl, lambda, PolishSystem::Gathered)
        };
        ctx.compute_flops(st.take_factor_flops(), (a * a * 8) as f64);
        let accepted = solved && {
            self.reduce_gradient(ctx, comm, xty, st);
            st.polish_settle(pl, lambda)
        };
        if let (0, Some(reg)) = (comm.rank(), &self.metrics) {
            reg.incr("admm.polish.attempts", 1);
            reg.incr("admm.polish.accepted", u64::from(accepted));
        }
        accepted
    }

    /// Refresh this rank's gradient `X_i^T y_i - G_i z` (support columns
    /// only) and allreduce it into the global `X^T y - G z`, which the
    /// strong rule and the KKT check read — identical on every rank.
    fn reduce_gradient(&self, ctx: &mut RankCtx, comm: &Comm, xty: &[f64], st: &mut AdmmState) {
        let nnz = st.z.iter().filter(|&&v| v != 0.0).count();
        let (flops, bytes) = self.design.gradient_cost(nnz);
        ctx.compute_flops(flops, bytes);
        comm.allreduce_sum(ctx, st.refresh_gradient(&self.design, xty));
    }

    /// `x_i = (X_i^T X_i + rho I)^{-1} rhs` through the full local factor.
    fn x_update(&self, ctx: &mut RankCtx, local: &mut Local) {
        let Local { rhs, x_i, wn, wt } = local;
        match self.full_factor(ctx) {
            Factorization::Primal(ch) => {
                x_i.clear();
                x_i.extend_from_slice(rhs);
                ch.solve_in_place(x_i);
            }
            Factorization::Woodbury(ch) => {
                let x = self.design.dense();
                gemv_into(x, rhs, wn);
                ch.solve_in_place(wn);
                gemv_t_into(x, wn, wt);
                x_i.clear();
                x_i.extend(rhs.iter().zip(&*wt).map(|(vi, wi)| (vi - wi) / self.rho));
            }
        }
    }

    /// Bring this rank's factor of `G_i,SS + rho I` to the state's active
    /// set — updated in place, deleting leavers and appending newcomers,
    /// or rebuilt ([`AdmmState::factor_active`]) — and charge the rows
    /// factored and deleted and the entries gathered, from the kept Gram
    /// or a wide block's columns, as the serial solver does. Returns
    /// whether `S` holds every feature (then in index order); the full
    /// local factor is applied then and nothing is factored. The choice
    /// is local: both yield the same `|S|`-long x-update, so the
    /// collectives do not depend on it.
    fn factor_active(&self, ctx: &mut RankCtx, comm: &Comm, st: &mut AdmmState) -> bool {
        let m = st.active_len();
        if m == self.design.n_coefficients() {
            return true;
        }
        let update = st.factor_active(&self.design, self.rho);
        if let (0, Some(reg)) = (comm.rank(), &self.metrics) {
            update.record(reg);
        }
        let flops = st.take_factor_flops();
        if flops > 0.0 {
            ctx.compute_flops(flops, (m * m * 8) as f64);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admm::LassoAdmm;
    use crate::diagnostics::lasso_kkt_violation;
    use uoi_mpisim::{Cluster, MachineModel, Phase};

    /// Deterministic test problem: y depends on features 0 and 3.
    fn problem(n: usize, p: usize) -> (Matrix, Vec<f64>) {
        let x = Matrix::from_fn(n, p, |i, j| {
            ((((i + 1) * (j + 7) * 2654435761_usize) % 1009) as f64 - 504.0) / 504.0
        });
        let y: Vec<f64> = (0..n)
            .map(|i| 2.5 * x[(i, 0)] - 1.2 * x[(i, 3)] + 0.05 * (((i * 13) % 7) as f64 - 3.0))
            .collect();
        (x, y)
    }

    fn dist_solve(ranks: usize, lambda: f64) -> (Vec<f64>, Matrix, Vec<f64>) {
        let (x, y) = problem(48, 6);
        let rows_per = 48 / ranks;
        let (x_ref, y_ref) = (x.clone(), y.clone());
        let report = Cluster::new(ranks, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x_ref.rows_range(r * rows_per, (r + 1) * rows_per);
            let y_local = y_ref[r * rows_per..(r + 1) * rows_per].to_vec();
            let solver = DistLassoAdmm::new(
                ctx,
                comm,
                x_local,
                AdmmConfig {
                    max_iter: 6000,
                    abstol: 1e-10,
                    reltol: 1e-9,
                    ..Default::default()
                },
            );
            solver.solve_path(ctx, comm, &y_local, &[lambda])[0]
                .beta
                .clone()
        });
        (report.results[0].clone(), x, y)
    }

    #[test]
    fn distributed_matches_serial_lasso() {
        let lambda = 0.8;
        let (beta_dist, x, y) = dist_solve(4, lambda);
        let serial = LassoAdmm::new(
            x.clone(),
            AdmmConfig {
                max_iter: 6000,
                abstol: 1e-10,
                reltol: 1e-9,
                ..Default::default()
            },
        )
        .solve_path_with_rhs(&gemv_t(&x, &y), &[lambda]);
        for (a, b) in beta_dist.iter().zip(&serial[0].beta) {
            assert!((a - b).abs() < 5e-3, "dist {a} vs serial {b}");
        }
        // And the distributed solution satisfies global KKT.
        assert!(lasso_kkt_violation(&x, &y, &beta_dist, lambda) < 5e-3);
    }

    #[test]
    fn all_ranks_agree_on_z() {
        let (x, y) = problem(32, 5);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x.rows_range(r * 8, (r + 1) * 8);
            let y_local = y[r * 8..(r + 1) * 8].to_vec();
            let solver = DistLassoAdmm::new(ctx, comm, x_local, AdmmConfig::default());
            solver.solve_path(ctx, comm, &y_local, &[0.5])[0]
                .beta
                .clone()
        });
        for r in 1..4 {
            assert_eq!(report.results[0], report.results[r], "consensus broken");
        }
    }

    #[test]
    fn distributed_ols_matches_exact() {
        let (x, y) = problem(40, 4);
        let (x_ref, y_ref) = (x.clone(), y.clone());
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x_ref.rows_range(r * 10, (r + 1) * 10);
            let y_local = y_ref[r * 10..(r + 1) * 10].to_vec();
            let solver = DistLassoAdmm::new(
                ctx,
                comm,
                x_local,
                AdmmConfig {
                    max_iter: 8000,
                    abstol: 1e-11,
                    reltol: 1e-10,
                    ..Default::default()
                },
            );
            solver.solve_ols(ctx, comm, &y_local).beta
        });
        let exact = uoi_linalg::solve_normal_equations(&x, &y, 0.0).unwrap();
        for (a, b) in report.results[0].iter().zip(&exact) {
            assert!((a - b).abs() < 1e-3, "ols dist {a} vs exact {b}");
        }
    }

    #[test]
    fn communication_time_recorded() {
        let (x, y) = problem(32, 5);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let solver = DistLassoAdmm::new(
                ctx,
                comm,
                x.rows_range(r * 8, (r + 1) * 8),
                AdmmConfig::default(),
            );
            let _ = solver.solve_path(ctx, comm, &y[r * 8..(r + 1) * 8], &[0.5]);
            ctx.ledger()
        });
        for l in &report.results {
            assert!(l.get(Phase::Compute) > 0.0);
            assert!(l.get(Phase::Comm) > 0.0);
        }
        assert!(report.allreduce_events().count() >= 2);
    }

    #[test]
    fn gram_built_path_bit_identical_to_dense_path() {
        // p <= n_local: the dense solver factors the same upper Gram, so
        // the Gram-built path must reproduce it bit for bit.
        let (x_ref, y_ref) = problem(48, 6);
        let lambdas = [3.0, 1.0, 0.3, 0.0];
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x_ref.rows_range(r * 12, (r + 1) * 12);
            let y_local = y_ref[r * 12..(r + 1) * 12].to_vec();
            let cfg = || AdmmConfig {
                max_iter: 4000,
                abstol: 1e-10,
                reltol: 1e-9,
                ..Default::default()
            };
            let dense = DistLassoAdmm::new(ctx, comm, x_local.clone(), cfg())
                .solve_path(ctx, comm, &y_local, &lambdas);
            let gram = DistLassoAdmm::from_gram(
                ctx,
                comm,
                uoi_linalg::syrk_t_upper(&x_local).into_upper(),
                x_local.rows(),
                cfg(),
            )
            .solve_path_with_rhs(ctx, comm, &gemv_t(&x_local, &y_local), &lambdas);
            dense.iter().zip(&gram).all(|(d, g)| {
                d.iterations == g.iterations
                    && d.beta.len() == g.beta.len()
                    && d.beta
                        .iter()
                        .zip(&g.beta)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        });
        for (r, &same) in report.results.iter().enumerate() {
            assert!(same, "rank {r} Gram-built path differs from dense");
        }
    }

    #[test]
    fn gram_built_solver_panics_on_design_access() {
        let report = Cluster::new(1, MachineModel::deterministic()).run(move |ctx, comm| {
            let x = Matrix::identity(3);
            let solver = DistLassoAdmm::from_gram(
                ctx,
                comm,
                uoi_linalg::syrk_t(&x),
                3,
                AdmmConfig::default(),
            );
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = solver.local_design();
            }))
            .is_err()
        });
        assert!(
            report.results[0],
            "local_design must panic for Gram-built solver"
        );
    }

    #[test]
    fn path_warm_start_matches_cold() {
        let (x, y) = problem(48, 6);
        let lambdas = [3.0, 1.0, 0.3];
        let (x_ref, y_ref) = (x, y);
        let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, comm| {
            let r = comm.rank();
            let x_local = x_ref.rows_range(r * 12, (r + 1) * 12);
            let y_local = y_ref[r * 12..(r + 1) * 12].to_vec();
            let solver = DistLassoAdmm::new(
                ctx,
                comm,
                x_local,
                AdmmConfig {
                    max_iter: 6000,
                    abstol: 1e-10,
                    reltol: 1e-9,
                    ..Default::default()
                },
            );
            solver
                .solve_path(ctx, comm, &y_local, &lambdas)
                .into_iter()
                .map(|s| s.beta)
                .collect::<Vec<_>>()
        });
        for (i, &lam) in lambdas.iter().enumerate() {
            let (cold, _, _) = dist_solve(4, lam);
            for (a, b) in report.results[0][i].iter().zip(&cold) {
                assert!((a - b).abs() < 5e-3, "lambda {lam}: warm {a} vs cold {b}");
            }
        }
    }
}

//! Reusable scaling workloads: the representative `UoI_LASSO` and
//! `UoI_VAR` runs the weak/strong-scaling figures execute at each Table I
//! point.
//!
//! The key convention (see DESIGN.md §2): the **per-core block sizes are
//! the paper's real ones** — weak scaling keeps ~the same rows per core
//! that 128 GB / 4,352 cores implies, strong scaling shrinks them as
//! 1 TB / P — while only `exec_ranks` of the modeled cores actually run.
//! Virtual-time collectives and window transfers are costed at the
//! modeled core count, so the reported phase breakdown is the modeled
//! machine's, not the host's.

use std::sync::{Arc, Mutex};

use uoi_core::uoi_lasso::UoiLassoConfig;
use uoi_core::uoi_var::UoiVarConfig;
use uoi_core::{DistOptions, ExecMode, ParallelLayout, UoiFitter, UoiVarFitter};
use uoi_data::{LinearConfig, VarConfig, VarProcess};
use uoi_mpisim::{Cluster, MachineModel, PhaseLedger, RankCtx, SimReport};
use uoi_solvers::AdmmConfig;
use uoi_telemetry::{Json, Telemetry};

/// One Table I point of the `UoI_LASSO` scaling figures (3, 4 and 6):
/// the real distributed fit ([`UoiFitter::fit_on`]) on a synthetic
/// `LinearConfig` dataset, under [`Cluster::modeled_ranks`].
#[derive(Debug, Clone)]
pub struct LassoScalingFit {
    /// Rows resident on each (modeled) core. The dataset holds one
    /// core's block per executed rank of an ADMM communicator:
    /// `rows_per_core × exec_ranks / (P_B × P_lambda)` rows.
    pub rows_per_core: usize,
    /// Feature count (paper: 20,101).
    pub features: usize,
    /// Modeled core count (Table I).
    pub modeled_cores: usize,
    /// Executed ranks.
    pub exec_ranks: usize,
    /// `P_B x P_lambda x ADMM` decomposition of the executed ranks.
    pub layout: ParallelLayout,
    /// The fit's configuration (`b1`, `b2`, `q`, solver, seed).
    pub cfg: UoiLassoConfig,
    /// Seed of the synthetic dataset.
    pub data_seed: u64,
    /// Aggregate dataset bytes charged to the modeled parallel read (and
    /// the coefficients to the write); `None` charges no I/O.
    pub io_bytes: Option<f64>,
    /// Machine model.
    pub model: MachineModel,
}

impl LassoScalingFit {
    /// Execute the run with `telemetry` attached (pass
    /// [`Telemetry::disabled`] for none) and return the simulation
    /// report: per-rank phase ledgers evaluated at the modeled core
    /// count.
    pub fn execute(&self, telemetry: Telemetry) -> SimReport<PhaseLedger> {
        let admm_ranks = self.exec_ranks / (self.layout.p_b * self.layout.p_lambda);
        let ds = LinearConfig {
            n_samples: self.rows_per_core * admm_ranks,
            n_features: self.features,
            n_nonzero: 10,
            snr: 8.0,
            seed: self.data_seed,
            ..Default::default()
        }
        .generate();
        let fitter = UoiFitter::new(self.cfg.clone())
            .mode(ExecMode::Dist(DistOptions::default().layout(self.layout)));
        let (io_bytes, p) = (self.io_bytes, self.features);
        Cluster::new(self.exec_ranks, self.model.clone())
            .modeled_ranks(self.modeled_cores)
            .with_telemetry(telemetry)
            .run(move |ctx, world| {
                // Data I/O: the striped parallel read of the dataset, and
                // the coefficient write.
                let io = |ctx: &mut RankCtx, bytes| {
                    let t = ctx
                        .model()
                        .io
                        .parallel_read_time(world.modeled_size(ctx), bytes);
                    ctx.charge_io(t);
                };
                if let Some(bytes) = io_bytes {
                    io(ctx, bytes);
                }
                let _ = fitter.fit_on(ctx, world, &ds.x, &ds.y);
                if io_bytes.is_some() {
                    io(ctx, (p * 8) as f64);
                }
                ctx.ledger()
            })
    }
}

/// The fit configuration of a fig4/fig6 point: `b1`/`b2`/`q` from the
/// harness, a λ grid down to 5 % of `λ_max`, and 80 ADMM iterations per λ.
pub fn lasso_scaling_cfg(b1: usize, b2: usize, q: usize, seed: u64) -> UoiLassoConfig {
    UoiLassoConfig {
        b1,
        b2,
        q,
        lambda_min_ratio: 5e-2,
        admm: AdmmConfig {
            max_iter: 80,
            ..Default::default()
        },
        support_tol: 1e-6,
        seed,
        ..Default::default()
    }
}

/// Parameters of one representative `UoI_VAR` scaling run.
#[derive(Debug, Clone)]
pub struct VarScalingRun {
    /// Executed node count `p` (scaled from the paper's 356–1000).
    pub features: usize,
    /// Series length (paper: twice the features).
    pub samples: usize,
    /// Modeled core count.
    pub modeled_cores: usize,
    /// Executed ranks.
    pub exec_ranks: usize,
    /// Reader ranks serving the Kronecker windows.
    pub n_readers: usize,
    /// Selection / estimation bootstraps and lambda count.
    pub b1: usize,
    /// Estimation bootstraps.
    pub b2: usize,
    /// Lambda count.
    pub q: usize,
    /// In-rank ADMM worker threads over the response columns; only the
    /// modeled wall-clock depends on it, never the fitted numbers.
    pub threads: usize,
    /// Machine model.
    pub model: MachineModel,
    /// Seed.
    pub seed: u64,
}

/// Phase ledger plus the Kronecker-stage seconds of a VAR run.
pub struct VarRunOutcome {
    /// Per-rank ledgers and events.
    pub report: SimReport<(PhaseLedger, f64)>,
    /// Rank-0 numerical-health report when the run was guarded
    /// (`UOI_NUMERICAL=1`), already serialised for the run report.
    pub numerical: Option<Json>,
}

impl VarRunOutcome {
    /// Slowest-rank ledger with the **compute share corrected to one
    /// modeled core**. The executed ranks split the response columns
    /// `exec_ranks` ways while the modeled machine splits the same total
    /// work `modeled_cores` ways, so per-core computation is the measured
    /// per-rank computation scaled by `exec/modeled`. Communication
    /// (already costed at the modeled size), distribution (shared reader
    /// queues), and I/O need no correction.
    pub fn per_core_ledger(&self) -> PhaseLedger {
        let mut l = self
            .report
            .ledgers
            .iter()
            .copied()
            .fold(PhaseLedger::default(), PhaseLedger::max);
        l.compute *= self.report.exec_ranks as f64 / self.report.modeled_ranks as f64;
        l
    }

    /// Max Kronecker/vectorisation seconds over ranks.
    pub fn kron_seconds(&self) -> f64 {
        self.report
            .results
            .iter()
            .map(|&(_, k)| k)
            .fold(0.0, f64::max)
    }
}

impl VarScalingRun {
    /// Execute the distributed `UoI_VAR` fit and return per-rank
    /// `(ledger, kron_seconds)`.
    pub fn execute(&self) -> VarRunOutcome {
        self.execute_traced(Telemetry::disabled())
    }

    /// [`execute`](Self::execute) with a telemetry handle attached, so
    /// harnesses running under `UOI_TRACE=1` capture the run's timeline.
    pub fn execute_traced(&self, telemetry: Telemetry) -> VarRunOutcome {
        let proc = VarProcess::generate(&VarConfig {
            p: self.features,
            order: 1,
            density: 0.05,
            target_radius: 0.6,
            noise_std: 1.0,
            seed: self.seed,
        });
        let series = proc.simulate(self.samples, 50, self.seed ^ 0x5E);
        // UOI_NUMERICAL=1 arms the numerical-resilience guards; the
        // fitted numbers stay bit-identical on the clean simulated series
        // and rank 0's health report is threaded out for the run report.
        let guarded = std::env::var("UOI_NUMERICAL").is_ok_and(|v| v == "1");
        let var_cfg = UoiVarConfig {
            order: 1,
            block_len: None,
            base: UoiLassoConfig {
                b1: self.b1,
                b2: self.b2,
                q: self.q,
                lambda_min_ratio: 5e-2,
                admm: AdmmConfig {
                    max_iter: 200,
                    threads: self.threads.max(1),
                    ..Default::default()
                },
                support_tol: 1e-6,
                seed: self.seed,
                numerical: if guarded {
                    uoi_core::NumericalConfig::guarded()
                } else {
                    uoi_core::NumericalConfig::default()
                },
                ..Default::default()
            },
        };
        let fitter = UoiVarFitter::new(var_cfg).mode(ExecMode::Dist(
            DistOptions::default()
                .layout(uoi_core::ParallelLayout::admm_only())
                .n_readers(self.n_readers),
        ));
        let numerical_out = Arc::new(Mutex::new(None));
        let numerical_slot = Arc::clone(&numerical_out);
        let report = Cluster::new(self.exec_ranks, self.model.clone())
            .modeled_ranks(self.modeled_cores)
            .with_telemetry(telemetry)
            .run(move |ctx, world| {
                let (fit, kron) = fitter.fit_on(ctx, world, &series);
                if world.rank() == 0 {
                    if let Some(health) = &fit.numerical {
                        *numerical_slot.lock().unwrap() = Some(health.to_json());
                    }
                }
                (ctx.ledger(), kron.kron_seconds)
            });
        let numerical = numerical_out.lock().unwrap().take();
        VarRunOutcome { report, numerical }
    }
}

/// Analytic paper-scale `UoI_VAR` phase ledger for one Table I point.
///
/// The executed runs shrink `p` for tractability; this closed form
/// evaluates the same workload structure (lockstep per-round allreduce of
/// the full `p^2` estimate, full-lag-matrix pulls through `n_reader`
/// windows) at the paper's `p` and core count, using the ADMM round count
/// measured from the executed run. `d = 1`, `N = 2p` as in the paper.
///
/// Returns the per-core ledger and the Kronecker seconds (== the
/// distribution component).
#[allow(clippy::too_many_arguments)]
pub fn var_paper_ledger(
    p: usize,
    cores: usize,
    b1: usize,
    b2: usize,
    q: usize,
    iters_per_solve: f64,
    n_readers: usize,
    model: &MachineModel,
) -> (PhaseLedger, f64) {
    let pf = p as f64;
    let n = 2.0 * pf - 1.0;
    let dp = pf; // d = 1
    let c = cores as f64;

    // Compute: per-round x-updates over all p columns, plus one
    // factorisation per bootstrap and the estimation OLS fits.
    let rounds = (b1 * q) as f64 * iters_per_solve;
    let iter_flops_total = rounds * pf * 2.0 * dp * dp;
    let factor_flops = b1 as f64 * (n * dp * dp.min(n) + dp * dp * dp / 3.0);
    let est_flops = (b2 * q) as f64 * pf * n * 16.0;
    let per_core_flops = (iter_flops_total + factor_flops + est_flops) / c;
    let compute = model.compute_time(per_core_flops, n * dp * 8.0 / c);

    // Communication: one allreduce of the vectorised estimate per round.
    let comm = rounds * model.allreduce_time(cores, p * p * 8 + 8)
        + (b2 * q) as f64 * model.allreduce_time(cores, p * p * 8 + 16);

    // Distribution (Kron + vec): every core pulls the full (Y | X) lag
    // matrix once per bootstrap; the n_reader windows serialise the
    // aggregate load.
    let pulls = (b1 + 2 * b2) as f64;
    let row_bytes = (pf + dp) * 8.0;
    let aggregate_msgs = c * n * pulls;
    let aggregate_bytes = aggregate_msgs * row_bytes;
    let kron =
        (aggregate_msgs * model.alpha + aggregate_bytes * model.beta) / n_readers.max(1) as f64;

    let io = model.io.parallel_read_time(cores, n * pf * 8.0);
    (
        PhaseLedger {
            compute,
            comm,
            distribution: kron,
            io,
        },
        kron,
    )
}

/// Estimate the mean ADMM rounds per (bootstrap, lambda) solve from an
/// executed run's allreduce event count.
pub fn measured_rounds_per_solve(
    report: &SimReport<(PhaseLedger, f64)>,
    b1: usize,
    q: usize,
) -> f64 {
    let events = report.allreduce_events().count() as f64;
    (events / (b1 * q) as f64).max(1.0)
}

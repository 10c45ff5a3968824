//! Unified fit entry point: one builder, three execution modes.
//!
//! The crate grew eight free fit functions — serial, distributed, and
//! recovering variants for both `UoI_LASSO` and `UoI_VAR`, each with a
//! panicking and/or `Result` flavour. [`UoiFitter`] and [`UoiVarFitter`]
//! collapse that surface into a single chainable entry point:
//!
//! ```
//! use uoi_core::fitter::{ExecMode, UoiFitter};
//! use uoi_core::uoi_lasso::UoiLassoConfig;
//! use uoi_data::LinearConfig;
//!
//! let ds = LinearConfig { n_samples: 24, n_features: 6, n_nonzero: 2, seed: 7, ..Default::default() }
//!     .generate();
//! let cfg = UoiLassoConfig { b1: 3, b2: 3, q: 4, ..Default::default() };
//! let fit = UoiFitter::new(cfg)
//!     .mode(ExecMode::Serial)
//!     .fit(&ds.x, &ds.y)
//!     .unwrap();
//! assert_eq!(fit.beta.len(), 6);
//! ```
//!
//! Mode dispatch:
//!
//! * [`ExecMode::Serial`] — the in-process fit;
//! * [`ExecMode::Dist`] — spins up a simulated [`Cluster`] internally and
//!   returns rank 0's fit. Callers that drive their own cluster (custom
//!   machine models, `modeled_ranks` extrapolation) use
//!   [`UoiFitter::fit_on`] from inside their rank closure instead;
//! * [`ExecMode::Recovering`] — the shrink-and-recover pipeline with a
//!   fault plan and re-execution round budget.
//!
//! Numerical contract: the mode and thread count never change the fitted
//! numbers — `Serial`, `Dist`, and a successful `Recovering` run produce
//! bit-identical supports and coefficients for the same configuration,
//! and `threads` only affects the distributed VAR fit's modeled
//! wall-clock.

use crate::error::UoiError;
use crate::parallelism::ParallelLayout;
use crate::recovery::RecoveryConfig;
use crate::uoi_lasso::{validate_lasso_inputs, UoiFit, UoiLassoConfig};
#[allow(deprecated)]
use crate::uoi_lasso_dist::fit_uoi_lasso_dist;
#[allow(deprecated)]
use crate::uoi_lasso_recovering::fit_uoi_lasso_recovering;
use crate::uoi_var::{validate_var_inputs, UoiVarConfig, UoiVarFit};
#[allow(deprecated)]
use crate::uoi_var_dist::fit_uoi_var_dist;
use crate::uoi_var_dist::{KronStats, UoiVarDistConfig};
#[allow(deprecated)]
use crate::uoi_var_recovering::fit_uoi_var_recovering;
use uoi_linalg::Matrix;
use uoi_mpisim::{Cluster, Comm, MachineModel, RankCtx};
use uoi_solvers::AdmmConfig;

/// Where and how a fit executes.
#[derive(Debug, Clone, Default)]
pub enum ExecMode {
    /// In-process fit on the calling thread.
    #[default]
    Serial,
    /// Distributed fit over an internally managed simulated cluster;
    /// `fit` returns rank 0's (replicated) result.
    Dist(DistOptions),
    /// Shrink-and-recover execution: rank-failure agreement, communicator
    /// rebuild, and lossless task re-execution under the given fault
    /// plan and round budget.
    Recovering(RecoveryConfig),
}

/// Cluster shape for [`ExecMode::Dist`].
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Ranks actually executed.
    pub exec_ranks: usize,
    /// Ranks the cost model is evaluated at (`>= exec_ranks`); lets a
    /// small execution stand in for a large modeled machine.
    pub modeled_ranks: usize,
    /// Latency/bandwidth/compute model of the simulated machine.
    pub machine: MachineModel,
    /// `P_B x P_lambda x ADMM` core decomposition (LASSO pipelines).
    pub layout: ParallelLayout,
    /// Tier-1 reader ranks for the VAR lag-matrix windows.
    pub n_readers: usize,
}

impl Default for DistOptions {
    fn default() -> Self {
        Self {
            exec_ranks: 4,
            modeled_ranks: 4,
            machine: MachineModel::deterministic(),
            layout: ParallelLayout::admm_only(),
            n_readers: 4,
        }
    }
}

impl DistOptions {
    /// Set both the executed and modeled world size.
    pub fn ranks(mut self, n: usize) -> Self {
        self.exec_ranks = n;
        self.modeled_ranks = n;
        self
    }

    /// Evaluate the cost model at `n` ranks while executing fewer.
    pub fn modeled_ranks(mut self, n: usize) -> Self {
        self.modeled_ranks = n;
        self
    }

    /// Use a specific machine model instead of the deterministic default.
    pub fn machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        self
    }

    /// Set the `P_B x P_lambda x ADMM` decomposition.
    pub fn layout(mut self, layout: ParallelLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Set the number of Tier-1 reader ranks (VAR only).
    pub fn n_readers(mut self, n: usize) -> Self {
        self.n_readers = n;
        self
    }

    fn validate(&self) -> Result<(), UoiError> {
        if self.exec_ranks == 0 {
            return Err(UoiError::InvalidConfig(
                "dist exec_ranks must be >= 1".into(),
            ));
        }
        if self.modeled_ranks < self.exec_ranks {
            return Err(UoiError::InvalidConfig(
                "dist modeled_ranks must be >= exec_ranks".into(),
            ));
        }
        Ok(())
    }

    fn cluster(&self) -> Cluster {
        Cluster::new(self.exec_ranks, self.machine.clone()).modeled_ranks(self.modeled_ranks)
    }
}

/// One entry point for every `UoI_LASSO` execution mode.
///
/// See the [module docs](self) for the dispatch table and the numerical
/// contract. Construction never fails; configuration errors surface from
/// [`fit`](Self::fit) as [`UoiError::InvalidConfig`].
#[derive(Debug, Clone, Default)]
pub struct UoiFitter {
    cfg: UoiLassoConfig,
    mode: ExecMode,
}

impl UoiFitter {
    /// Fitter over the given statistical configuration, in
    /// [`ExecMode::Serial`].
    pub fn new(cfg: UoiLassoConfig) -> Self {
        Self {
            cfg,
            mode: ExecMode::Serial,
        }
    }

    /// Select the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// The current statistical configuration.
    pub fn config(&self) -> &UoiLassoConfig {
        &self.cfg
    }

    /// Mutable access for knobs without a dedicated builder method.
    pub fn config_mut(&mut self) -> &mut UoiLassoConfig {
        &mut self.cfg
    }

    /// Run the fit in the selected mode.
    ///
    /// In [`ExecMode::Dist`] this spins up the configured cluster, runs
    /// the consensus fit on every rank, and returns rank 0's result
    /// (all ranks agree bit-for-bit).
    #[allow(deprecated)] // the facade is the one sanctioned caller of the legacy fns
    pub fn fit(&self, x: &Matrix, y: &[f64]) -> Result<UoiFit, UoiError> {
        match &self.mode {
            ExecMode::Serial => crate::uoi_lasso::try_fit_uoi_lasso(x, y, &self.cfg),
            ExecMode::Recovering(rcfg) => fit_uoi_lasso_recovering(x, y, &self.cfg, rcfg),
            ExecMode::Dist(opts) => {
                opts.validate()?;
                validate_lasso_inputs(x, y, &self.cfg)?;
                let cluster = opts.cluster().with_telemetry(self.cfg.telemetry.clone());
                let report = cluster
                    .run(|ctx, world| fit_uoi_lasso_dist(ctx, world, x, y, &self.cfg, opts.layout));
                Ok(report
                    .results
                    .into_iter()
                    .next()
                    .expect("cluster with >= 1 rank returns a rank-0 result"))
            }
        }
    }

    /// Run the distributed fit body on an existing cluster rank.
    ///
    /// For harnesses that drive their own [`Cluster`] (fault plans,
    /// `modeled_ranks` extrapolation, custom telemetry): call this from
    /// inside the rank closure. Uses the [`ExecMode::Dist`] layout when
    /// that mode is selected, [`ParallelLayout::admm_only`] otherwise.
    #[allow(deprecated)]
    pub fn fit_on(&self, ctx: &mut RankCtx, world: &Comm, x: &Matrix, y: &[f64]) -> UoiFit {
        let layout = match &self.mode {
            ExecMode::Dist(opts) => opts.layout,
            _ => ParallelLayout::admm_only(),
        };
        fit_uoi_lasso_dist(ctx, world, x, y, &self.cfg, layout)
    }
}

/// One entry point for every `UoI_VAR` execution mode; the VAR twin of
/// [`UoiFitter`].
#[derive(Debug, Clone, Default)]
pub struct UoiVarFitter {
    cfg: UoiVarConfig,
    mode: ExecMode,
}

impl UoiVarFitter {
    /// Fitter over the given VAR configuration, in [`ExecMode::Serial`].
    pub fn new(cfg: UoiVarConfig) -> Self {
        Self {
            cfg,
            mode: ExecMode::Serial,
        }
    }

    /// Select the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// In-rank worker threads for the distributed fit's lockstep
    /// response-column rounds. Affects only the modeled wall-clock, never
    /// the numbers.
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.base.admm.threads = n;
        self
    }

    /// Override the thread count from `UOI_THREADS` when set (and `>= 1`).
    pub fn env_threads(mut self) -> Self {
        self.cfg.base.admm.threads = AdmmConfig::env_threads(self.cfg.base.admm.threads);
        self
    }

    /// The current VAR configuration.
    pub fn config(&self) -> &UoiVarConfig {
        &self.cfg
    }

    /// Mutable access for knobs without a dedicated builder method.
    pub fn config_mut(&mut self) -> &mut UoiVarConfig {
        &mut self.cfg
    }

    /// Run the fit in the selected mode; returns rank 0's result in
    /// [`ExecMode::Dist`].
    #[allow(deprecated)]
    pub fn fit(&self, series: &Matrix) -> Result<UoiVarFit, UoiError> {
        match &self.mode {
            ExecMode::Serial => crate::uoi_var::try_fit_uoi_var(series, &self.cfg),
            ExecMode::Recovering(rcfg) => fit_uoi_var_recovering(series, &self.cfg, rcfg),
            ExecMode::Dist(opts) => {
                opts.validate()?;
                validate_var_inputs(series, &self.cfg)?;
                let dist_cfg = self.dist_config(opts);
                let cluster = opts
                    .cluster()
                    .with_telemetry(self.cfg.base.telemetry.clone());
                let report =
                    cluster.run(|ctx, world| fit_uoi_var_dist(ctx, world, series, &dist_cfg).0);
                Ok(report
                    .results
                    .into_iter()
                    .next()
                    .expect("cluster with >= 1 rank returns a rank-0 result"))
            }
        }
    }

    /// Run the distributed fit body (with its Kron-read statistics) on an
    /// existing cluster rank; the VAR twin of [`UoiFitter::fit_on`].
    #[allow(deprecated)]
    pub fn fit_on(
        &self,
        ctx: &mut RankCtx,
        world: &Comm,
        series: &Matrix,
    ) -> (UoiVarFit, KronStats) {
        let opts = match &self.mode {
            ExecMode::Dist(opts) => opts.clone(),
            _ => DistOptions::default(),
        };
        fit_uoi_var_dist(ctx, world, series, &self.dist_config(&opts))
    }

    fn dist_config(&self, opts: &DistOptions) -> UoiVarDistConfig {
        UoiVarDistConfig {
            var: self.cfg.clone(),
            n_readers: opts.n_readers,
            layout: opts.layout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uoi_data::{LinearConfig, LinearDataset, VarConfig, VarProcess};

    fn lasso_cfg() -> UoiLassoConfig {
        UoiLassoConfig {
            b1: 3,
            b2: 3,
            q: 4,
            seed: 11,
            ..Default::default()
        }
    }

    fn dataset() -> LinearDataset {
        LinearConfig {
            n_samples: 40,
            n_features: 8,
            n_nonzero: 3,
            seed: 5,
            ..Default::default()
        }
        .generate()
    }

    fn var_series() -> Matrix {
        let proc = VarProcess::generate(&VarConfig {
            p: 4,
            seed: 3,
            ..Default::default()
        });
        proc.simulate(60, 50, 3)
    }

    #[test]
    #[allow(deprecated)]
    fn serial_mode_matches_legacy_entry_point() {
        let ds = dataset();
        let legacy = crate::uoi_lasso::fit_uoi_lasso(&ds.x, &ds.y, &lasso_cfg());
        let fit = UoiFitter::new(lasso_cfg()).fit(&ds.x, &ds.y).unwrap();
        assert_eq!(fit.support, legacy.support);
        for (a, b) in fit.beta.iter().zip(&legacy.beta) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dist_mode_matches_serial_statistics() {
        // The consensus solver is statistically (not bitwise) equivalent
        // to the serial path — same invariant the end-to-end suites pin.
        let ds = dataset();
        let serial = UoiFitter::new(lasso_cfg()).fit(&ds.x, &ds.y).unwrap();
        let dist = UoiFitter::new(lasso_cfg())
            .mode(ExecMode::Dist(DistOptions::default().ranks(3)))
            .fit(&ds.x, &ds.y)
            .unwrap();
        assert_eq!(dist.supports_per_lambda, serial.supports_per_lambda);
        for (a, b) in dist.beta.iter().zip(&serial.beta) {
            assert!((a - b).abs() < 5e-3, "serial {b} vs dist {a}");
        }
    }

    #[test]
    fn recovering_mode_fault_free_matches_serial() {
        let ds = dataset();
        let serial = UoiFitter::new(lasso_cfg()).fit(&ds.x, &ds.y).unwrap();
        let rec = UoiFitter::new(lasso_cfg())
            .mode(ExecMode::Recovering(RecoveryConfig {
                world: 3,
                ..Default::default()
            }))
            .fit(&ds.x, &ds.y)
            .unwrap();
        assert_eq!(rec.support, serial.support);
        for (a, b) in rec.beta.iter().zip(&serial.beta) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn threads_flow_into_admm_config() {
        let v = UoiVarFitter::new(UoiVarConfig::default()).threads(3);
        assert_eq!(v.config().base.admm.threads, 3);
    }

    #[test]
    fn threads_never_change_a_dist_lasso_fit() {
        // Only the VAR fit's lockstep rounds read `threads`; a distributed
        // UoI_LASSO fit must give the same bits and the same modeled
        // compute at any thread count. The other phases are compared to
        // round-off: one-sided serving order, which varies run to run,
        // sets the order their charges are summed in.
        let ds = dataset();
        let opts = DistOptions::default().ranks(3);
        let run = |threads: usize| {
            let mut cfg = lasso_cfg();
            cfg.admm = AdmmConfig {
                threads,
                ..cfg.admm
            };
            let fitter = UoiFitter::new(cfg).mode(ExecMode::Dist(opts.clone()));
            opts.cluster()
                .run(|ctx, world| fitter.fit_on(ctx, world, &ds.x, &ds.y))
        };
        let (one, four) = (run(1), run(4));
        for (a, b) in one.ledgers.iter().zip(&four.ledgers) {
            assert_eq!(a.compute.to_bits(), b.compute.to_bits());
            for (x, y) in [
                (a.comm, b.comm),
                (a.distribution, b.distribution),
                (a.io, b.io),
            ] {
                assert!((x - y).abs() <= 1e-12 * x.abs().max(1e-9), "{a:?} vs {b:?}");
            }
        }
        for (a, b) in one.results.iter().zip(&four.results) {
            assert_eq!(a.intercept.to_bits(), b.intercept.to_bits());
            for (va, vb) in a.beta.iter().zip(&b.beta) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn dist_options_validate() {
        let ds = dataset();
        let err = UoiFitter::new(lasso_cfg())
            .mode(ExecMode::Dist(DistOptions::default().ranks(0)))
            .fit(&ds.x, &ds.y)
            .unwrap_err();
        assert!(matches!(err, UoiError::InvalidConfig(_)));
        let bad = DistOptions::default().ranks(4).modeled_ranks(2);
        let err = UoiFitter::new(lasso_cfg())
            .mode(ExecMode::Dist(bad))
            .fit(&ds.x, &ds.y)
            .unwrap_err();
        assert!(matches!(err, UoiError::InvalidConfig(_)));
    }

    #[test]
    #[allow(deprecated)]
    fn var_serial_and_dist_modes_match_legacy() {
        let series = var_series();
        let cfg = UoiVarConfig {
            base: lasso_cfg(),
            ..Default::default()
        };
        let legacy = crate::uoi_var::fit_uoi_var(&series, &cfg);
        let fit = UoiVarFitter::new(cfg.clone()).fit(&series).unwrap();
        assert_eq!(fit.support_family, legacy.support_family);
        for (a, b) in fit.vec_beta.iter().zip(&legacy.vec_beta) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let dist = UoiVarFitter::new(cfg)
            .mode(ExecMode::Dist(DistOptions::default().ranks(3).n_readers(2)))
            .fit(&series)
            .unwrap();
        assert_eq!(dist.supports_per_lambda, legacy.supports_per_lambda);
        for (a, b) in dist.vec_beta.iter().zip(&legacy.vec_beta) {
            assert!((a - b).abs() < 5e-3, "serial {b} vs dist {a}");
        }
    }
}

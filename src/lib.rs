//! # uoi — Union of Intersections at (simulated) supercomputer scale
//!
//! Umbrella crate of the Rust reproduction of *"Scaling of Union of
//! Intersections for Inference of Granger Causal Networks from
//! Observational Data"* (IPDPS 2020). It re-exports the workspace crates
//! and hosts the runnable examples and cross-crate integration tests.
//!
//! ## The two algorithms
//!
//! * [`core::UoiFitter`] — `UoI_LASSO` (paper Algorithm 1): sparse
//!   linear regression with bootstrap-intersection selection and
//!   OLS-union estimation;
//! * [`core::UoiVarFitter`] — `UoI_VAR` (paper Algorithm 2): Granger-causal
//!   network inference for VAR(d) time series via the vectorised
//!   `vec Y = (I ⊗ X) vec B` rearrangement and block bootstrap.
//!
//! Both fitters also run distributed ([`core::ExecMode::Dist`]) on the
//! simulated cluster in [`mpisim`], reproducing the paper's 100k-core
//! scaling behaviour through a virtual-time machine model.
//!
//! ## Quick example
//!
//! ```
//! use uoi::core::{UoiFitter, UoiLassoConfig};
//! use uoi::data::LinearConfig;
//!
//! // A small synthetic problem with 4 active features out of 20.
//! let ds = LinearConfig {
//!     n_samples: 80,
//!     n_features: 20,
//!     n_nonzero: 4,
//!     snr: 10.0,
//!     seed: 7,
//!     ..Default::default()
//! }
//! .generate();
//!
//! let cfg = UoiLassoConfig { b1: 6, b2: 6, q: 10, ..Default::default() };
//! let fit = UoiFitter::new(cfg).fit(&ds.x, &ds.y).unwrap();
//!
//! // The union support contains few features, and every true feature
//! // should usually be recovered at this SNR.
//! assert!(fit.support.len() <= 10);
//! for &j in &fit.support {
//!     assert!(j < 20);
//! }
//! ```
//!
//! ## Simulated scaling in three lines
//!
//! ```
//! use uoi::mpisim::{Cluster, MachineModel};
//!
//! let report = Cluster::new(4, MachineModel::deterministic())
//!     .modeled_ranks(17_408) // a Cori-scale Table I row
//!     .run(|ctx, world| {
//!         let mut v = vec![world.rank() as f64; 128];
//!         world.allreduce_sum(ctx, &mut v);
//!         v[0]
//!     });
//! assert_eq!(report.results[0], 0.0 + 1.0 + 2.0 + 3.0);
//! assert!(report.phase_max().comm > 0.0); // costed at 17,408 ranks
//! ```

#![forbid(unsafe_code)]

pub use uoi_core as core;
pub use uoi_data as data;
pub use uoi_linalg as linalg;
pub use uoi_mpisim as mpisim;
pub use uoi_solvers as solvers;
pub use uoi_telemetry as telemetry;
pub use uoi_tieredio as tieredio;

/// Everything a typical caller needs in one import:
///
/// ```
/// use uoi::prelude::*;
///
/// let ds = LinearConfig { n_samples: 60, n_features: 12, n_nonzero: 3, ..Default::default() }
///     .generate();
/// let cfg = UoiLassoConfig::builder().b1(4).b2(4).q(6).build().unwrap();
/// let fit = UoiFitter::new(cfg).fit(&ds.x, &ds.y).unwrap();
/// assert!(fit.support.len() <= 12);
/// ```
///
/// Covers the fitters, their validated config builders, the error type,
/// the simulated cluster, the synthetic data generators, the vectorised
/// [`kernels`](uoi_linalg::kernels) module, and the telemetry types (tracing sinks, metrics
/// registry, run reports).
pub mod prelude {
    pub use uoi_core::{
        DistOptions, ExecMode, ParallelLayout, RecoveryConfig, SelectionCounts, UoiError,
        UoiFitter, UoiLassoConfig, UoiLassoConfigBuilder, UoiVarConfig, UoiVarConfigBuilder,
        UoiVarFitter,
    };
    pub use uoi_data::{FinanceConfig, LinearConfig, NeuroConfig, VarConfig, VarProcess};
    pub use uoi_linalg::{kernels, Matrix};
    pub use uoi_mpisim::{Cluster, MachineModel, Phase, PhaseLedger, SimReport};
    pub use uoi_solvers::{AdmmConfig, AdmmConfigBuilder, InvalidConfig, LassoAdmm};
    pub use uoi_telemetry::{
        JsonlSink, MemorySink, MetricsRegistry, RunReport, RunSummary, Telemetry, TraceEvent,
        TraceSink,
    };
}

//! # uoi-core
//!
//! The paper's primary contribution: **Union of Intersections** for sparse
//! linear regression (`UoI_LASSO`, Algorithm 1) and Granger-causal VAR
//! inference (`UoI_VAR`, Algorithm 2), in shared-memory (rayon) and
//! distributed (simulated-MPI) forms.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

pub mod degraded;
mod engine;
pub mod error;
pub mod fitter;
pub mod granger;
pub mod metrics;
pub mod numerical;
pub mod parallelism;
pub mod recovery;
pub mod speculation;
pub mod support;
pub mod uoi_lasso;
mod uoi_lasso_dist;
pub mod uoi_var;
pub mod uoi_var_dist;
pub mod var_matrices;

pub use degraded::{
    BootstrapFaultPlan, CheckpointConfig, CheckpointStore, DegradationConfig, DegradationReport,
};
pub use error::UoiError;
pub use fitter::{DistOptions, ExecMode, UoiFitter, UoiVarFitter};
pub use granger::{Edge, GrangerNetwork};
pub use metrics::{estimation_error, EstimationError, SelectionCounts};
pub use numerical::{NumericalConfig, NumericalLedger};
pub use parallelism::{LayoutComms, ParallelLayout};
pub use recovery::{
    degraded_fallback_plan, RecoveryConfig, RecoveryReport, TaskOwnership, UOI_RECOVERY_ENV,
};
pub use speculation::{SpeculationConfig, SpeculationReport, StageHedging, UOI_SPECULATE_ENV};
pub use uoi_lasso::{bic, EstimationScore, UoiFit, UoiLassoConfig, UoiLassoConfigBuilder};
pub use uoi_var::{select_var_order, UoiVarConfig, UoiVarConfigBuilder, UoiVarFit};
pub use uoi_var_dist::KronStats;
pub use var_matrices::{flatten_coefficients, partition_coefficients, VarRegression};

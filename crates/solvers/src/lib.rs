//! # uoi-solvers
//!
//! The constrained-convex-optimisation layer of the UoI workspace
//! (paper §II-C):
//!
//! * [`admm::LassoAdmm`] — serial LASSO-ADMM with warm-started,
//!   strong-rule screened lambda paths on active-set factors, a lazily
//!   cached full Cholesky / Woodbury factorisation for single-lambda
//!   solves, and OLS via `lambda = 0`;
//! * [`admm_dist::DistLassoAdmm`] — consensus ADMM with row-wise sample
//!   splitting over a simulated communicator (the paper's
//!   `MPI_Allreduce`-dominated solver), its lambda paths screened by the
//!   serial solver's strong rule run on the allreduced gradient;
//! * [`cd`] — cyclic coordinate descent for LASSO and MCP, plus ridge:
//!   the statistical baselines and independent test oracles;
//! * [`ols`] — support-restricted OLS for the UoI estimation step;
//! * [`lambda`] — regularisation-path construction;
//! * [`prox`] — soft-threshold / MCP proximal maps;
//! * [`diagnostics`] — KKT-based optimality certificates used in tests.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

pub mod admm;
pub mod admm_dist;
pub mod cd;
pub mod diagnostics;
pub mod lambda;
pub mod ols;
pub mod prox;
pub mod resilience;

pub use admm::{
    admm_active_iter_flops, admm_factor_flops, admm_iter_flops, admm_sub_factor_flops,
    lockstep_round_charges, tripped, AdmmConfig, AdmmConfigBuilder, AdmmSolution, AdmmState,
    AdmmStatus, AdmmWorkspace, InvalidConfig, LassoAdmm, StepTask, PATH_VARIANT,
};
pub use admm_dist::DistLassoAdmm;
pub use cd::{lasso_cd, lasso_cd_warm, mcp_cd, ridge, scad_cd, CdConfig};
pub use diagnostics::{lasso_kkt_violation, lasso_objective, ols_gradient_norm};
pub use lambda::{geometric_grid, lambda_max, lambda_path};
pub use ols::{
    ols_on_support, ols_on_support_gram, ols_on_support_gram_health, sub_system, support_of,
};
pub use prox::{mcp_threshold, scad_threshold, soft_threshold, soft_threshold_vec};
pub use resilience::{
    rho_restarts, FactorHealth, PathHealth, ResilienceConfig, ResilientLasso, SolverError,
    DEFAULT_DIVERGENCE_CAP, DEFAULT_MAX_RHO_RESTARTS,
};

//! # uoi-linalg
//!
//! Dense and sparse linear-algebra kernels for the UoI workspace — the
//! substrate the reference implementation obtained from Eigen3 and Intel
//! MKL (paper §IV). The solvers only require a narrow BLAS surface:
//!
//! * [`dense::Matrix`] — row-major dense matrices with the bootstrap /
//!   support gather operations the UoI maps use;
//! * [`blas`] — dot/axpy, `gemv`/`gemv_t`, a blocked rayon-parallel `gemm`,
//!   and `syrk_t` for Gram matrices;
//! * [`kernels`] — the explicitly lane-unrolled inner-loop kernels of the
//!   ADMM hot path (dot, axpy, add, soft-threshold, blocked `symv`) with
//!   one coherent naming scheme; `blas::dot`/`blas::axpy` delegate here;
//! * [`chol`] — Cholesky factorisation with cached solves (the ADMM
//!   x-update) and regularised normal equations;
//! * [`sparse::CsrMatrix`] — CSR kernels for the block-diagonal `UoI_VAR`
//!   path (the paper's Eigen-Sparse substitute);
//! * [`kron::IdentityKron`] — the matrix-free `I ⊗ X` operator of eq. 9,
//!   with its explicit CSR form and the `I ⊗ (X^T X)` Gram identity;
//! * [`eig`] — companion-matrix spectral radius for the VAR stability
//!   constraint of eq. 6.

// Numeric kernels index by position on purpose: the loops mirror the
// textbook algorithms (Cholesky, Householder, blocked gemm) and iterator
// rewrites obscure the math without changing the codegen.
#![allow(clippy::needless_range_loop)]

pub mod blas;
pub mod chol;
pub mod dense;
pub mod eig;
pub mod gram;
pub mod kernels;
pub mod kron;
pub mod qr;
pub mod resilience;
pub mod sparse;
pub mod testgen;

pub use blas::{
    axpy, dot, gemm, gemv, gemv_into, gemv_t, gemv_t_into, gemv_t_weighted, mse, mse_into, norm1,
    norm2, norm2_diff, norm2_scaled, norm2_scaled_diff, norm_inf, r_squared, r_squared_into,
    syrk_t, syrk_t_weighted, weighted_sumsq,
};
pub use chol::{solve_normal_equations, solve_spd, Cholesky, NotPositiveDefinite, PackedCholesky};
pub use dense::Matrix;
pub use eig::{companion_matrix, spectral_radius, var_is_stable};
pub use gram::{
    gemv_t_weighted_multi, gram_batch, gram_rhs_batch, syrk_t_upper, syrk_t_weighted_batch,
    syrk_t_weighted_upper, UpperGram,
};
pub use kron::{kron_dense, IdentityKron};
pub use qr::{qr_least_squares, Qr};
pub use resilience::{
    condest_1norm, factor_jittered, factor_upper_jittered, sym_norm1_upper, FactorBreakdown,
    JitterLadder, JitteredFactor, JITTER_GROWTH, JITTER_MAX_ATTEMPTS,
};
pub use sparse::CsrMatrix;

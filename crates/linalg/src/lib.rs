//! # uoi-linalg
//!
//! Dense linear-algebra kernels for the UoI workspace — the
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
//! * [`qr`] — Householder least squares for the estimation step's
//!   collinear supports;
//! * [`kron::IdentityKron`] — the matrix-free `I ⊗ X` operator of eq. 9
//!   and the `I ⊗ (X^T X)` Gram identity; the block-diagonal `UoI_VAR`
//!   design is never formed explicitly;
//! * [`eig`] — companion-matrix spectral radius for the VAR stability
//!   constraint of eq. 6.

// Numeric kernels index by position on purpose: the loops mirror the
// textbook algorithms (Cholesky, Householder, blocked gemm) and iterator
// rewrites obscure the math without changing the codegen.
#![allow(clippy::needless_range_loop)]
// The only `unsafe` in the library crates: the Gram engine's runtime ISA
// dispatch (`gram::band_body`) and its intrinsic register tiles
// (`gram::x86`). Every other library crate forbids it.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod blas;
pub mod chol;
pub mod dense;
pub mod eig;
pub mod gram;
pub mod kernels;
pub mod kron;
pub mod qr;
pub mod resilience;
pub mod testgen;

pub use blas::{
    axpy, dot, gemm, gemv, gemv_into, gemv_t, gemv_t_into, gemv_t_weighted, mse, mse_into, norm1,
    norm2, norm2_diff, norm2_scaled, norm2_scaled_diff, norm_inf, r_squared, r_squared_into,
    syrk_t, syrk_t_weighted, weighted_sumsq,
};
pub use chol::{solve_normal_equations, Cholesky, NotPositiveDefinite, PackedCholesky};
pub use dense::Matrix;
pub use eig::{companion_matrix, spectral_radius};
pub use gram::{
    gemv_t_weighted_multi, gram_batch, gram_rhs_batch, syrk_t_upper, syrk_t_weighted_batch,
    syrk_t_weighted_upper, UpperGram,
};
pub use kron::IdentityKron;
pub use qr::qr_least_squares;
pub use resilience::{
    factor_jittered, factor_upper_jittered, FactorBreakdown, JitterLadder, JitteredFactor,
    JITTER_GROWTH, JITTER_MAX_ATTEMPTS,
};

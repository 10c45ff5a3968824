//! Coordinate-descent solvers: the plain-LASSO statistical baseline the
//! paper's UoI methods are compared against, and the MCP non-convex
//! baseline (§I cites the \[11\] comparison against LASSO and MCP).
//!
//! These are reference solvers: simple, sequential, covariance-update
//! coordinate descent. They double as independent oracles for the ADMM
//! implementation in tests.

use crate::prox::{mcp_threshold, scad_threshold, soft_threshold};
use uoi_linalg::{dot, Matrix};

/// Coordinate-descent stopping parameters.
#[derive(Debug, Clone)]
pub struct CdConfig {
    /// Full-sweep cap.
    pub max_sweeps: usize,
    /// Stop when the largest coefficient change in a sweep drops below
    /// this.
    pub tol: f64,
}

impl Default for CdConfig {
    fn default() -> Self {
        Self {
            max_sweeps: 1000,
            tol: 1e-8,
        }
    }
}

/// LASSO by cyclic coordinate descent on
/// `1/2 ||y - X b||^2 + lambda ||b||_1`.
pub fn lasso_cd(x: &Matrix, y: &[f64], lambda: f64, cfg: &CdConfig) -> Vec<f64> {
    lasso_cd_warm(x, y, lambda, vec![0.0; x.cols()], cfg)
}

/// Warm-started variant.
pub fn lasso_cd_warm(
    x: &Matrix,
    y: &[f64],
    lambda: f64,
    mut beta: Vec<f64>,
    cfg: &CdConfig,
) -> Vec<f64> {
    let (n, p) = x.shape();
    assert_eq!(y.len(), n);
    assert_eq!(beta.len(), p);
    // Column norms and residual maintenance.
    let cols: Vec<Vec<f64>> = (0..p).map(|j| x.col(j)).collect();
    let col_sq: Vec<f64> = cols.iter().map(|c| dot(c, c)).collect();
    let mut resid: Vec<f64> = {
        let mut r = y.to_vec();
        for (j, c) in cols.iter().enumerate() {
            if beta[j] != 0.0 {
                for (ri, ci) in r.iter_mut().zip(c) {
                    *ri -= beta[j] * ci;
                }
            }
        }
        r
    };
    for _ in 0..cfg.max_sweeps {
        let mut max_delta = 0.0_f64;
        for j in 0..p {
            if col_sq[j] == 0.0 {
                continue;
            }
            let old = beta[j];
            // Partial residual correlation.
            let rho_j = dot(&cols[j], &resid) + col_sq[j] * old;
            let new = soft_threshold(rho_j, lambda) / col_sq[j];
            if new != old {
                let delta = new - old;
                for (ri, ci) in resid.iter_mut().zip(&cols[j]) {
                    *ri -= delta * ci;
                }
                beta[j] = new;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if max_delta < cfg.tol {
            break;
        }
    }
    beta
}

/// MCP-penalised regression by cyclic coordinate descent
/// (`gamma`-concavity; `gamma -> inf` recovers the LASSO).
pub fn mcp_cd(x: &Matrix, y: &[f64], lambda: f64, gamma: f64, cfg: &CdConfig) -> Vec<f64> {
    let (n, p) = x.shape();
    assert_eq!(y.len(), n);
    assert!(gamma > 1.0);
    let cols: Vec<Vec<f64>> = (0..p).map(|j| x.col(j)).collect();
    let col_sq: Vec<f64> = cols.iter().map(|c| dot(c, c)).collect();
    let mut beta = vec![0.0; p];
    let mut resid = y.to_vec();
    for _ in 0..cfg.max_sweeps {
        let mut max_delta = 0.0_f64;
        for j in 0..p {
            if col_sq[j] == 0.0 {
                continue;
            }
            let old = beta[j];
            let rho_j = dot(&cols[j], &resid) + col_sq[j] * old;
            // Normalised form: z = rho_j / col_sq, thresholds scaled.
            let z = rho_j / col_sq[j];
            let lam = lambda / col_sq[j];
            let new = mcp_threshold(z, lam, gamma);
            if new != old {
                let delta = new - old;
                for (ri, ci) in resid.iter_mut().zip(&cols[j]) {
                    *ri -= delta * ci;
                }
                beta[j] = new;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if max_delta < cfg.tol {
            break;
        }
    }
    beta
}

/// SCAD-penalised regression by cyclic coordinate descent
/// (`gamma > 2`; Fan & Li's recommended `gamma = 3.7`).
pub fn scad_cd(x: &Matrix, y: &[f64], lambda: f64, gamma: f64, cfg: &CdConfig) -> Vec<f64> {
    let (n, p) = x.shape();
    assert_eq!(y.len(), n);
    assert!(gamma > 2.0);
    let cols: Vec<Vec<f64>> = (0..p).map(|j| x.col(j)).collect();
    let col_sq: Vec<f64> = cols.iter().map(|c| dot(c, c)).collect();
    let mut beta = vec![0.0; p];
    let mut resid = y.to_vec();
    for _ in 0..cfg.max_sweeps {
        let mut max_delta = 0.0_f64;
        for j in 0..p {
            if col_sq[j] == 0.0 {
                continue;
            }
            let old = beta[j];
            let rho_j = dot(&cols[j], &resid) + col_sq[j] * old;
            let z = rho_j / col_sq[j];
            let lam = lambda / col_sq[j];
            let new = scad_threshold(z, lam, gamma);
            if new != old {
                let delta = new - old;
                for (ri, ci) in resid.iter_mut().zip(&cols[j]) {
                    *ri -= delta * ci;
                }
                beta[j] = new;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if max_delta < cfg.tol {
            break;
        }
    }
    beta
}

/// Ridge regression closed form: `(X^T X + alpha I)^{-1} X^T y`.
pub fn ridge(x: &Matrix, y: &[f64], alpha: f64) -> Vec<f64> {
    uoi_linalg::solve_normal_equations(x, y, alpha).expect("ridge system must be SPD for alpha > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::lasso_kkt_violation;

    fn toy() -> (Matrix, Vec<f64>) {
        let n = 30;
        let p = 8;
        let x = Matrix::from_fn(n, p, |i, j| {
            (((i * 131 + j * 37) % 101) as f64 - 50.0) / 50.0
        });
        let y: Vec<f64> = (0..n).map(|i| 1.5 * x[(i, 1)] - 2.0 * x[(i, 5)]).collect();
        (x, y)
    }

    #[test]
    fn cd_satisfies_kkt() {
        let (x, y) = toy();
        let lam = 0.4;
        let beta = lasso_cd(&x, &y, lam, &CdConfig::default());
        assert!(lasso_kkt_violation(&x, &y, &beta, lam) < 1e-6);
    }

    #[test]
    fn cd_matches_admm() {
        let (x, y) = toy();
        let lam = 0.8;
        let beta_cd = lasso_cd(&x, &y, lam, &CdConfig::default());
        let xty = uoi_linalg::gemv_t(&x, &y);
        let admm = crate::admm::LassoAdmm::new(
            x,
            crate::admm::AdmmConfig {
                max_iter: 8000,
                abstol: 1e-10,
                reltol: 1e-9,
                ..Default::default()
            },
        );
        let beta_admm = admm.solve_path_with_rhs(&xty, &[lam])[0].beta.clone();
        for (a, b) in beta_cd.iter().zip(&beta_admm) {
            assert!((a - b).abs() < 1e-4, "cd {a} vs admm {b}");
        }
    }

    #[test]
    fn cd_zero_lambda_is_least_squares() {
        let (x, y) = toy();
        let beta = lasso_cd(
            &x,
            &y,
            0.0,
            &CdConfig {
                max_sweeps: 5000,
                tol: 1e-12,
            },
        );
        assert!(crate::diagnostics::ols_gradient_norm(&x, &y, &beta) < 1e-6);
    }

    #[test]
    fn mcp_less_biased_than_lasso() {
        let (x, y) = toy();
        let lam = 1.0;
        let b_lasso = lasso_cd(&x, &y, lam, &CdConfig::default());
        let b_mcp = mcp_cd(&x, &y, lam, 3.0, &CdConfig::default());
        // Both should select features 1 and 5; MCP estimates should be
        // closer to the truth (1.5, -2.0) in magnitude.
        let err = |b: &[f64]| (b[1] - 1.5).abs() + (b[5] + 2.0).abs();
        assert!(
            err(&b_mcp) <= err(&b_lasso) + 1e-9,
            "mcp {:?} vs lasso {:?}",
            (b_mcp[1], b_mcp[5]),
            (b_lasso[1], b_lasso[5])
        );
    }

    #[test]
    fn mcp_large_gamma_approaches_lasso() {
        let (x, y) = toy();
        let lam = 0.5;
        let b_lasso = lasso_cd(&x, &y, lam, &CdConfig::default());
        let b_mcp = mcp_cd(&x, &y, lam, 1e6, &CdConfig::default());
        for (a, b) in b_mcp.iter().zip(&b_lasso) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn scad_less_biased_than_lasso() {
        let (x, y) = toy();
        let lam = 1.0;
        let b_lasso = lasso_cd(&x, &y, lam, &CdConfig::default());
        let b_scad = scad_cd(&x, &y, lam, 3.7, &CdConfig::default());
        let err = |b: &[f64]| (b[1] - 1.5).abs() + (b[5] + 2.0).abs();
        assert!(
            err(&b_scad) <= err(&b_lasso) + 1e-9,
            "scad {:?} vs lasso {:?}",
            (b_scad[1], b_scad[5]),
            (b_lasso[1], b_lasso[5])
        );
    }

    #[test]
    fn scad_large_gamma_near_lasso_inside() {
        // For |z| <= 2 lambda SCAD equals the LASSO regardless of gamma.
        let (x, y) = toy();
        let lam = uoi_linalg::norm_inf(&uoi_linalg::gemv_t(&x, &y)) * 0.9;
        let b_lasso = lasso_cd(&x, &y, lam, &CdConfig::default());
        let b_scad = scad_cd(&x, &y, lam, 3.7, &CdConfig::default());
        for (a, b) in b_scad.iter().zip(&b_lasso) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn ridge_shrinks_but_keeps_all() {
        let (x, y) = toy();
        let b0 = ridge(&x, &y, 1e-9);
        let b_big = ridge(&x, &y, 1e4);
        let l2 = |b: &[f64]| b.iter().map(|v| v * v).sum::<f64>();
        assert!(l2(&b_big) < l2(&b0) * 0.1, "ridge must shrink");
        // Ridge never produces exact zeros on generic data.
        assert!(b_big.iter().filter(|v| v.abs() > 1e-12).count() >= 7);
    }

    #[test]
    fn constant_zero_column_stays_zero() {
        let mut x = Matrix::from_fn(10, 3, |i, j| (i + j) as f64);
        for i in 0..10 {
            x[(i, 1)] = 0.0;
        }
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let beta = lasso_cd(&x, &y, 0.1, &CdConfig::default());
        assert_eq!(beta[1], 0.0);
    }
}

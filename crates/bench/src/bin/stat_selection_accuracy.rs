//! Statistical validation: the §I claims behind UoI — "low false
//! positives and low false negatives" selection with "low-bias,
//! low-variance" estimation, versus LASSO (cross-validated), MCP, and
//! ridge — on synthetic linear and VAR families with known ground truth.
//!
//! This reproduces the comparison the paper inherits from \[10\]/\[11\]:
//! UoI should match or beat LASSO's recall while cutting its false
//! positives, and its OLS-averaged estimates should show far less
//! shrinkage bias.

use std::sync::Arc;
use uoi_bench::{emit_run_report, quick_mode, Table};
use uoi_core::uoi_lasso::UoiLassoConfig;
use uoi_core::uoi_var::UoiVarConfig;
use uoi_core::{estimation_error, SelectionCounts, UoiFitter, UoiVarFitter};
use uoi_data::{LinearConfig, VarConfig, VarProcess};
use uoi_solvers::{lasso_cd, mcp_cd, ridge, support_of, AdmmConfig, CdConfig};
use uoi_telemetry::{MetricsRegistry, Telemetry};

fn main() {
    let trials = if quick_mode() { 3 } else { 6 };
    linear_comparison(trials);
    var_comparison(trials);
}

fn linear_comparison(trials: usize) {
    let p = 40;
    let metrics = Arc::new(MetricsRegistry::new());
    let mut rows: Vec<(&str, f64, f64, f64, f64)> = vec![
        ("UoI_LASSO", 0.0, 0.0, 0.0, 0.0),
        ("LASSO (CV)", 0.0, 0.0, 0.0, 0.0),
        ("MCP", 0.0, 0.0, 0.0, 0.0),
        ("Ridge", 0.0, 0.0, 0.0, 0.0),
    ];
    for trial in 0..trials {
        let ds = LinearConfig {
            n_samples: 150,
            n_features: p,
            n_nonzero: 8,
            snr: 6.0,
            seed: 100 + trial as u64,
            ..Default::default()
        }
        .generate();

        // UoI.
        let uoi = UoiFitter::new(UoiLassoConfig {
            b1: 10,
            b2: 10,
            q: 16,
            lambda_min_ratio: 2e-2,
            admm: AdmmConfig {
                max_iter: 800,
                ..Default::default()
            },
            support_tol: 1e-7,
            seed: trial as u64,
            telemetry: Telemetry::with_metrics(metrics.clone()),
            ..Default::default()
        })
        .fit(&ds.x, &ds.y)
        .expect("UoI_LASSO fit");
        // LASSO with a small held-out lambda selection (the standard
        // practical baseline).
        let beta_lasso = lasso_cv(&ds.x, &ds.y);
        // MCP at a fixed sensible lambda, gamma = 3.
        let lam = uoi_solvers::lambda_max(&ds.x, &ds.y) * 0.05;
        let beta_mcp = mcp_cd(&ds.x, &ds.y, lam, 3.0, &CdConfig::default());
        let beta_ridge = ridge(&ds.x, &ds.y, 1.0);

        for (row, beta) in rows
            .iter_mut()
            .zip([uoi.beta.clone(), beta_lasso, beta_mcp, beta_ridge])
        {
            let support = support_of(&beta, 1e-6);
            let c = SelectionCounts::compare(&support, &ds.support_true, p);
            let e = estimation_error(&beta, &ds.beta_true);
            row.1 += c.false_positives as f64;
            row.2 += c.false_negatives as f64;
            row.3 += c.f1();
            row.4 += e.support_bias;
        }
    }
    let mut t = Table::new(
        &format!("Selection accuracy — sparse linear model ({trials} trials, p=40, s=8)"),
        &["method", "false pos", "false neg", "F1", "support bias"],
    );
    for (name, fp, fneg, f1, bias) in &rows {
        t.row(&[
            name.to_string(),
            format!("{:.1}", fp / trials as f64),
            format!("{:.1}", fneg / trials as f64),
            format!("{:.3}", f1 / trials as f64),
            format!("{:+.3}", bias / trials as f64),
        ]);
    }
    t.emit("stat_linear_accuracy");
    emit_run_report(
        &t.run_report("stat_linear_accuracy")
            .param("trials", trials)
            .with_metrics(metrics.snapshot()),
    );
    println!(
        "claim check: UoI_LASSO should show the LASSO's recall with far fewer false\n\
         positives and near-zero bias (OLS-averaged estimates vs LASSO shrinkage).\n"
    );
}

fn var_comparison(trials: usize) {
    let p = 12;
    let metrics = Arc::new(MetricsRegistry::new());
    let mut rows: Vec<(&str, f64, f64, f64)> = vec![
        ("UoI_VAR", 0.0, 0.0, 0.0),
        ("LASSO-VAR", 0.0, 0.0, 0.0),
        ("MCP-VAR", 0.0, 0.0, 0.0),
    ];
    for trial in 0..trials {
        let proc = VarProcess::generate(&VarConfig {
            p,
            order: 1,
            density: 0.12,
            target_radius: 0.65,
            noise_std: 1.0,
            seed: 300 + trial as u64,
        });
        let series = proc.simulate(700, 100, 400 + trial as u64);
        let truth: Vec<usize> = {
            let v = uoi_core::flatten_coefficients(&proc.coeffs);
            v.iter()
                .enumerate()
                .filter(|(_, x)| x.abs() > 0.0)
                .map(|(i, _)| i)
                .collect()
        };
        // UoI_VAR.
        let fit = UoiVarFitter::new(UoiVarConfig {
            order: 1,
            block_len: None,
            base: UoiLassoConfig {
                b1: 8,
                b2: 6,
                q: 12,
                lambda_min_ratio: 2e-2,
                admm: AdmmConfig {
                    max_iter: 600,
                    ..Default::default()
                },
                support_tol: 1e-7,
                seed: trial as u64,
                telemetry: Telemetry::with_metrics(metrics.clone()),
                ..Default::default()
            },
        })
        .fit(&series)
        .expect("UoI_VAR fit");
        // Plain LASSO / MCP per-column on the lag regression at a fixed
        // moderate lambda (ratio chosen generously for the baselines).
        let reg = uoi_core::VarRegression::build(&series, 1);
        let mut lasso_vec = vec![0.0; p * p];
        let mut mcp_vec = vec![0.0; p * p];
        for i in 0..p {
            let yi = reg.y.col(i);
            let lam = uoi_solvers::lambda_max(&reg.x, &yi) * 0.05;
            let bl = lasso_cd(&reg.x, &yi, lam, &CdConfig::default());
            let bm = mcp_cd(&reg.x, &yi, lam, 3.0, &CdConfig::default());
            lasso_vec[i * p..(i + 1) * p].copy_from_slice(&bl);
            mcp_vec[i * p..(i + 1) * p].copy_from_slice(&bm);
        }

        for (row, vecb) in rows.iter_mut().zip([&fit.vec_beta, &lasso_vec, &mcp_vec]) {
            let support = support_of(vecb, 1e-6);
            let c = SelectionCounts::compare(&support, &truth, p * p);
            row.1 += c.false_positives as f64;
            row.2 += c.false_negatives as f64;
            row.3 += c.f1();
        }
    }
    let mut t = Table::new(
        &format!("Selection accuracy — VAR(1) network recovery ({trials} trials, p=12)"),
        &["method", "false pos", "false neg", "F1"],
    );
    for (name, fp, fneg, f1) in &rows {
        t.row(&[
            name.to_string(),
            format!("{:.1}", fp / trials as f64),
            format!("{:.1}", fneg / trials as f64),
            format!("{:.3}", f1 / trials as f64),
        ]);
    }
    t.emit("stat_var_accuracy");
    emit_run_report(
        &t.run_report("stat_var_accuracy")
            .param("trials", trials)
            .with_metrics(metrics.snapshot()),
    );
    println!(
        "claim check: UoI_VAR's intersection suppresses the baselines' false positives at\n\
         comparable recall — the \"superior selection accuracy\" of §I / ref [11]."
    );
}

/// A small 80/20 cross-validated LASSO baseline over a lambda grid.
fn lasso_cv(x: &uoi_linalg::Matrix, y: &[f64]) -> Vec<f64> {
    let n = x.rows();
    let cut = n * 4 / 5;
    let train_idx: Vec<usize> = (0..cut).collect();
    let eval_idx: Vec<usize> = (cut..n).collect();
    let xt = x.gather_rows(&train_idx);
    let yt: Vec<f64> = train_idx.iter().map(|&i| y[i]).collect();
    let xe = x.gather_rows(&eval_idx);
    let ye: Vec<f64> = eval_idx.iter().map(|&i| y[i]).collect();
    let lmax = uoi_solvers::lambda_max(&xt, &yt);
    let grid = uoi_solvers::geometric_grid(lmax, 1e-3 * lmax, 20);
    let mut best: Option<(f64, f64)> = None;
    for &lam in &grid {
        let beta = lasso_cd(&xt, &yt, lam, &CdConfig::default());
        let loss = uoi_linalg::mse(&xe, &beta, &ye);
        if best.is_none_or(|(l, _)| loss < l) {
            best = Some((loss, lam));
        }
    }
    let lam = best.map(|(_, l)| l).unwrap_or(lmax * 0.1);
    lasso_cd(x, y, lam, &CdConfig::default())
}

//! Numerical-resilience acceptance matrix (ISSUE 10).
//!
//! * Clean-input invariance: arming the guards must not change a single
//!   bit of the fitted coefficients, and the attached health report must
//!   read clean.
//! * Adversarial matrix: duplicated columns with `p > n`, constant
//!   features, 1e12 scale disparity, and injected NaN/Inf all complete
//!   under [`NumericalConfig::guarded`] across the serial, distributed,
//!   and recovering pipelines, with byte-identical health reports
//!   across reruns.

// Pins the deprecated free-function fit surface deliberately; new code
// uses `UoiFitter`/`UoiVarFitter` (see crates/core/src/fitter.rs).
#![allow(deprecated)]

use uoi_core::{
    fit_uoi_lasso_dist, try_fit_uoi_lasso, try_fit_uoi_var, NumericalConfig, ParallelLayout,
    RecoveryConfig, UoiError, UoiLassoConfig, UoiVarConfig,
};
use uoi_data::{LinearConfig, ValidationPolicy, VarConfig, VarProcess};
use uoi_linalg::Matrix;
use uoi_mpisim::{Cluster, MachineModel};
use uoi_solvers::AdmmConfig;

fn lasso_cfg() -> UoiLassoConfig {
    UoiLassoConfig {
        b1: 6,
        b2: 6,
        q: 8,
        lambda_min_ratio: 3e-2,
        admm: AdmmConfig {
            max_iter: 1500,
            abstol: 1e-8,
            reltol: 1e-7,
            ..Default::default()
        },
        support_tol: 1e-6,
        seed: 13,
        ..Default::default()
    }
}

fn clean_dataset() -> uoi_data::LinearDataset {
    LinearConfig {
        n_samples: 96,
        n_features: 16,
        n_nonzero: 4,
        snr: 12.0,
        seed: 29,
        ..Default::default()
    }
    .generate()
}

/// `p > n` design whose right half bitwise-duplicates its left half —
/// the Gram is exactly rank-deficient, so every unguarded factorisation
/// would break down.
fn duplicated_columns_p_gt_n() -> (Matrix, Vec<f64>) {
    let ds = LinearConfig {
        n_samples: 12,
        n_features: 12,
        n_nonzero: 3,
        snr: 8.0,
        seed: 5,
        ..Default::default()
    }
    .generate();
    let (n, p) = ds.x.shape();
    let mut x = Matrix::zeros(n, 2 * p);
    for i in 0..n {
        for j in 0..p {
            x[(i, j)] = ds.x[(i, j)];
            x[(i, p + j)] = ds.x[(i, j)];
        }
    }
    (x, ds.y)
}

/// Three exactly-constant features (one of them all-zero).
fn constant_features() -> (Matrix, Vec<f64>) {
    let ds = clean_dataset();
    let mut x = ds.x;
    let (n, _) = x.shape();
    for i in 0..n {
        x[(i, 2)] = 1.0;
        x[(i, 7)] = -3.5;
        x[(i, 11)] = 0.0;
    }
    (x, ds.y)
}

/// Column scales spanning 24 orders of magnitude.
fn scale_disparity() -> (Matrix, Vec<f64>) {
    let ds = clean_dataset();
    let mut x = ds.x;
    let (n, _) = x.shape();
    for i in 0..n {
        x[(i, 0)] *= 1e12;
        x[(i, 1)] *= 1e-12;
    }
    (x, ds.y)
}

/// NaN and infinities sprinkled over the design and response.
fn corrupted_cells() -> (Matrix, Vec<f64>) {
    let ds = clean_dataset();
    let mut x = ds.x;
    let mut y = ds.y;
    x[(3, 4)] = f64::NAN;
    x[(10, 0)] = f64::INFINITY;
    x[(40, 9)] = f64::NEG_INFINITY;
    y[17] = f64::NAN;
    (x, y)
}

fn adversarial_matrix() -> Vec<(&'static str, Matrix, Vec<f64>)> {
    let (xd, yd) = duplicated_columns_p_gt_n();
    let (xc, yc) = constant_features();
    let (xs, ys) = scale_disparity();
    let (xn, yn) = corrupted_cells();
    vec![
        ("dup_columns", xd, yd),
        ("const_features", xc, yc),
        ("scale_disparity", xs, ys),
        ("nan_inf", xn, yn),
    ]
}

/// Arming the full guard stack on a clean, well-conditioned problem
/// must not change a single coefficient bit, and the report must say
/// so.
#[test]
fn clean_input_guarded_fit_is_bit_identical() {
    let ds = clean_dataset();
    let plain = try_fit_uoi_lasso(&ds.x, &ds.y, &lasso_cfg()).unwrap();
    let mut gcfg = lasso_cfg();
    gcfg.numerical = NumericalConfig::guarded();
    let guarded = try_fit_uoi_lasso(&ds.x, &ds.y, &gcfg).unwrap();

    assert!(
        plain.numerical.is_none(),
        "inert config must attach nothing"
    );
    let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&plain.beta),
        bits(&guarded.beta),
        "guards must be bit-invisible on clean input"
    );
    let report = guarded.numerical.expect("guarded fit carries a report");
    assert!(
        report.is_clean(),
        "clean input must report clean: {report:?}"
    );
    assert_eq!(report.sanitized_cells, 0);
}

/// Every degeneracy kind completes under the guarded posture, and its
/// health report is byte-identical JSON across reruns.
#[test]
fn adversarial_matrix_completes_serial_with_deterministic_reports() {
    for (name, x, y) in adversarial_matrix() {
        let run = || {
            let mut cfg = lasso_cfg();
            cfg.numerical = NumericalConfig::guarded();
            try_fit_uoi_lasso(&x, &y, &cfg)
                .unwrap_or_else(|e| panic!("{name}: guarded fit must complete: {e}"))
        };
        let a = run();
        let b = run();
        let ra = a.numerical.expect("report attached");
        let rb = b.numerical.expect("report attached");
        assert_eq!(
            ra.to_json().to_string_compact(),
            rb.to_json().to_string_compact(),
            "{name}: report must be byte-identical across reruns"
        );
        assert!(
            a.beta.iter().all(|v| v.is_finite()),
            "{name}: coefficients must stay finite"
        );
        let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.beta),
            bits(&b.beta),
            "{name}: fit must be deterministic"
        );
    }
}

/// The NaN/Inf case is actually observed: `Sanitize` scrubs and records
/// the cells, `Reject` surfaces a typed coordinate-bearing error.
#[test]
fn corrupted_cells_sanitize_vs_reject() {
    let (x, y) = corrupted_cells();

    let mut scfg = lasso_cfg();
    scfg.numerical = NumericalConfig::guarded();
    let fit = try_fit_uoi_lasso(&x, &y, &scfg).expect("sanitize completes");
    let report = fit.numerical.unwrap();
    assert_eq!(
        report.sanitized_cells, 4,
        "3 design cells + 1 response cell"
    );
    assert!(report.data_issues.values().sum::<usize>() >= 4);

    let mut rcfg = lasso_cfg();
    rcfg.numerical = NumericalConfig::default().validation(Some(ValidationPolicy::Reject));
    match try_fit_uoi_lasso(&x, &y, &rcfg) {
        Err(UoiError::Numerical { stage, detail }) => {
            assert_eq!(stage, "validation");
            assert!(
                detail.contains("(3, 4)"),
                "error names the first corrupt coordinate: {detail}"
            );
        }
        other => panic!("Reject must produce a typed Numerical error, got {other:?}"),
    }
}

/// The distributed pipeline completes the adversarial matrix, all ranks
/// agree, and the report matches across reruns.
#[test]
fn adversarial_matrix_completes_dist() {
    for (name, x, y) in adversarial_matrix() {
        let run = || {
            let (x, y) = (x.clone(), y.clone());
            Cluster::new(4, MachineModel::deterministic())
                .run(move |ctx, world| {
                    let mut cfg = lasso_cfg();
                    cfg.numerical = NumericalConfig::guarded();
                    let fit =
                        fit_uoi_lasso_dist(ctx, world, &x, &y, &cfg, ParallelLayout::admm_only());
                    (
                        fit.beta,
                        fit.numerical
                            .map(|r| r.to_json().to_string_compact())
                            .unwrap_or_default(),
                    )
                })
                .results
        };
        let a = run();
        for r in 1..4 {
            assert_eq!(a[0].0, a[r].0, "{name}: rank {r} disagrees on beta");
        }
        let b = run();
        assert_eq!(a[0].1, b[0].1, "{name}: dist report must be deterministic");
        assert!(a[0].0.iter().all(|v| v.is_finite()), "{name}: finite beta");
    }
}

/// The recovering pipeline completes the adversarial matrix too (the
/// same guarded tasks run under the shrink-and-recover exchange).
#[test]
fn adversarial_matrix_completes_recovering() {
    let rcfg = RecoveryConfig {
        world: 3,
        ..Default::default()
    };
    for (name, x, y) in adversarial_matrix() {
        let mut cfg = lasso_cfg();
        cfg.numerical = NumericalConfig::guarded();
        let fit = uoi_core::fit_uoi_lasso_recovering(&x, &y, &cfg, &rcfg)
            .unwrap_or_else(|e| panic!("{name}: recovering fit must complete: {e}"));
        assert!(fit.numerical.is_some(), "{name}: report attached");
        assert!(
            fit.beta.iter().all(|v| v.is_finite()),
            "{name}: finite beta"
        );
    }
}

/// One (degeneracy kind × pipeline) cell of the CI adversarial matrix,
/// parameterised through the environment (`ADVERSARIAL_KIND` in
/// {dup_columns, const_features, scale_disparity, nan_inf},
/// `ADVERSARIAL_PIPELINE` in {serial, dist, recovering}). Each cell
/// asserts the guarded fit completes with finite coefficients and a
/// byte-identical health report across a rerun.
#[test]
fn adversarial_matrix_cell() {
    let kind = std::env::var("ADVERSARIAL_KIND").unwrap_or_else(|_| "dup_columns".to_string());
    let pipeline = std::env::var("ADVERSARIAL_PIPELINE").unwrap_or_else(|_| "serial".to_string());
    let (name, x, y) = adversarial_matrix()
        .into_iter()
        .find(|(n, _, _)| *n == kind)
        .unwrap_or_else(|| {
            panic!(
                "unknown ADVERSARIAL_KIND {kind:?} \
                 (use dup_columns|const_features|scale_disparity|nan_inf)"
            )
        });
    let mut cfg = lasso_cfg();
    cfg.numerical = NumericalConfig::guarded();

    let run = || -> (Vec<f64>, String) {
        match pipeline.as_str() {
            "serial" => {
                let fit = try_fit_uoi_lasso(&x, &y, &cfg)
                    .unwrap_or_else(|e| panic!("{name}/serial must complete: {e}"));
                let report = fit.numerical.expect("report attached");
                (fit.beta, report.to_json().to_string_compact())
            }
            "dist" => {
                let (x, y, cfg) = (x.clone(), y.clone(), cfg.clone());
                let mut results = Cluster::new(4, MachineModel::deterministic())
                    .run(move |ctx, world| {
                        let fit = fit_uoi_lasso_dist(
                            ctx,
                            world,
                            &x,
                            &y,
                            &cfg,
                            ParallelLayout::admm_only(),
                        );
                        (
                            fit.beta,
                            fit.numerical
                                .map(|r| r.to_json().to_string_compact())
                                .unwrap_or_default(),
                        )
                    })
                    .results;
                for r in 1..results.len() {
                    assert_eq!(
                        results[0].0, results[r].0,
                        "{name}/dist: rank {r} disagrees"
                    );
                }
                results.swap_remove(0)
            }
            "recovering" => {
                let rcfg = RecoveryConfig {
                    world: 3,
                    ..Default::default()
                };
                let fit = uoi_core::fit_uoi_lasso_recovering(&x, &y, &cfg, &rcfg)
                    .unwrap_or_else(|e| panic!("{name}/recovering must complete: {e}"));
                let report = fit.numerical.expect("report attached");
                (fit.beta, report.to_json().to_string_compact())
            }
            other => panic!("unknown ADVERSARIAL_PIPELINE {other:?} (use serial|dist|recovering)"),
        }
    };

    let (beta_a, report_a) = run();
    let (beta_b, report_b) = run();
    assert!(
        beta_a.iter().all(|v| v.is_finite()),
        "{name}/{pipeline}: coefficients must stay finite"
    );
    let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&beta_a),
        bits(&beta_b),
        "{name}/{pipeline}: nondeterministic fit"
    );
    assert_eq!(
        report_a, report_b,
        "{name}/{pipeline}: nondeterministic report"
    );
}

fn var_cfg() -> UoiVarConfig {
    UoiVarConfig {
        order: 1,
        block_len: None,
        base: UoiLassoConfig {
            b1: 6,
            b2: 6,
            q: 6,
            lambda_min_ratio: 5e-3,
            admm: AdmmConfig {
                max_iter: 1500,
                abstol: 1e-8,
                reltol: 1e-7,
                ..Default::default()
            },
            support_tol: 1e-6,
            seed: 11,
            ..Default::default()
        },
    }
}

fn var_series() -> Matrix {
    VarProcess::generate(&VarConfig {
        p: 5,
        order: 1,
        density: 0.3,
        target_radius: 0.7,
        noise_std: 0.25,
        seed: 23,
    })
    .simulate(240, 50, 31)
}

/// VAR: guards are bit-invisible on a clean series and carry a clean
/// report; a NaN-corrupted series is scrubbed and the fit completes.
#[test]
fn var_guarded_clean_identity_and_nan_recovery() {
    let series = var_series();
    let plain = try_fit_uoi_var(&series, &var_cfg()).unwrap();
    let mut gcfg = var_cfg();
    gcfg.base.numerical = NumericalConfig::guarded();
    let guarded = try_fit_uoi_var(&series, &gcfg).unwrap();

    let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert!(plain.numerical.is_none());
    assert_eq!(bits(&plain.vec_beta), bits(&guarded.vec_beta));
    assert!(guarded.numerical.unwrap().is_clean());

    let mut corrupt = series.clone();
    corrupt[(5, 1)] = f64::NAN;
    corrupt[(100, 3)] = f64::INFINITY;
    let fit = try_fit_uoi_var(&corrupt, &gcfg).expect("scrubbed series fits");
    let report = fit.numerical.unwrap();
    assert_eq!(report.sanitized_cells, 2);
    assert!(fit.vec_beta.iter().all(|v| v.is_finite()));
    // The unguarded path rejects the same series outright.
    assert!(try_fit_uoi_var(&corrupt, &var_cfg()).is_err());
}

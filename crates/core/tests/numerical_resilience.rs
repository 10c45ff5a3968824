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

use uoi_core::{
    DistOptions, ExecMode, NumericalConfig, ParallelLayout, RecoveryConfig, UoiError, UoiFitter,
    UoiLassoConfig, UoiVarConfig, UoiVarFitter,
};
use uoi_data::{LinearConfig, ValidationPolicy, VarConfig, VarProcess};
use uoi_linalg::Matrix;
use uoi_mpisim::{Cluster, MachineModel};
use uoi_solvers::{AdmmConfig, ResilienceConfig};

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
    let plain = UoiFitter::new(lasso_cfg()).fit(&ds.x, &ds.y).unwrap();
    let mut gcfg = lasso_cfg();
    gcfg.numerical = NumericalConfig::guarded();
    let guarded = UoiFitter::new(gcfg).fit(&ds.x, &ds.y).unwrap();

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
            UoiFitter::new(cfg)
                .fit(&x, &y)
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
    let fit = UoiFitter::new(scfg)
        .fit(&x, &y)
        .expect("sanitize completes");
    let report = fit.numerical.unwrap();
    assert_eq!(
        report.sanitized_cells, 4,
        "3 design cells + 1 response cell"
    );
    assert!(report.data_issues.values().sum::<usize>() >= 4);

    let mut rcfg = lasso_cfg();
    rcfg.numerical = NumericalConfig::default().validation(Some(ValidationPolicy::Reject));
    match UoiFitter::new(rcfg).fit(&x, &y) {
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
                    let fit = UoiFitter::new(cfg)
                        .mode(ExecMode::Dist(DistOptions {
                            layout: ParallelLayout::admm_only(),
                            ..Default::default()
                        }))
                        .fit_on(ctx, world, &x, &y);
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
        let fit = UoiFitter::new(cfg.clone())
            .mode(ExecMode::Recovering(rcfg.clone()))
            .fit(&x, &y)
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
                let fit = UoiFitter::new(cfg.clone())
                    .fit(&x, &y)
                    .unwrap_or_else(|e| panic!("{name}/serial must complete: {e}"));
                let report = fit.numerical.expect("report attached");
                (fit.beta, report.to_json().to_string_compact())
            }
            "dist" => {
                let (x, y, cfg) = (x.clone(), y.clone(), cfg.clone());
                let mut results = Cluster::new(4, MachineModel::deterministic())
                    .run(move |ctx, world| {
                        let fit = UoiFitter::new(cfg.clone())
                            .mode(ExecMode::Dist(DistOptions {
                                layout: ParallelLayout::admm_only(),
                                ..Default::default()
                            }))
                            .fit_on(ctx, world, &x, &y);
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
                let fit = UoiFitter::new(cfg.clone())
                    .mode(ExecMode::Recovering(rcfg))
                    .fit(&x, &y)
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

/// A divergence cap the base penalty's first iterations exceed forces
/// the tripwire, and the shared ρ-restart ladder recovers every tripped
/// λ — serially, where the in-loop tripwire ends the λ, and on 4
/// consensus ranks, where the allreduced residuals of an unconverged λ
/// are checked after the path. Three iterations per λ leave the
/// consensus λs unconverged, so their final residuals are judged.
#[test]
fn forced_trips_restart_and_recover_serial_and_dist() {
    let ds = clean_dataset();
    let mut cfg = lasso_cfg();
    cfg.admm.max_iter = 3;
    cfg.numerical = NumericalConfig::guarded();
    cfg.numerical.resilience = ResilienceConfig::default().divergence_cap(10.0);
    let restarted = |r: &uoi_telemetry::NumericalHealthReport, who: &str| {
        assert!(r.rho_restarts > 0, "{who}: the cap must trip: {r:?}");
        assert!(r.divergences > 0, "{who}: {r:?}");
        assert_eq!(r.recovered, r.divergences, "{who}: every trip recovers");
        assert_eq!(r.dropped_tasks, 0, "{who}: {r:?}");
    };

    let serial = UoiFitter::new(cfg.clone())
        .fit(&ds.x, &ds.y)
        .expect("serial guarded fit completes");
    restarted(&serial.numerical.expect("report attached"), "serial");

    let (x, y) = (ds.x, ds.y);
    let ranks = Cluster::new(4, MachineModel::deterministic())
        .run(move |ctx, world| {
            let fit = UoiFitter::new(cfg.clone())
                .mode(ExecMode::Dist(DistOptions {
                    layout: ParallelLayout::admm_only(),
                    ..Default::default()
                }))
                .fit_on(ctx, world, &x, &y);
            (fit.beta, fit.numerical.expect("report attached"))
        })
        .results;
    restarted(&ranks[0].1, "dist");
    for (r, rank) in ranks.iter().enumerate().skip(1) {
        assert_eq!(rank.0, ranks[0].0, "rank {r} disagrees on beta");
        assert_eq!(rank.1, ranks[0].1, "rank {r} disagrees on the report");
    }
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
    let plain = UoiVarFitter::new(var_cfg()).fit(&series).unwrap();
    let mut gcfg = var_cfg();
    gcfg.base.numerical = NumericalConfig::guarded();
    let guarded = UoiVarFitter::new(gcfg.clone()).fit(&series).unwrap();

    let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert!(plain.numerical.is_none());
    assert_eq!(bits(&plain.vec_beta), bits(&guarded.vec_beta));
    assert!(guarded.numerical.unwrap().is_clean());

    let mut corrupt = series;
    corrupt[(5, 1)] = f64::NAN;
    corrupt[(100, 3)] = f64::INFINITY;
    let fit = UoiVarFitter::new(gcfg)
        .fit(&corrupt)
        .expect("scrubbed series fits");
    let report = fit.numerical.unwrap();
    assert_eq!(report.sanitized_cells, 2);
    assert!(fit.vec_beta.iter().all(|v| v.is_finite()));
    // The unguarded path rejects the same series outright.
    assert!(UoiVarFitter::new(var_cfg()).fit(&corrupt).is_err());
}

/// Small-integer design whose column 7 duplicates column 0, with every
/// row mirrored by its negation: each column and the response sum to
/// exactly zero, so centring is exact and every weighted Gram is an
/// integer sum. The serial and distributed fits then see bit-identical,
/// exactly singular sub-Grams on any candidate holding both copies.
fn duplicated_column_exact() -> (Matrix, Vec<f64>) {
    let (half, p) = (32, 8);
    let cell = |i: usize, j: usize| ((i * 31 + j * 17 + i * j * 7) % 7) as f64 - 3.0;
    let mirror = |i: usize| if i < half { (i, 1.0) } else { (i - half, -1.0) };
    let x = Matrix::from_fn(2 * half, p, |i, j| {
        let (r, sign) = mirror(i);
        sign * cell(r, if j == 7 { 0 } else { j })
    });
    let y = (0..2 * half)
        .map(|i| {
            let (r, sign) = mirror(i);
            let noise = sign * ((r % 3) as f64 - 1.0);
            3.0 * x[(i, 0)] + 2.0 * x[(i, 1)] - 2.0 * x[(i, 2)] + noise
        })
        .collect();
    (x, y)
}

/// The `(bootstrap, candidate, attempts, jitter bits)` of every
/// estimation-stage jitter event in a trace, sorted.
fn estimation_jitter(events: Vec<uoi_telemetry::TraceEvent>) -> Vec<(usize, usize, usize, u64)> {
    let mut out: Vec<_> = events
        .into_iter()
        .filter_map(|ev| match ev {
            uoi_telemetry::TraceEvent::Numerical {
                stage: "estimation",
                action,
                bootstrap,
                lambda_idx,
                attempts,
                value,
                ..
            } if action == "jitter" => Some((bootstrap, lambda_idx, attempts, value.to_bits())),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out
}

/// Both executors estimate through the same guarded candidate solve, so
/// a singular candidate sub-Gram leaves the same `estimation` jitter
/// events in the serial and the distributed trace. The adversarial
/// `dup_columns` design is singular too, but its fractional sums round
/// differently in the two executors, and the sign of a near-zero pivot
/// (so whether the ladder fires) follows the rounding.
#[test]
fn dist_and_serial_report_the_same_estimation_jitter() {
    use std::sync::Arc;
    use uoi_telemetry::{MemorySink, Telemetry};
    let (x, y) = duplicated_column_exact();
    let mut cfg = lasso_cfg();
    cfg.numerical = NumericalConfig::guarded();

    let serial_sink = Arc::new(MemorySink::new());
    let mut scfg = cfg.clone();
    scfg.telemetry = Telemetry::with_sink(serial_sink.clone());
    let serial = UoiFitter::new(scfg).fit(&x, &y).unwrap();

    let dist_sink = Arc::new(MemorySink::new());
    let dist = Cluster::new(4, MachineModel::deterministic())
        .with_telemetry(Telemetry::with_sink(dist_sink.clone()))
        .run(move |ctx, world| {
            UoiFitter::new(cfg.clone())
                .mode(ExecMode::Dist(DistOptions {
                    layout: ParallelLayout::admm_only(),
                    ..Default::default()
                }))
                .fit_on(ctx, world, &x, &y)
        })
        .results
        .remove(0);

    assert_eq!(dist.support_family, serial.support_family);
    let want = estimation_jitter(serial_sink.snapshot());
    assert!(
        !want.is_empty(),
        "a candidate holding both copies must climb the jitter ladder"
    );
    assert_eq!(estimation_jitter(dist_sink.snapshot()), want);
}

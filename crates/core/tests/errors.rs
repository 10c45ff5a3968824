//! Error paths of the fallible fitting API: every invalid-input case
//! returns `Err` (never panics), the panicking wrappers preserve their
//! old contract, and the builders reject bad configurations.

use uoi_core::{UoiError, UoiFitter, UoiLassoConfig, UoiVarConfig, UoiVarFitter};
use uoi_data::LinearConfig;
use uoi_linalg::Matrix;

fn small_ds() -> (Matrix, Vec<f64>) {
    let ds = LinearConfig {
        n_samples: 40,
        n_features: 8,
        n_nonzero: 2,
        seed: 1,
        ..Default::default()
    }
    .generate();
    (ds.x, ds.y)
}

fn quick_cfg() -> UoiLassoConfig {
    UoiLassoConfig::builder().b1(3).b2(3).q(5).build().unwrap()
}

#[test]
fn empty_design_is_an_error() {
    let x = Matrix::zeros(0, 0);
    assert_eq!(
        UoiFitter::new(quick_cfg()).fit(&x, &[]).unwrap_err(),
        UoiError::EmptyDesign
    );
    let no_cols = Matrix::zeros(10, 0);
    assert_eq!(
        UoiFitter::new(quick_cfg())
            .fit(&no_cols, &[0.0; 10])
            .unwrap_err(),
        UoiError::EmptyDesign
    );
}

#[test]
fn mismatched_lengths_are_an_error() {
    let (x, mut y) = small_ds();
    y.pop();
    assert_eq!(
        UoiFitter::new(quick_cfg()).fit(&x, &y).unwrap_err(),
        UoiError::DimensionMismatch {
            expected: 40,
            got: 39
        }
    );
}

#[test]
fn too_few_samples_is_an_error() {
    let x = Matrix::zeros(3, 5);
    let y = vec![0.0; 3];
    assert_eq!(
        UoiFitter::new(quick_cfg()).fit(&x, &y).unwrap_err(),
        UoiError::TooFewSamples { n: 3, min: 4 }
    );
}

#[test]
fn non_finite_inputs_are_an_error() {
    let (mut x, y) = small_ds();
    x[(2, 3)] = f64::NAN;
    assert_eq!(
        UoiFitter::new(quick_cfg()).fit(&x, &y).unwrap_err(),
        UoiError::NonFiniteInput("design matrix x")
    );
    let (x, mut y) = small_ds();
    y[7] = f64::INFINITY;
    assert_eq!(
        UoiFitter::new(quick_cfg()).fit(&x, &y).unwrap_err(),
        UoiError::NonFiniteInput("response y")
    );
}

#[test]
fn zero_bootstraps_is_an_error_not_a_panic() {
    let (x, y) = small_ds();
    let cfg = UoiLassoConfig {
        b1: 0,
        ..quick_cfg()
    };
    match UoiFitter::new(cfg).fit(&x, &y) {
        Err(UoiError::InvalidConfig(msg)) => assert!(msg.contains("b1")),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let cfg = UoiLassoConfig {
        b2: 0,
        ..quick_cfg()
    };
    assert!(matches!(
        UoiFitter::new(cfg).fit(&x, &y),
        Err(UoiError::InvalidConfig(_))
    ));
    let cfg = UoiLassoConfig {
        q: 0,
        ..quick_cfg()
    };
    assert!(matches!(
        UoiFitter::new(cfg).fit(&x, &y),
        Err(UoiError::InvalidConfig(_))
    ));
}

#[test]
fn bad_solver_config_propagates() {
    let (x, y) = small_ds();
    let mut cfg = quick_cfg();
    cfg.admm.rho = -1.0;
    match UoiFitter::new(cfg).fit(&x, &y) {
        Err(UoiError::InvalidConfig(msg)) => assert!(msg.contains("rho")),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn valid_input_fits_ok() {
    let (x, y) = small_ds();
    let fit = UoiFitter::new(quick_cfg()).fit(&x, &y).unwrap();
    assert_eq!(fit.beta.len(), 8);
}

#[test]
fn lasso_builder_rejects_bad_fields() {
    assert!(UoiLassoConfig::builder()
        .lambda_min_ratio(0.0)
        .build()
        .is_err());
    assert!(UoiLassoConfig::builder()
        .lambda_min_ratio(1.5)
        .build()
        .is_err());
    assert!(UoiLassoConfig::builder()
        .support_tol(f64::NAN)
        .build()
        .is_err());
    assert!(UoiLassoConfig::builder()
        .intersection_frac(0.0)
        .build()
        .is_err());
    assert!(UoiLassoConfig::builder()
        .intersection_frac(1.1)
        .build()
        .is_err());
    assert!(UoiLassoConfig::builder().b1(0).build().is_err());
    // The happy path round-trips all fields.
    let cfg = UoiLassoConfig::builder()
        .b1(7)
        .b2(9)
        .q(11)
        .seed(99)
        .intersection_frac(0.8)
        .build()
        .unwrap();
    assert_eq!((cfg.b1, cfg.b2, cfg.q, cfg.seed), (7, 9, 11, 99));
    assert_eq!(cfg.intersection_frac, 0.8);
}

#[test]
fn var_series_too_short_is_an_error() {
    let series = Matrix::zeros(5, 3);
    let cfg = UoiVarConfig::builder()
        .order(1)
        .b1(2)
        .b2(2)
        .q(3)
        .build()
        .unwrap();
    assert_eq!(
        UoiVarFitter::new(cfg.clone()).fit(&series).unwrap_err(),
        UoiError::SeriesTooShort { n: 5, min: 5 }
    );
    assert_eq!(
        UoiVarFitter::new(cfg)
            .fit(&Matrix::zeros(0, 0))
            .unwrap_err(),
        UoiError::EmptyDesign
    );
}

#[test]
fn var_non_finite_series_is_an_error() {
    let mut series = Matrix::zeros(60, 3);
    for i in 0..60 {
        for j in 0..3 {
            series[(i, j)] = ((i * 7 + j * 13) % 11) as f64 - 5.0;
        }
    }
    series[(30, 1)] = f64::NEG_INFINITY;
    let cfg = UoiVarConfig::builder()
        .order(1)
        .b1(2)
        .b2(2)
        .q(3)
        .build()
        .unwrap();
    assert_eq!(
        UoiVarFitter::new(cfg).fit(&series).unwrap_err(),
        UoiError::NonFiniteInput("series")
    );
}

#[test]
fn var_builder_validates_order_and_base() {
    assert!(UoiVarConfig::builder().order(0).build().is_err());
    assert!(UoiVarConfig::builder().block_len(Some(0)).build().is_err());
    assert!(UoiVarConfig::builder().q(0).build().is_err());
    let cfg = UoiVarConfig::builder()
        .order(2)
        .block_len(Some(10))
        .b1(5)
        .seed(3)
        .build()
        .unwrap();
    assert_eq!(cfg.order, 2);
    assert_eq!(cfg.block_len, Some(10));
    assert_eq!((cfg.base.b1, cfg.base.seed), (5, 3));
}

/// The input-validation policies a distributed fit must treat exactly as
/// the serial fit does: no pass, `Reject`, and the guarded `Sanitize`.
fn policies() -> Vec<uoi_core::NumericalConfig> {
    use uoi_core::NumericalConfig;
    vec![
        NumericalConfig::default(),
        NumericalConfig::default().validation(Some(uoi_data::ValidationPolicy::Reject)),
        NumericalConfig::guarded(),
    ]
}

fn dist_mode() -> uoi_core::ExecMode {
    uoi_core::ExecMode::Dist(uoi_core::DistOptions::default().ranks(2).n_readers(2))
}

/// Mismatched `x`/`y` lengths are the typed error under every
/// validation policy and in every mode, never a panic in the validation
/// pass.
#[test]
fn mismatched_lengths_are_an_error_under_every_policy() {
    let (x, mut y) = small_ds();
    y.pop();
    for numerical in policies() {
        for mode in [uoi_core::ExecMode::Serial, dist_mode()] {
            let cfg = UoiLassoConfig {
                numerical: numerical.clone(),
                ..quick_cfg()
            };
            assert_eq!(
                UoiFitter::new(cfg).mode(mode).fit(&x, &y).unwrap_err(),
                UoiError::DimensionMismatch {
                    expected: 40,
                    got: 39
                }
            );
        }
    }
}

/// A distributed `UoI_LASSO` fit validates its inputs after the scrub:
/// a NaN cell fails under no policy and `Reject` with the serial fit's
/// error, and `Sanitize` scrubs it and fits.
#[test]
fn dist_lasso_fit_validates_after_the_scrub() {
    let (mut x, y) = small_ds();
    x[(2, 3)] = f64::NAN;
    for numerical in policies() {
        let cfg = UoiLassoConfig {
            numerical,
            ..quick_cfg()
        };
        let serial = UoiFitter::new(cfg.clone()).fit(&x, &y);
        let dist = UoiFitter::new(cfg.clone()).mode(dist_mode()).fit(&x, &y);
        match (&serial, &dist) {
            (Ok(s), Ok(d)) => assert_eq!(d.beta.len(), s.beta.len()),
            (Err(s), Err(d)) => assert_eq!(d, s),
            _ => panic!(
                "{:?}: serial {:?} vs dist {:?}",
                cfg.numerical,
                serial.map(|f| f.support),
                dist.map(|f| f.support)
            ),
        }
    }
}

/// The VAR twin of [`dist_lasso_fit_validates_after_the_scrub`].
#[test]
fn dist_var_fit_validates_after_the_scrub() {
    let mut series = Matrix::zeros(60, 3);
    for i in 0..60 {
        for j in 0..3 {
            series[(i, j)] = ((i * 7 + j * 13) % 11) as f64 - 5.0;
        }
    }
    series[(30, 1)] = f64::NAN;
    for numerical in policies() {
        let mut cfg = UoiVarConfig::builder()
            .order(1)
            .b1(2)
            .b2(2)
            .q(3)
            .build()
            .unwrap();
        cfg.base.numerical = numerical;
        let serial = UoiVarFitter::new(cfg.clone()).fit(&series);
        let dist = UoiVarFitter::new(cfg.clone())
            .mode(dist_mode())
            .fit(&series);
        match (&serial, &dist) {
            (Ok(s), Ok(d)) => assert_eq!(d.vec_beta.len(), s.vec_beta.len()),
            (Err(s), Err(d)) => assert_eq!(d, s),
            _ => panic!(
                "{:?}: serial {:?} vs dist {:?}",
                cfg.base.numerical,
                serial.map(|f| f.nnz()),
                dist.map(|f| f.nnz())
            ),
        }
    }
}

/// A Dist fit honours `EstimationScore::Bic` as the serial fit does. On
/// this weak-signal design BIC's parsimony picks a smaller winner than
/// held-out MSE, so a Dist fit that scored by MSE regardless would miss
/// the serial BIC fit's support.
#[test]
fn dist_lasso_fit_scores_by_bic_as_serial_does() {
    use uoi_core::EstimationScore;
    let ds = LinearConfig {
        n_samples: 60,
        n_features: 12,
        n_nonzero: 5,
        snr: 1.0,
        min_coef: 0.1,
        max_coef: 1.0,
        seed: 15,
        ..Default::default()
    }
    .generate();
    let cfg = |score| {
        UoiLassoConfig::builder()
            .b1(4)
            .b2(4)
            .q(6)
            .score(score)
            .build()
            .unwrap()
    };
    let fit = |score, mode| {
        UoiFitter::new(cfg(score))
            .mode(mode)
            .fit(&ds.x, &ds.y)
            .unwrap()
    };
    let serial_mse = fit(EstimationScore::Mse, uoi_core::ExecMode::Serial);
    let serial_bic = fit(EstimationScore::Bic, uoi_core::ExecMode::Serial);
    assert_ne!(
        serial_mse.support, serial_bic.support,
        "the design must separate the two scores"
    );
    let dist_bic = fit(EstimationScore::Bic, dist_mode());
    assert_eq!(dist_bic.support_family, serial_bic.support_family);
    assert_eq!(dist_bic.support, serial_bic.support);
    for (d, s) in dist_bic.beta.iter().zip(&serial_bic.beta) {
        assert!((d - s).abs() <= 5e-3, "dist {d} vs serial {s}");
    }
}

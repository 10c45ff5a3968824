//! Public-API equivalence gate for the zero-copy bootstrap path.
//!
//! Rebuilds the pre-optimisation UoI_LASSO pipeline out of public
//! pieces — `gather_rows`-materialised resamples, `LassoAdmm::new`,
//! design-space OLS and MSE — and checks that the serial `UoiFitter` (which
//! never copies the design: weighted Gram selection, per-bootstrap
//! union-Gram estimation) selects the identical supports and agrees on
//! the coefficients to floating-point summation-order tolerance.

use uoi_core::support::{dedup_family, intersect_many};
use uoi_core::{EstimationScore, UoiFitter, UoiLassoConfig};
use uoi_data::bootstrap::row_bootstrap;
use uoi_data::rng::substream;
use uoi_data::LinearConfig;
use uoi_linalg::{gemv_t, Matrix};
use uoi_solvers::{lambda_path, ols_on_support, support_of, LassoAdmm};

/// The paper's original materialising pipeline, reconstructed from the
/// public API only. Mirrors the serial `UoiFitter`'s RNG substreams exactly.
#[allow(clippy::type_complexity)]
fn materialized_fit(
    x: &Matrix,
    y: &[f64],
    cfg: &UoiLassoConfig,
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>, Vec<f64>, f64) {
    let (n, p) = x.shape();
    let x_means = x.col_means();
    let y_mean = y.iter().sum::<f64>() / n as f64;
    let mut xc = x.clone();
    xc.center_cols(&x_means);
    let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

    let lambdas = lambda_path(&xc, &yc, cfg.q, cfg.lambda_min_ratio);

    // Selection: materialise every bootstrap design.
    let supports_by_bootstrap: Vec<Vec<Vec<usize>>> = (0..cfg.b1)
        .map(|k| {
            let mut rng = substream(cfg.seed, k as u64);
            let idx = row_bootstrap(&mut rng, n, n);
            let xb = xc.gather_rows(&idx);
            let yb: Vec<f64> = idx.iter().map(|&i| yc[i]).collect();
            let xty = gemv_t(&xb, &yb);
            let solver = LassoAdmm::new(xb, cfg.admm.clone());
            solver
                .solve_path_with_rhs(&xty, &lambdas)
                .into_iter()
                .map(|sol| support_of(&sol.beta, cfg.support_tol))
                .collect()
        })
        .collect();

    // Strict intersection (the test pins intersection_frac = 1.0).
    let supports_per_lambda: Vec<Vec<usize>> = (0..cfg.q)
        .map(|j| {
            let per_k: Vec<Vec<usize>> = supports_by_bootstrap
                .iter()
                .map(|sk| sk[j].clone())
                .collect();
            intersect_many(&per_k)
        })
        .collect();
    let support_family = dedup_family(supports_per_lambda.clone());

    // Estimation: materialise every train resample, score in design space.
    let mut beta = vec![0.0; p];
    for k in 0..cfg.b2 {
        let mut rng = substream(cfg.seed, 10_000 + k as u64);
        let train_idx = row_bootstrap(&mut rng, n, n);
        let mut in_train = vec![false; n];
        for &i in &train_idx {
            in_train[i] = true;
        }
        let eval_idx: Vec<usize> = (0..n).filter(|&i| !in_train[i]).collect();
        assert!(
            !eval_idx.is_empty(),
            "test sizes must leave out-of-bag rows"
        );

        let xt = xc.gather_rows(&train_idx);
        let yt: Vec<f64> = train_idx.iter().map(|&i| yc[i]).collect();

        let mut best: Option<(f64, Vec<f64>)> = None;
        for support in &support_family {
            // `ols_on_support` already embeds into full-p coordinates.
            let full = ols_on_support(&xt, &yt, support);
            let loss = match cfg.score {
                EstimationScore::Mse => {
                    let mut sum = 0.0;
                    for &e in &eval_idx {
                        let d = uoi_linalg::dot(xc.row(e), &full) - yc[e];
                        sum += d * d;
                    }
                    sum / eval_idx.len() as f64
                }
                EstimationScore::Bic => uoi_core::bic(&xt, &full, &yt, support.len()),
            };
            if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                best = Some((loss, full));
            }
        }
        if let Some((_, full)) = best {
            for (bi, v) in beta.iter_mut().zip(&full) {
                *bi += v;
            }
        }
    }
    for b in &mut beta {
        *b /= cfg.b2 as f64;
    }
    let intercept = y_mean - uoi_linalg::dot(&x_means, &beta);

    (supports_per_lambda, support_family, beta, intercept)
}

fn cfg(score: EstimationScore) -> UoiLassoConfig {
    UoiLassoConfig::builder()
        .b1(6)
        .b2(8)
        .q(12)
        .lambda_min_ratio(1e-2)
        .support_tol(1e-6)
        .seed(97)
        .score(score)
        .intersection_frac(1.0)
        .build()
        .expect("valid config")
}

fn check(score: EstimationScore) {
    let ds = LinearConfig {
        n_samples: 80,
        n_features: 18,
        n_nonzero: 4,
        snr: 8.0,
        seed: 41,
        ..Default::default()
    }
    .generate();
    let cfg = cfg(score);

    let fit = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap();
    let (ref_spl, ref_family, ref_beta, ref_icpt) = materialized_fit(&ds.x, &ds.y, &cfg);

    // The weighted-Gram path must select the identical model.
    assert_eq!(
        fit.supports_per_lambda, ref_spl,
        "supports diverged ({score:?})"
    );
    assert_eq!(
        fit.support_family, ref_family,
        "family diverged ({score:?})"
    );

    // Coefficients agree to summation-order tolerance.
    for (a, b) in fit.beta.iter().zip(&ref_beta) {
        assert!(
            (a - b).abs() < 1e-6,
            "beta diverged ({score:?}): {a} vs {b}"
        );
    }
    assert!(
        (fit.intercept - ref_icpt).abs() < 1e-6,
        "intercept diverged ({score:?})"
    );
}

#[test]
fn zero_copy_matches_materialized_reference_mse() {
    check(EstimationScore::Mse);
}

#[test]
fn zero_copy_matches_materialized_reference_bic() {
    check(EstimationScore::Bic);
}

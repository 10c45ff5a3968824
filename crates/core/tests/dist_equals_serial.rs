//! Distributed equals serial: Dist and Serial `UoI_LASSO` select the same
//! supports per λ and estimate the same coefficients to 1e-9, under both
//! estimation scores and on every ADMM-communicator shape the distributed
//! executor takes — one rank, several ranks, the nested `P_B × P_λ`
//! layout, and short row shares on the dense (Woodbury) selection route.
//!
//! Both executors solve each candidate exactly on the same union
//! sub-Gram, so the only difference left is the order in which the
//! Gram's row sums are added up.

use uoi_core::{
    DistOptions, EstimationScore, ExecMode, ParallelLayout, UoiFit, UoiFitter, UoiLassoConfig,
};
use uoi_data::{LinearConfig, LinearDataset};
use uoi_mpisim::{Cluster, MachineModel};
use uoi_solvers::AdmmConfig;

const TOL: f64 = 1e-9;

fn cfg(score: EstimationScore) -> UoiLassoConfig {
    UoiLassoConfig {
        b1: 6,
        b2: 6,
        q: 10,
        lambda_min_ratio: 2e-2,
        admm: AdmmConfig {
            max_iter: 3000,
            abstol: 1e-9,
            reltol: 1e-8,
            ..Default::default()
        },
        support_tol: 1e-6,
        seed: 7,
        score,
        ..Default::default()
    }
}

fn dataset(n: usize, p: usize, seed: u64) -> LinearDataset {
    LinearConfig {
        n_samples: n,
        n_features: p,
        n_nonzero: 4,
        snr: 10.0,
        seed,
        ..Default::default()
    }
    .generate()
}

/// Rank 0's fit after checking every rank returned the same one.
fn dist_fit(
    ds: &LinearDataset,
    cfg: &UoiLassoConfig,
    ranks: usize,
    layout: ParallelLayout,
) -> UoiFit {
    let (x, y, cfg) = (ds.x.clone(), ds.y.clone(), cfg.clone());
    let mut fits = Cluster::new(ranks, MachineModel::deterministic())
        .run(move |ctx, world| {
            UoiFitter::new(cfg.clone())
                .mode(ExecMode::Dist(DistOptions::default().layout(layout)))
                .fit_on(ctx, world, &x, &y)
        })
        .results;
    for (r, fit) in fits.iter().enumerate().skip(1) {
        assert_eq!(fit.beta, fits[0].beta, "rank {r} disagrees on beta");
    }
    fits.remove(0)
}

fn assert_matches_serial(ds: &LinearDataset, ranks: usize, layout: ParallelLayout) {
    for score in [EstimationScore::Mse, EstimationScore::Bic] {
        let cfg = cfg(score);
        let serial = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap();
        let dist = dist_fit(ds, &cfg, ranks, layout);
        let at = format!("{score:?} on {ranks} ranks, {layout:?}");
        assert_eq!(
            dist.supports_per_lambda, serial.supports_per_lambda,
            "{at}: supports per lambda"
        );
        assert!(
            serial.beta.iter().any(|b| *b != 0.0),
            "{at}: the gate needs a nonzero fit"
        );
        for (j, (a, b)) in dist.beta.iter().zip(&serial.beta).enumerate() {
            assert!(
                (a - b).abs() <= TOL,
                "{at}: beta[{j}] dist {a} vs serial {b}"
            );
        }
        assert!(
            (dist.intercept - serial.intercept).abs() <= TOL,
            "{at}: intercept dist {} vs serial {}",
            dist.intercept,
            serial.intercept
        );
    }
}

#[test]
fn admm_only_matches_serial_on_one_three_and_four_ranks() {
    let ds = dataset(96, 20, 3);
    for ranks in [1, 3, 4] {
        assert_matches_serial(&ds, ranks, ParallelLayout::admm_only());
    }
}

#[test]
fn nested_layout_matches_serial() {
    let ds = dataset(96, 20, 3);
    let layout = ParallelLayout {
        p_b: 2,
        p_lambda: 2,
    };
    assert_matches_serial(&ds, 8, layout);
}

#[test]
fn short_share_dense_route_matches_serial() {
    // 16-row shares of a 40-feature design: selection takes the dense
    // route, estimation still reduces each resample's union Gram.
    let ds = dataset(64, 40, 12);
    assert_matches_serial(&ds, 4, ParallelLayout::admm_only());
}

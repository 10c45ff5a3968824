//! End-to-end `UoI_LASSO` integration: dataset on disk → SHF container →
//! tiered distribution → distributed fit on the simulated cluster →
//! agreement with the serial fit and with the ground truth.

use uoi::core::{
    DistOptions, ExecMode, ParallelLayout, SelectionCounts, UoiFitter, UoiLassoConfig,
};
use uoi::data::LinearConfig;
use uoi::mpisim::{Cluster, MachineModel};
use uoi::solvers::AdmmConfig;
use uoi::tieredio::{randomized, write_matrix, ShfDataset};

fn cfg() -> UoiLassoConfig {
    UoiLassoConfig::builder()
        .b1(6)
        .b2(6)
        .q(10)
        .lambda_min_ratio(2e-2)
        .admm(AdmmConfig {
            max_iter: 2500,
            abstol: 1e-9,
            reltol: 1e-8,
            ..Default::default()
        })
        .support_tol(1e-6)
        .seed(11)
        .build()
        .expect("valid config")
}

#[test]
fn file_to_distributed_fit_roundtrip() {
    let ds = LinearConfig {
        n_samples: 96,
        n_features: 24,
        n_nonzero: 5,
        snr: 9.0,
        seed: 31,
        ..Default::default()
    }
    .generate();

    // Persist the dataset (design | response) as an SHF container.
    let stored = {
        let mut m = uoi::linalg::Matrix::zeros(96, 25);
        for i in 0..96 {
            m.row_mut(i)[..24].copy_from_slice(ds.x.row(i));
            m.row_mut(i)[24] = ds.y[i];
        }
        m
    };
    let path = std::env::temp_dir().join(format!("uoi_e2e_{}.shf", std::process::id()));
    write_matrix(&path, &stored).unwrap();
    let file = ShfDataset::open(&path).unwrap();

    // Each rank loads its stripe through the randomized three-tier
    // distribution, reassembles the dataset, and runs the distributed fit.
    let report = Cluster::new(4, MachineModel::deterministic()).run(move |ctx, world| {
        // Tier-1 + Tier-2: fetch this rank's (identity) stripe from disk.
        let rows: Vec<usize> = (0..96).collect();
        let (full, timing) = randomized(ctx, world, &file, &rows);
        assert!(timing.read > 0.0);
        let x = full.gather_cols(&(0..24).collect::<Vec<_>>());
        let y = full.col(24);
        UoiFitter::new(cfg())
            .mode(ExecMode::Dist(
                DistOptions::default().layout(ParallelLayout::admm_only()),
            ))
            .fit_on(ctx, world, &x, &y)
    });
    std::fs::remove_file(&path).ok();

    let dist = &report.results[0];
    for r in 1..4 {
        assert_eq!(dist.beta, report.results[r].beta, "ranks disagree");
    }

    // Matches the serial reference statistically.
    let serial = UoiFitter::new(cfg()).fit(&ds.x, &ds.y).unwrap();
    assert_eq!(dist.supports_per_lambda, serial.supports_per_lambda);

    // And recovers the planted support.
    let counts = SelectionCounts::compare(&dist.support, &ds.support_true, 24);
    assert!(counts.recall() >= 0.8, "recall {}", counts.recall());
    assert!(counts.false_positives <= 5, "FP {}", counts.false_positives);
}

#[test]
fn nested_layout_preserves_statistics() {
    let ds = LinearConfig {
        n_samples: 64,
        n_features: 16,
        n_nonzero: 4,
        seed: 5,
        ..Default::default()
    }
    .generate();
    let run = |p_b: usize, p_l: usize| {
        let (x, y) = (ds.x.clone(), ds.y.clone());
        Cluster::new(8, MachineModel::deterministic())
            .run(move |ctx, world| {
                UoiFitter::new(cfg())
                    .mode(ExecMode::Dist(
                        DistOptions::default().layout(ParallelLayout { p_b, p_lambda: p_l }),
                    ))
                    .fit_on(ctx, world, &x, &y)
            })
            .results
            .remove(0)
    };
    let flat = run(1, 1);
    let two = run(2, 2);
    let four = run(4, 2);
    assert_eq!(flat.supports_per_lambda, two.supports_per_lambda);
    assert_eq!(flat.supports_per_lambda, four.supports_per_lambda);
    for other in [&two, &four] {
        for (a, b) in flat.beta.iter().zip(&other.beta) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}

#[test]
fn modeled_scale_changes_time_not_statistics() {
    let ds = LinearConfig {
        n_samples: 48,
        n_features: 12,
        n_nonzero: 3,
        seed: 9,
        ..Default::default()
    }
    .generate();
    let run = |modeled: usize| {
        let (x, y) = (ds.x.clone(), ds.y.clone());
        let report = Cluster::new(4, MachineModel::deterministic())
            .modeled_ranks(modeled)
            .run(move |ctx, world| {
                let fit = UoiFitter::new(cfg())
                    .mode(ExecMode::Dist(
                        DistOptions::default().layout(ParallelLayout::admm_only()),
                    ))
                    .fit_on(ctx, world, &x, &y);
                (fit.beta, ctx.ledger().comm)
            });
        report.results[0].clone()
    };
    let (beta_small, comm_small) = run(4);
    let (beta_big, comm_big) = run(4096);
    assert_eq!(
        beta_small, beta_big,
        "modeled scale must not affect results"
    );
    assert!(
        comm_big > comm_small,
        "modeled scale must affect virtual comm time"
    );
}

//! Criterion benchmarks of the end-to-end pipelines at laptop scale:
//! serial `UoI_LASSO` and `UoI_VAR` fits, the VAR lag-matrix build, the
//! SHF hyperslab read, and the simulated cluster's collective round-trip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uoi_core::uoi_lasso::UoiLassoConfig;
use uoi_core::uoi_var::UoiVarConfig;
use uoi_core::VarRegression;
use uoi_core::{UoiFitter, UoiVarFitter};
use uoi_data::{LinearConfig, VarConfig, VarProcess};
use uoi_mpisim::{Cluster, MachineModel};
use uoi_solvers::AdmmConfig;

fn quick_cfg() -> UoiLassoConfig {
    UoiLassoConfig {
        b1: 5,
        b2: 5,
        q: 8,
        lambda_min_ratio: 5e-2,
        admm: AdmmConfig {
            max_iter: 300,
            ..Default::default()
        },
        support_tol: 1e-6,
        seed: 1,
        ..Default::default()
    }
}

fn bench_uoi_lasso(c: &mut Criterion) {
    let ds = LinearConfig {
        n_samples: 120,
        n_features: 40,
        n_nonzero: 6,
        seed: 5,
        ..Default::default()
    }
    .generate();
    c.bench_function("uoi_lasso_120x40", |b| {
        b.iter(|| {
            UoiFitter::new(quick_cfg())
                .fit(black_box(&ds.x), &ds.y)
                .unwrap()
        })
    });
}

fn bench_uoi_var(c: &mut Criterion) {
    let proc = VarProcess::generate(&VarConfig {
        p: 10,
        order: 1,
        density: 0.12,
        seed: 3,
        ..Default::default()
    });
    let series = proc.simulate(400, 50, 4);
    let cfg = UoiVarConfig {
        order: 1,
        block_len: None,
        base: quick_cfg(),
    };
    c.bench_function("uoi_var_400x10", |b| {
        b.iter(|| {
            UoiVarFitter::new(cfg.clone())
                .fit(black_box(&series))
                .unwrap()
        })
    });
}

fn bench_var_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("var_regression_build");
    for &p in &[50usize, 200] {
        let series =
            uoi_linalg::Matrix::from_fn(2 * p, p, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| VarRegression::build(black_box(&series), 1))
        });
    }
    g.finish();
}

fn bench_shf(c: &mut Criterion) {
    let m = uoi_linalg::Matrix::from_fn(2048, 64, |i, j| (i * 64 + j) as f64);
    let path = std::env::temp_dir().join(format!("uoi_bench_{}.shf", std::process::id()));
    uoi_tieredio::write_matrix(&path, &m).unwrap();
    let ds = uoi_tieredio::ShfDataset::open(&path).unwrap();
    c.bench_function("shf_hyperslab_512rows", |b| {
        b.iter(|| ds.read_rows(black_box(700), 1212).unwrap())
    });
    std::fs::remove_file(&path).ok();
}

fn bench_cluster_allreduce(c: &mut Criterion) {
    c.bench_function("cluster8_allreduce_x100", |b| {
        b.iter(|| {
            Cluster::new(8, MachineModel::deterministic()).run(|ctx, world| {
                for _ in 0..100 {
                    let mut v = vec![1.0; 256];
                    world.allreduce_sum(ctx, &mut v);
                }
            })
        })
    });
}

criterion_group! {
    name = pipeline;
    // End-to-end fits are seconds-long; keep the sample budget small.
    config = Criterion::default().sample_size(10);
    targets = bench_uoi_lasso,
        bench_uoi_var,
        bench_var_build,
        bench_shf,
        bench_cluster_allreduce
}
criterion_main!(pipeline);

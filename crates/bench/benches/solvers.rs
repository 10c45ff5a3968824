//! Criterion microbenchmarks of the optimisation layer: soft threshold,
//! serial LASSO-ADMM (cold / warm / OLS), the screened serial λ path at
//! the `UoI_VAR` column shape, the screened consensus λ path, coordinate
//! descent, and the bootstrap samplers feeding the UoI maps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uoi_core::VarRegression;
use uoi_data::bootstrap::{block_bootstrap, row_bootstrap};
use uoi_data::rng::seeded;
use uoi_data::{VarConfig, VarProcess};
use uoi_linalg::{gemv_t, syrk_t_upper, testgen, Matrix};
use uoi_mpisim::{Cluster, MachineModel};
use uoi_solvers::{
    geometric_grid, lasso_cd, soft_threshold_vec, AdmmConfig, CdConfig, DistLassoAdmm, LassoAdmm,
};

fn problem(n: usize, p: usize) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(n, p, |i, j| {
        (((i * 131 + j * 37) % 509) as f64 - 254.0) / 254.0
    });
    let y: Vec<f64> = (0..n)
        .map(|i| 2.0 * x[(i, 1)] - x[(i, 3)] + 0.1 * ((i % 11) as f64 - 5.0))
        .collect();
    (x, y)
}

fn bench_prox(c: &mut Criterion) {
    let a: Vec<f64> = (0..100_000)
        .map(|i| (i as f64 * 0.013).sin() * 3.0)
        .collect();
    let mut out = vec![0.0; a.len()];
    c.bench_function("soft_threshold_100k", |b| {
        b.iter(|| soft_threshold_vec(black_box(&a), 0.5, &mut out))
    });
}

fn bench_admm(c: &mut Criterion) {
    let mut g = c.benchmark_group("lasso_admm");
    for &(n, p) in &[(200usize, 50usize), (100, 400)] {
        let (x, y) = problem(n, p);
        let label = format!("{n}x{p}");
        g.bench_with_input(BenchmarkId::new("factor", &label), &n, |b, _| {
            b.iter(|| LassoAdmm::new(black_box(x.clone()), AdmmConfig::default()))
        });
        let solver = LassoAdmm::new(x.clone(), AdmmConfig::default());
        let lam = uoi_solvers::lambda_max(&x, &y) * 0.1;
        g.bench_with_input(BenchmarkId::new("solve", &label), &n, |b, _| {
            b.iter(|| solver.solve(black_box(&y), lam))
        });
        let lambdas = uoi_solvers::lambda_path(&x, &y, 10, 1e-2);
        g.bench_with_input(BenchmarkId::new("path10", &label), &n, |b, _| {
            b.iter(|| solver.solve_path(black_box(&y), &lambdas))
        });
        g.bench_with_input(BenchmarkId::new("ols", &label), &n, |b, _| {
            b.iter(|| solver.solve_ols(black_box(&y)))
        });
    }
    g.finish();
}

/// The screened λ paths of one `UoI_VAR` selection bootstrap at the
/// `var_dist` benchmark's shape: a VAR(1) over p = 64 series (density
/// 5e-2, spectral radius 0.6) observed for n = 256 steps, so one 64 x 64
/// lag Gram shared by 64 response columns, each solved over the fit's
/// q = 8 λs down to 5e-2 λ_max with `max_iter` 200. The Gram and the rhs
/// are built outside the timed loop; a timed run builds the solver and
/// solves every column's path, polishing each λ.
fn bench_screened_path(c: &mut Criterion) {
    let process = VarProcess::generate(&VarConfig {
        p: 64,
        order: 1,
        density: 0.05,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 2,
    });
    let mut series = process.simulate(256, 50, 3);
    series.center_cols(&series.col_means());
    let reg = VarRegression::build(&series, 1);
    let gram = syrk_t_upper(&reg.x).into_upper();
    let rhs: Vec<Vec<f64>> = (0..reg.dim())
        .map(|i| gemv_t(&reg.x, &reg.y.col(i)))
        .collect();
    let lmax = rhs.iter().flatten().fold(0.0_f64, |m, v| m.max(v.abs()));
    let lambdas = geometric_grid(lmax, 0.05 * lmax, 8);
    let cfg = AdmmConfig {
        max_iter: 200,
        ..AdmmConfig::default()
    };
    let mut g = c.benchmark_group("screened_path");
    g.bench_function("var_columns_64", |b| {
        b.iter(|| {
            let solver = LassoAdmm::from_gram(gram.clone(), cfg.clone());
            rhs.iter()
                .map(|xty| solver.solve_path_with_rhs(black_box(xty), &lambdas))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

/// The consensus λ path at the `lasso_dist` benchmark's shape (n = 4096,
/// p = 256, 20 true features, q = 8 λs down to 5e-2 λ_max, `max_iter`
/// 150) on 1 and 2 ranks, screened. Each rank's Gram and rhs are built
/// outside the timed loop; a timed run spawns the cluster, factors each
/// rank's full local system and solves the path.
fn bench_consensus_path(c: &mut Criterion) {
    let (n, p) = (4096, 256);
    let x = testgen::random_design(2, n, p);
    let y: Vec<f64> = (0..n)
        .map(|i| {
            (0..20)
                .map(|j| x[(i, j)] * (1.0 + 0.1 * j as f64))
                .sum::<f64>()
        })
        .collect();
    let lmax = uoi_solvers::lambda_max(&x, &y);
    let lambdas = geometric_grid(lmax, 0.05 * lmax, 8);
    let mut g = c.benchmark_group("consensus_path");
    for ranks in [1usize, 2] {
        let rows = n / ranks;
        let systems: Vec<(Matrix, Vec<f64>)> = (0..ranks)
            .map(|r| {
                let xl = x.rows_range(r * rows, (r + 1) * rows);
                let xty = gemv_t(&xl, &y[r * rows..(r + 1) * rows]);
                (syrk_t_upper(&xl).into_upper(), xty)
            })
            .collect();
        let cfg = AdmmConfig {
            max_iter: 150,
            ..AdmmConfig::default()
        };
        let id = BenchmarkId::new("sequential", ranks);
        g.bench_with_input(id, &ranks, |b, &ranks| {
            b.iter(|| {
                Cluster::new(ranks, MachineModel::deterministic()).run(|ctx, comm| {
                    let (gram, xty) = &systems[comm.rank()];
                    DistLassoAdmm::from_gram(ctx, comm, gram.clone(), rows, cfg.clone())
                        .solve_path_with_rhs(ctx, comm, black_box(xty), &lambdas)
                })
            })
        });
    }
    g.finish();
}

fn bench_cd(c: &mut Criterion) {
    let (x, y) = problem(200, 50);
    let lam = uoi_solvers::lambda_max(&x, &y) * 0.1;
    c.bench_function("lasso_cd_200x50", |b| {
        b.iter(|| lasso_cd(black_box(&x), &y, lam, &CdConfig::default()))
    });
}

fn bench_bootstrap(c: &mut Criterion) {
    let mut g = c.benchmark_group("bootstrap");
    g.bench_function("row_10k", |b| {
        let mut rng = seeded(1);
        b.iter(|| row_bootstrap(&mut rng, 10_000, 10_000))
    });
    g.bench_function("block_10k", |b| {
        let mut rng = seeded(2);
        b.iter(|| block_bootstrap(&mut rng, 10_000, 10_000, 22))
    });
    g.finish();
}

criterion_group! {
    name = solvers;
    config = Criterion::default().sample_size(20);
    targets = bench_prox, bench_admm, bench_screened_path, bench_consensus_path, bench_cd,
        bench_bootstrap
}
criterion_main!(solvers);

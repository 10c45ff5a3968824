//! Criterion microbenchmarks of the zero-copy bootstrap kernels: the
//! weighted Gram accumulation that replaces `gather_rows` + `syrk_t`,
//! the blocked right-looking Cholesky, and the warm screened ADMM λ path
//! on a precomputed `X^T y`, as in selection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uoi_data::bootstrap::{resample_weights, row_bootstrap};
use uoi_data::rng::substream;
use uoi_linalg::{gemv_t, gemv_t_weighted, syrk_t, syrk_t_weighted, Cholesky, Matrix};
use uoi_solvers::{AdmmConfig, LassoAdmm};

fn matrix(n: usize, p: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, p, |i, j| {
        (((i * 31 + j * 17 + seed) % 1009) as f64 - 504.0) / 504.0
    })
}

/// Weighted Gram accumulation vs materialising the resample first —
/// the tentpole replacement in the selection loop.
fn bench_weighted_syrk(c: &mut Criterion) {
    let mut g = c.benchmark_group("bootstrap_gram");
    for &(n, p) in &[(512usize, 64usize), (2048, 128)] {
        let x = matrix(n, p, 7);
        let mut rng = substream(42, 0);
        let idx = row_bootstrap(&mut rng, n, n);
        let w = resample_weights(&idx, n);
        g.throughput(Throughput::Elements((n * p * p) as u64));
        let label = format!("{n}x{p}");
        g.bench_with_input(BenchmarkId::new("weighted", &label), &n, |b, _| {
            b.iter(|| syrk_t_weighted(black_box(&x), black_box(&w)))
        });
        g.bench_with_input(BenchmarkId::new("materialized", &label), &n, |b, _| {
            b.iter(|| syrk_t(&x.gather_rows(black_box(&idx))))
        });
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        g.bench_with_input(BenchmarkId::new("weighted_rhs", &label), &n, |b, _| {
            b.iter(|| gemv_t_weighted(black_box(&x), black_box(&w), black_box(&y)))
        });
    }
    g.finish();
}

/// Blocked right-looking factorisation (kicks in at order >= 128)
/// against orders below the dispatch threshold for reference.
fn bench_blocked_cholesky(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocked_cholesky");
    for &p in &[96usize, 192, 384] {
        let x = matrix(2 * p, p, 11);
        let mut gram = syrk_t(&x);
        for i in 0..p {
            gram[(i, i)] += p as f64;
        }
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| Cholesky::factor(black_box(&gram)).unwrap())
        });
    }
    g.finish();
}

/// Warm-path ADMM: a full screened λ path against a precomputed
/// `X^T y`, as in selection (allocation-free once its state is warm).
fn bench_admm_warm_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("admm_warm");
    let (n, p) = (400usize, 80usize);
    let x = matrix(n, p, 13);
    let y: Vec<f64> = (0..n)
        .map(|i| 2.0 * x[(i, 1)] - x[(i, 3)] + 0.1 * ((i % 11) as f64 - 5.0))
        .collect();
    let xty = gemv_t(&x, &y);
    let solver = LassoAdmm::new(x, AdmmConfig::default());
    let lambdas: Vec<f64> = (0..24).map(|i| 0.5 * 0.8f64.powi(i)).collect();

    g.bench_function("path", |b| {
        b.iter(|| solver.solve_path_with_rhs(black_box(&xty), &lambdas))
    });
    g.finish();
}

criterion_group!(
    zero_copy,
    bench_weighted_syrk,
    bench_blocked_cholesky,
    bench_admm_warm_paths
);
criterion_main!(zero_copy);

//! Criterion microbenchmarks of the linear-algebra kernels the solvers
//! are built on — the operations the paper's roofline analysis profiles
//! (gemm / gemv / Cholesky / the matrix-free Kronecker product).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uoi_linalg::{gemm, gemv, gemv_t, kernels, syrk_t, Cholesky, IdentityKron, Matrix};

fn matrix(n: usize, p: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, p, |i, j| {
        (((i * 31 + j * 17 + seed) % 1009) as f64 - 504.0) / 504.0
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    for &n in &[64usize, 128, 256] {
        let a = matrix(n, n, 1);
        let b = matrix(n, n, 2);
        g.throughput(Throughput::Elements((2 * n * n * n) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| gemm(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn bench_gemv(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemv");
    for &(n, p) in &[(256usize, 1024usize), (1024, 256), (2048, 2048)] {
        let a = matrix(n, p, 3);
        let x: Vec<f64> = (0..p).map(|i| (i as f64 * 0.37).sin()).collect();
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
        g.throughput(Throughput::Elements((2 * n * p) as u64));
        g.bench_with_input(BenchmarkId::new("Ax", format!("{n}x{p}")), &n, |b, _| {
            b.iter(|| gemv(black_box(&a), black_box(&x)))
        });
        g.bench_with_input(BenchmarkId::new("Atx", format!("{n}x{p}")), &n, |b, _| {
            b.iter(|| gemv_t(black_box(&a), black_box(&xt)))
        });
    }
    g.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let mut g = c.benchmark_group("cholesky");
    for &p in &[32usize, 64, 128] {
        let x = matrix(2 * p, p, 5);
        let mut gram = syrk_t(&x);
        for i in 0..p {
            gram[(i, i)] += 1.0;
        }
        g.bench_with_input(BenchmarkId::new("factor", p), &p, |b, _| {
            b.iter(|| Cholesky::factor(black_box(&gram)).unwrap())
        });
        let ch = Cholesky::factor(&gram).unwrap();
        let rhs: Vec<f64> = (0..p).map(|i| i as f64).collect();
        g.bench_with_input(BenchmarkId::new("solve", p), &p, |b, _| {
            b.iter(|| ch.solve(black_box(&rhs)))
        });
    }
    g.finish();
}

fn bench_kron(c: &mut Criterion) {
    let mut g = c.benchmark_group("kron");
    // The UoI_VAR block-diagonal structure: I_p ⊗ X with X (2p x p).
    for &p in &[32usize, 64] {
        let x = matrix(2 * p, p, 7);
        let op = IdentityKron::new(x, p);
        let v: Vec<f64> = (0..p * p).map(|i| (i as f64 * 0.11).sin()).collect();
        g.bench_with_input(BenchmarkId::new("matvec", p), &p, |b, _| {
            b.iter(|| op.matvec(black_box(&v)))
        });
    }
    g.finish();
}

fn bench_inner_kernels(c: &mut Criterion) {
    // The ADMM inner-loop primitives from `uoi_linalg::kernels`: these are
    // the hot loops the `admm_local` phase spends its modeled time in.
    let mut g = c.benchmark_group("inner_kernels");
    for &n in &[256usize, 4096] {
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos()).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("dot", n), &n, |bench, _| {
            bench.iter(|| kernels::dot(black_box(&a), black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("axpy", n), &n, |bench, _| {
            let mut y = b.clone();
            bench.iter(|| kernels::axpy(black_box(1.7), black_box(&a), black_box(&mut y)))
        });
        g.bench_with_input(BenchmarkId::new("soft_threshold", n), &n, |bench, _| {
            let mut out = vec![0.0; n];
            bench.iter(|| kernels::soft_threshold(black_box(&a), black_box(0.4), &mut out))
        });
    }
    g.finish();
}

fn bench_symv(c: &mut Criterion) {
    // Blocked symmetric matvec of the x-update vs the general gemv it
    // replaces — the win is halved memory traffic on the Gram matrix.
    let mut g = c.benchmark_group("symv");
    for &p in &[128usize, 512] {
        let x = matrix(2 * p, p, 9);
        let gram = syrk_t(&x);
        let v: Vec<f64> = (0..p).map(|i| (i as f64 * 0.29).sin()).collect();
        g.throughput(Throughput::Elements((p * p) as u64));
        g.bench_with_input(BenchmarkId::new("symv", p), &p, |b, _| {
            let mut out = vec![0.0; p];
            b.iter(|| kernels::symv(black_box(&gram), black_box(&v), &mut out))
        });
        g.bench_with_input(BenchmarkId::new("gemv", p), &p, |b, _| {
            b.iter(|| gemv(black_box(&gram), black_box(&v)))
        });
    }
    g.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_gemv, bench_cholesky, bench_kron,
        bench_inner_kernels, bench_symv
}
criterion_main!(kernels);

//! Criterion benchmarks of the batched multi-bootstrap Gram engine
//! (`uoi_linalg::gram`): the batched one-pass kernel against (a) the
//! per-bootstrap weighted-SYRK loop it replaces and (b) the materialise-
//! then-SYRK baseline the zero-copy path already beat. Shapes follow the
//! fig2 (LASSO single node, tall n x p) and fig7 (VAR, square-ish dp)
//! pipeline workloads, plus the `lasso_gram` shape of the repository
//! benchmark (`uoi_benchmark`), where most of its measured time sits, once
//! on the dispatched micro-kernel and once on each variant forced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uoi_linalg::gram::{gram_rhs_batch_on, Kernel};
use uoi_linalg::{gram_rhs_batch, syrk_t_weighted, syrk_t_weighted_batch, Matrix};

fn matrix(n: usize, p: usize, seed: usize) -> Matrix {
    Matrix::from_fn(n, p, |i, j| {
        (((i * 31 + j * 17 + seed) % 1009) as f64 - 504.0) / 504.0
    })
}

/// Bootstrap-style multiplicity weights: roughly 1/e zeros, integer mass.
fn weights(n: usize, seed: u64) -> Vec<f64> {
    let mut w = vec![0.0f64; n];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        w[(state % n as u64) as usize] += 1.0;
    }
    w
}

fn bench_gram_batch(c: &mut Criterion) {
    // (label, n, p): fig2 solves tall blocks per rank; fig7's VAR
    // vectorisation works on the dp-wide lag regression.
    let shapes = [("fig2_block", 512usize, 256usize), ("fig7_var", 384, 128)];
    const B: usize = 5; // the paper's B1 = B2 = 5 pipeline setting
    for (label, n, p) in shapes {
        let a = matrix(n, p, 7);
        let ws: Vec<Vec<f64>> = (0..B).map(|k| weights(n, 1 + k as u64)).collect();
        let wrefs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        let mut g = c.benchmark_group(format!("gram_batch/{label}"));
        g.throughput(Throughput::Elements((B * n * p * p) as u64));
        g.bench_with_input(BenchmarkId::new("batched", B), &B, |bench, _| {
            bench.iter(|| syrk_t_weighted_batch(black_box(&a), black_box(&wrefs)))
        });
        g.bench_with_input(BenchmarkId::new("per_bootstrap_loop", B), &B, |bench, _| {
            bench.iter(|| {
                wrefs
                    .iter()
                    .map(|w| syrk_t_weighted(black_box(&a), w))
                    .collect::<Vec<_>>()
            })
        });
        g.bench_with_input(BenchmarkId::new("materialized", B), &B, |bench, _| {
            bench.iter(|| {
                ws.iter()
                    .map(|w| {
                        // Gather the resample physically (row copies with
                        // multiplicity), then build the plain Gram — the
                        // pre-zero-copy reference cost.
                        let rows: Vec<usize> = w
                            .iter()
                            .enumerate()
                            .flat_map(|(i, &c)| std::iter::repeat_n(i, c as usize))
                            .collect();
                        let xb = black_box(&a).gather_rows(&rows);
                        uoi_linalg::syrk_t(&xb)
                    })
                    .collect::<Vec<_>>()
            })
        });
        g.finish();
    }
}

/// The selection-stage Gram of `uoi_benchmark`'s `lasso_gram` workload:
/// `gram_rhs_batch` over n = 4096, p = 256 with B = 5 bootstrap weightings.
/// The throughput counts flops as the benchmark's traced run does (the
/// upper triangle, `n p (p + 1)`, plus the rhs, `2 n p`, per resample),
/// so the printed elem/s read as flop/s: divide by 1e9 for GFLOP/s.
fn bench_lasso_gram_shape(c: &mut Criterion) {
    // Name the dispatched kernel, so a log says which variant ran.
    println!("gram kernel: {}", uoi_linalg::gram::kernel_variant());
    const B: usize = 5;
    let (n, p) = (4096usize, 256usize);
    let a = matrix(n, p, 11);
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let ws: Vec<Vec<f64>> = (0..B).map(|k| weights(n, 21 + k as u64)).collect();
    let wrefs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
    let mut g = c.benchmark_group("gram_batch/lasso_gram");
    g.sample_size(10);
    g.throughput(Throughput::Elements(
        (B * (n * p * (p + 1) + 2 * n * p)) as u64,
    ));
    g.bench_with_input(BenchmarkId::new("gram_rhs_batch", B), &B, |bench, _| {
        bench.iter(|| gram_rhs_batch(black_box(&a), black_box(&y), black_box(&wrefs)))
    });
    g.finish();

    // The same batch on each micro-kernel variant this CPU runs, forced,
    // named by its `kernel_variant` string. All variants give the same
    // bits; only the time differs.
    let mut g = c.benchmark_group("gram_batch/lasso_gram_forced");
    g.sample_size(10);
    g.throughput(Throughput::Elements(
        (B * (n * p * (p + 1) + 2 * n * p)) as u64,
    ));
    for &kernel in Kernel::ALL.iter().filter(|k| k.supported()) {
        g.bench_with_input(BenchmarkId::new(kernel.name(), B), &B, |bench, _| {
            bench
                .iter(|| gram_rhs_batch_on(kernel, black_box(&a), black_box(&y), black_box(&wrefs)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gram_batch, bench_lasso_gram_shape);
criterion_main!(benches);

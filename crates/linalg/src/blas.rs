//! BLAS-style dense kernels: dot/axpy (level 1), gemv (level 2), and a
//! cache-blocked, rayon-parallel gemm / syrk (level 3).
//!
//! The reference implementation leaned on Intel MKL for these; here we write
//! straightforward blocked kernels. They are not MKL-fast, but they expose
//! the same computational structure (the solvers' flop counts and
//! memory-traffic ratios are identical), which is what the scaling study
//! measures.

use crate::dense::Matrix;
use rayon::prelude::*;

/// Minimum total flop count before a kernel bothers spawning rayon tasks.
const PAR_FLOP_THRESHOLD: usize = 1 << 18;

/// Micro-kernel block edge for gemm (tuned for ~32 KiB L1 working sets).
const MC: usize = 64;
const KC: usize = 128;

/// Dot product of two equal-length slices.
///
/// Delegates to [`crate::kernels::dot`], whose lane-unrolled accumulation
/// is bit-identical to the historical 4-way unrolled loop here.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    crate::kernels::dot(a, b)
}

/// `y += alpha * x`. Delegates to [`crate::kernels::axpy`] (elementwise,
/// so bit-identical to the historical scalar loop).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    crate::kernels::axpy(alpha, x, y)
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `||a - b||` without materialising the difference vector.
///
/// The accumulation structure mirrors [`dot`] exactly (4-way unrolled, same
/// order), so the result is bit-identical to `norm2` of the materialised
/// difference — which lets the ADMM inner loop drop its `r` temporary
/// without perturbing convergence decisions.
#[inline]
pub fn norm2_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for c in 0..chunks {
        let i = c * 4;
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut s = s0 + s1 + s2 + s3;
    for i in chunks * 4..n {
        let d = a[i] - b[i];
        s += d * d;
    }
    s.sqrt()
}

/// `||c * (a - b)||` without materialising the scaled difference
/// (bit-identical to `norm2` of the materialised vector; see [`norm2_diff`]).
#[inline]
pub fn norm2_scaled_diff(c: f64, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for ch in 0..chunks {
        let i = ch * 4;
        let d0 = c * (a[i] - b[i]);
        let d1 = c * (a[i + 1] - b[i + 1]);
        let d2 = c * (a[i + 2] - b[i + 2]);
        let d3 = c * (a[i + 3] - b[i + 3]);
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut s = s0 + s1 + s2 + s3;
    for i in chunks * 4..n {
        let d = c * (a[i] - b[i]);
        s += d * d;
    }
    s.sqrt()
}

/// `||c * x||` without materialising the scaled vector
/// (bit-identical to `norm2` of the materialised vector; see [`norm2_diff`]).
#[inline]
pub fn norm2_scaled(c: f64, x: &[f64]) -> f64 {
    let n = x.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for ch in 0..chunks {
        let i = ch * 4;
        let d0 = c * x[i];
        let d1 = c * x[i + 1];
        let d2 = c * x[i + 2];
        let d3 = c * x[i + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut s = s0 + s1 + s2 + s3;
    for i in chunks * 4..n {
        let d = c * x[i];
        s += d * d;
    }
    s.sqrt()
}

/// L1 norm.
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Infinity norm.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// `a - b` as a fresh vector.
pub fn vsub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Matrix-vector product `A * x`.
///
/// Row-major layout makes this a sequence of dot products; rows are
/// processed in parallel above the flop threshold.
pub fn gemv(a: &Matrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.cols(), x.len(), "gemv: dimension mismatch");
    let flops = a.rows() * a.cols() * 2;
    if flops >= PAR_FLOP_THRESHOLD {
        (0..a.rows())
            .into_par_iter()
            .map(|i| dot(a.row(i), x))
            .collect()
    } else {
        (0..a.rows()).map(|i| dot(a.row(i), x)).collect()
    }
}

/// Transposed matrix-vector product `A^T * x` without materialising `A^T`.
pub fn gemv_t(a: &Matrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(a.rows(), x.len(), "gemv_t: dimension mismatch");
    let cols = a.cols();
    let flops = a.rows() * cols * 2;
    if flops >= PAR_FLOP_THRESHOLD && cols >= 64 {
        // Parallelise over row blocks and reduce partial column sums.
        let nblocks = rayon::current_num_threads().max(1);
        let block = a.rows().div_ceil(nblocks);
        (0..a.rows())
            .into_par_iter()
            .step_by(block.max(1))
            .map(|start| {
                let end = (start + block).min(a.rows());
                let mut acc = vec![0.0; cols];
                for i in start..end {
                    axpy(x[i], a.row(i), &mut acc);
                }
                acc
            })
            .reduce(
                || vec![0.0; cols],
                |mut a, b| {
                    for (ai, bi) in a.iter_mut().zip(&b) {
                        *ai += bi;
                    }
                    a
                },
            )
    } else {
        let mut y = vec![0.0; cols];
        for i in 0..a.rows() {
            axpy(x[i], a.row(i), &mut y);
        }
        y
    }
}

/// General matrix-matrix product `A * B`.
///
/// Cache-blocked (`MC x KC` panels) with rayon parallelism over row panels.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    let flops = 2 * m * n * k;

    let body = |i_panel: usize, c_panel: &mut [f64]| {
        let i_end = (i_panel + MC).min(m);
        for k_panel in (0..k).step_by(KC) {
            let k_end = (k_panel + KC).min(k);
            for i in i_panel..i_end {
                let a_row = a.row(i);
                let c_row = &mut c_panel[(i - i_panel) * n..(i - i_panel) * n + n];
                for kk in k_panel..k_end {
                    let aik = a_row[kk];
                    if aik != 0.0 {
                        axpy(aik, b.row(kk), c_row);
                    }
                }
            }
        }
    };

    if flops >= PAR_FLOP_THRESHOLD {
        let n_cols = n;
        c.as_mut_slice()
            .par_chunks_mut(MC * n_cols)
            .enumerate()
            .for_each(|(pi, chunk)| body(pi * MC, chunk));
    } else {
        for i_panel in (0..m).step_by(MC) {
            let i_end = (i_panel + MC).min(m);
            // Safe split: operate on the owned rows of this panel.
            let range = i_panel * n..i_end * n;
            let mut panel = vec![0.0; range.len()];
            body(i_panel, &mut panel);
            c.as_mut_slice()[range].copy_from_slice(&panel);
        }
    }
    c
}

/// Symmetric rank-k update computing the Gram matrix `A^T * A`
/// (the `X^T X` of the ADMM x-update).
///
/// Only the upper triangle is computed directly (by the packed, tiled
/// engine in [`crate::gram`]); the result is mirrored so callers get a
/// full symmetric matrix. Callers that only read the upper triangle
/// should use [`crate::gram::syrk_t_upper`] and skip the mirror.
pub fn syrk_t(a: &Matrix) -> Matrix {
    crate::gram::syrk_t_upper(a).into_full()
}

/// Matrix-vector product `A * x` written into a caller-owned buffer.
///
/// Produces results bit-identical to [`gemv`] (same per-row dot products)
/// without allocating; `out` is resized to `a.rows()` if needed.
pub fn gemv_into(a: &Matrix, x: &[f64], out: &mut Vec<f64>) {
    assert_eq!(a.cols(), x.len(), "gemv_into: dimension mismatch");
    out.clear();
    out.reserve(a.rows());
    let flops = a.rows() * a.cols() * 2;
    if flops >= PAR_FLOP_THRESHOLD {
        (0..a.rows())
            .into_par_iter()
            .map(|i| dot(a.row(i), x))
            .collect_into_vec(out);
    } else {
        out.extend((0..a.rows()).map(|i| dot(a.row(i), x)));
    }
}

/// Transposed matrix-vector product `A^T * x` written into a caller-owned
/// buffer. Serial accumulation (bit-identical to the serial [`gemv_t`] path).
pub fn gemv_t_into(a: &Matrix, x: &[f64], out: &mut Vec<f64>) {
    assert_eq!(a.rows(), x.len(), "gemv_t_into: dimension mismatch");
    out.clear();
    out.resize(a.cols(), 0.0);
    for i in 0..a.rows() {
        axpy(x[i], a.row(i), out);
    }
}

/// Weighted Gram matrix `A^T diag(w) A = Σ_i w_i a_i a_iᵀ`.
///
/// With `w` the integer multiplicities of a bootstrap resample this equals
/// the Gram of the materialised resample (`gather_rows` + [`syrk_t`]) without
/// ever copying the design matrix; rows with `w_i == 0` (out-of-bag) are
/// skipped entirely. Routed through the packed, tiled engine in
/// [`crate::gram`] (one `w` is a batch of one); batching several resamples
/// through [`crate::gram::syrk_t_weighted_batch`] amortizes one pass over
/// `a` across all of them.
pub fn syrk_t_weighted(a: &Matrix, w: &[f64]) -> Matrix {
    assert_eq!(a.rows(), w.len(), "syrk_t_weighted: weight length mismatch");
    crate::gram::syrk_t_weighted_upper(a, w).into_full()
}

/// Weighted transposed matrix-vector product `A^T diag(w) x = Σ_i w_i x_i a_i`.
///
/// With bootstrap multiplicities `w` this equals `X_b^T y_b` of the
/// materialised resample without copying rows. The parallel path combines
/// block partials in ascending block order, so results are deterministic for
/// a fixed thread count.
pub fn gemv_t_weighted(a: &Matrix, w: &[f64], x: &[f64]) -> Vec<f64> {
    assert_eq!(a.rows(), w.len(), "gemv_t_weighted: weight length mismatch");
    assert_eq!(a.rows(), x.len(), "gemv_t_weighted: dimension mismatch");
    let cols = a.cols();
    let flops = a.rows() * cols * 3;
    if flops >= PAR_FLOP_THRESHOLD && cols >= 64 {
        let nblocks = rayon::current_num_threads().max(1);
        let block = a.rows().div_ceil(nblocks).max(1);
        let starts: Vec<usize> = (0..a.rows()).step_by(block).collect();
        let partials: Vec<Vec<f64>> = starts
            .into_par_iter()
            .map(|start| {
                let end = (start + block).min(a.rows());
                let mut acc = vec![0.0; cols];
                for i in start..end {
                    let c = w[i] * x[i];
                    if c != 0.0 {
                        axpy(c, a.row(i), &mut acc);
                    }
                }
                acc
            })
            .collect();
        let mut y = vec![0.0; cols];
        for acc in partials {
            for (yi, ai) in y.iter_mut().zip(&acc) {
                *yi += ai;
            }
        }
        y
    } else {
        let mut y = vec![0.0; cols];
        for i in 0..a.rows() {
            let c = w[i] * x[i];
            if c != 0.0 {
                axpy(c, a.row(i), &mut y);
            }
        }
        y
    }
}

/// Weighted sum of squares `Σ_i w_i x_i²` (the `y^T y` term of a weighted
/// residual-sum-of-squares computed from Gram-space quantities).
pub fn weighted_sumsq(w: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(w.len(), x.len());
    let mut s = 0.0;
    for (wi, xi) in w.iter().zip(x) {
        if *wi != 0.0 {
            s += wi * xi * xi;
        }
    }
    s
}

/// Mean squared error `||y - X beta||^2 / n` (the loss used in the UoI
/// model-estimation scoring step).
pub fn mse(x: &Matrix, beta: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.rows(), y.len());
    let pred = gemv(x, beta);
    let n = y.len().max(1) as f64;
    pred.iter()
        .zip(y)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / n
}

/// [`mse`] with a caller-owned prediction buffer: bit-identical result,
/// zero allocations once `pred` has capacity `x.rows()`.
pub fn mse_into(x: &Matrix, beta: &[f64], y: &[f64], pred: &mut Vec<f64>) -> f64 {
    assert_eq!(x.rows(), y.len());
    gemv_into(x, beta, pred);
    let n = y.len().max(1) as f64;
    pred.iter()
        .zip(y)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / n
}

/// Coefficient of determination R^2 on (`x`,`y`) for `beta`.
pub fn r_squared(x: &Matrix, beta: &[f64], y: &[f64]) -> f64 {
    let n = y.len();
    if n == 0 {
        return 0.0;
    }
    let mean = y.iter().sum::<f64>() / n as f64;
    let ss_tot: f64 = y.iter().map(|v| (v - mean) * (v - mean)).sum();
    let pred = gemv(x, beta);
    let ss_res: f64 = pred.iter().zip(y).map(|(p, t)| (p - t) * (p - t)).sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// [`r_squared`] with a caller-owned prediction buffer: bit-identical result,
/// zero allocations once `pred` has capacity `x.rows()`.
pub fn r_squared_into(x: &Matrix, beta: &[f64], y: &[f64], pred: &mut Vec<f64>) -> f64 {
    let n = y.len();
    if n == 0 {
        return 0.0;
    }
    let mean = y.iter().sum::<f64>() / n as f64;
    let ss_tot: f64 = y.iter().map(|v| (v - mean) * (v - mean)).sum();
    gemv_into(x, beta, pred);
    let ss_res: f64 = pred.iter().zip(y).map(|(p, t)| (p - t) * (p - t)).sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn dot_and_norms() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 35.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm1(&[-1.0, 2.0, -3.0]), 6.0);
        assert_eq!(norm_inf(&[-1.0, 2.0, -3.0]), 3.0);
    }

    #[test]
    fn gemv_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(gemv(&a, &[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(gemv_t(&a, &[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn gemm_small_matches_naive() {
        let a = Matrix::from_fn(7, 5, |i, j| (i + 2 * j) as f64 * 0.5);
        let b = Matrix::from_fn(5, 6, |i, j| (3 * i + j) as f64 * 0.25 - 1.0);
        assert!(gemm(&a, &b).approx_eq(&naive_gemm(&a, &b), 1e-12));
    }

    #[test]
    fn gemm_large_parallel_matches_naive() {
        let a = Matrix::from_fn(150, 90, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(90, 110, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        assert!(gemm(&a, &b).approx_eq(&naive_gemm(&a, &b), 1e-9));
    }

    #[test]
    fn syrk_matches_gemm_transpose() {
        let a = Matrix::from_fn(40, 25, |i, j| ((i + j * j) % 7) as f64 - 3.0);
        let expected = gemm(&a.transpose(), &a);
        assert!(syrk_t(&a).approx_eq(&expected, 1e-10));
    }

    #[test]
    fn syrk_large_parallel_path() {
        let a = Matrix::from_fn(200, 80, |i, j| ((i * 13 + j * 29) % 17) as f64 * 0.1);
        let expected = gemm(&a.transpose(), &a);
        assert!(syrk_t(&a).approx_eq(&expected, 1e-9));
    }

    #[test]
    fn gemv_large_parallel_path() {
        let a = Matrix::from_fn(600, 700, |i, j| ((i + j) % 5) as f64);
        let x: Vec<f64> = (0..700).map(|i| (i % 3) as f64).collect();
        let seq: Vec<f64> = (0..600).map(|i| dot(a.row(i), &x)).collect();
        assert_eq!(gemv(&a, &x), seq);
        let xt: Vec<f64> = (0..600).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut expected = vec![0.0; 700];
        for i in 0..600 {
            axpy(xt[i], a.row(i), &mut expected);
        }
        let got = gemv_t(&a, &xt);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_syrk_matches_materialized() {
        let a = Matrix::from_fn(30, 12, |i, j| ((i * 5 + j * 11) % 9) as f64 - 4.0);
        // Bootstrap-style integer multiplicities, including zeros (OOB rows).
        let idx: Vec<usize> = (0..30).map(|i| (i * 17 + 3) % 30).collect();
        let mut w = vec![0.0; 30];
        for &i in &idx {
            w[i] += 1.0;
        }
        let gathered = a.gather_rows(&idx);
        let expected = syrk_t(&gathered);
        let got = syrk_t_weighted(&a, &w);
        assert!(got.approx_eq(&expected, 1e-10));
    }

    #[test]
    fn weighted_syrk_large_parallel_path() {
        let a = Matrix::from_fn(120, 64, |i, j| ((i * 13 + j * 29) % 17) as f64 * 0.1);
        let w: Vec<f64> = (0..120).map(|i| ((i * 7) % 4) as f64).collect();
        let idx: Vec<usize> = (0..120)
            .flat_map(|i| std::iter::repeat_n(i, (i * 7) % 4))
            .collect();
        let expected = syrk_t(&a.gather_rows(&idx));
        assert!(syrk_t_weighted(&a, &w).approx_eq(&expected, 1e-9));
    }

    #[test]
    fn weighted_gemv_t_matches_materialized() {
        let a = Matrix::from_fn(25, 7, |i, j| ((i + 3 * j) % 6) as f64 - 2.0);
        let y: Vec<f64> = (0..25).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let idx: Vec<usize> = (0..25).map(|i| (i * 11 + 2) % 25).collect();
        let mut w = vec![0.0; 25];
        for &i in &idx {
            w[i] += 1.0;
        }
        let yb: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
        let expected = gemv_t(&a.gather_rows(&idx), &yb);
        let got = gemv_t_weighted(&a, &w, &y);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-10, "{g} vs {e}");
        }
        assert!((weighted_sumsq(&w, &y) - yb.iter().map(|v| v * v).sum::<f64>()).abs() < 1e-10);
    }

    #[test]
    fn weighted_kernels_empty_and_zero_weights() {
        let a = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        let w = vec![0.0; 5];
        let g = syrk_t_weighted(&a, &w);
        assert!(g.approx_eq(&Matrix::zeros(3, 3), 0.0));
        assert_eq!(gemv_t_weighted(&a, &w, &[1.0; 5]), vec![0.0; 3]);
        let empty = Matrix::zeros(0, 4);
        assert_eq!(syrk_t_weighted(&empty, &[]).shape(), (4, 4));
        assert_eq!(gemv_t_weighted(&empty, &[], &[]), vec![0.0; 4]);
    }

    #[test]
    fn fused_norms_bit_identical() {
        let a: Vec<f64> = (0..37)
            .map(|i| ((i * 13 + 5) % 11) as f64 * 0.37 - 2.0)
            .collect();
        let b: Vec<f64> = (0..37)
            .map(|i| ((i * 7 + 2) % 9) as f64 * 0.51 - 1.3)
            .collect();
        let rho = 1.7;
        assert_eq!(norm2_diff(&a, &b).to_bits(), norm2(&vsub(&a, &b)).to_bits());
        let scaled: Vec<f64> = a.iter().zip(&b).map(|(x, y)| rho * (x - y)).collect();
        assert_eq!(
            norm2_scaled_diff(rho, &a, &b).to_bits(),
            norm2(&scaled).to_bits()
        );
        let ra: Vec<f64> = a.iter().map(|v| rho * v).collect();
        assert_eq!(norm2_scaled(rho, &a).to_bits(), norm2(&ra).to_bits());
    }

    #[test]
    fn into_variants_bit_identical() {
        let x = Matrix::from_fn(40, 6, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        let beta = [0.5, -1.0, 0.0, 2.0, -0.25, 1.5];
        let y: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let mut pred = Vec::new();
        assert_eq!(
            mse_into(&x, &beta, &y, &mut pred).to_bits(),
            mse(&x, &beta, &y).to_bits()
        );
        assert_eq!(
            r_squared_into(&x, &beta, &y, &mut pred).to_bits(),
            r_squared(&x, &beta, &y).to_bits()
        );
        let mut out = Vec::new();
        gemv_into(&x, &beta, &mut out);
        assert_eq!(out, gemv(&x, &beta));
        let mut outt = Vec::new();
        gemv_t_into(&x, &y, &mut outt);
        let reference = {
            let mut acc = vec![0.0; 6];
            for i in 0..40 {
                axpy(y[i], x.row(i), &mut acc);
            }
            acc
        };
        assert_eq!(outt, reference);
    }

    #[test]
    fn mse_and_r2() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = [2.0, 4.0, 6.0];
        assert!(mse(&x, &[2.0], &y).abs() < 1e-15);
        assert!((r_squared(&x, &[2.0], &y) - 1.0).abs() < 1e-15);
        // Predicting the mean gives R^2 = 0 only if predictions equal mean;
        // a zero coefficient predicts 0, worse than the mean here.
        assert!(r_squared(&x, &[0.0], &y) < 0.0 + 1e-12);
    }
}

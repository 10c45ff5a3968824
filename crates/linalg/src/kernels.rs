//! SIMD-friendly inner-loop kernels behind one coherent naming scheme.
//!
//! These are the hot loops of the ADMM x-/z-updates, written with explicit
//! 4-lane unrolling ([`LANES`]) so LLVM vectorises them without fast-math,
//! plus a scalar remainder loop for the tail. Every kernel follows the same
//! conventions:
//!
//! * inputs first, caller-provided output slice last — no allocating
//!   variants, no `_into`/`_t`/`_weighted` suffix soup;
//! * deterministic accumulation order, fixed regardless of thread count,
//!   so results are reproducible down to `f64::to_bits`;
//! * [`dot`] and [`axpy`] are **bit-identical** to the historical
//!   `blas::dot`/`blas::axpy` loops (which now delegate here): the four
//!   partial accumulators are combined left-to-right exactly as before.
//!
//! [`soft_threshold`] is branchless — `(a-k).max(0) - (-a-k).max(0)` — and
//! bit-identical to the scalar branching prox for every finite input when
//! `kappa > 0` (IEEE negation commutes with rounding, so the second term
//! is exactly `-(a+k)` when it is live); NaN maps to `0.0` and ±∞ pass
//! through, matching the branch version. For `kappa == 0` the sign of a
//! negative zero input is not preserved (the value is still `== 0.0`);
//! the ADMM z-updates only threshold with `kappa > 0`.
//!
//! [`symv`] is the cache-blocked symmetric (Gram) matrix-vector product of
//! the x-update: it reads only the upper triangle, streaming each row
//! suffix once per block so the total memory traffic is half of a general
//! `gemv`. Its accumulation order differs from `gemv`'s row-dot order, so
//! it agrees to ~1e-12 relative rather than bitwise — callers that sit
//! under a bit-identity contract keep using `gemv`.

use crate::dense::Matrix;

/// Lane width of the explicit unrolling: four independent f64 accumulators
/// per loop, matching one AVX2 register (4 × f64) and splitting cleanly
/// across two NEON registers.
pub const LANES: usize = 4;

/// Column-block edge for [`symv`]: a 128-column panel of `x`/`out` (two
/// 1 KiB vectors) stays resident in L1 while a row panel streams past.
const SYMV_BLOCK: usize = 128;

/// Dot product of two equal-length slices.
///
/// Bit-identical to the historical `blas::dot`: four lane accumulators
/// over the `LANES`-aligned prefix, combined left-to-right, then a scalar
/// remainder loop.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let main = n - n % LANES;
    let mut acc = [0.0_f64; LANES];
    for (ac, bc) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        acc[0] += ac[0] * bc[0];
        acc[1] += ac[1] * bc[1];
        acc[2] += ac[2] * bc[2];
        acc[3] += ac[3] * bc[3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in main..n {
        s += a[i] * b[i];
    }
    s
}

/// `y += alpha * x`.
///
/// Elementwise, so lane order does not affect the result: bit-identical to
/// the scalar loop for every input.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let main = n - n % LANES;
    for (yc, xc) in y[..main]
        .chunks_exact_mut(LANES)
        .zip(x[..main].chunks_exact(LANES))
    {
        yc[0] += alpha * xc[0];
        yc[1] += alpha * xc[1];
        yc[2] += alpha * xc[2];
        yc[3] += alpha * xc[3];
    }
    for i in main..n {
        y[i] += alpha * x[i];
    }
}

/// `out = a + b`, elementwise (the `x + u` argument of the z-update).
#[inline]
pub fn add(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let n = a.len();
    let main = n - n % LANES;
    for ((oc, ac), bc) in out[..main]
        .chunks_exact_mut(LANES)
        .zip(a[..main].chunks_exact(LANES))
        .zip(b[..main].chunks_exact(LANES))
    {
        oc[0] = ac[0] + bc[0];
        oc[1] = ac[1] + bc[1];
        oc[2] = ac[2] + bc[2];
        oc[3] = ac[3] + bc[3];
    }
    for i in main..n {
        out[i] = a[i] + b[i];
    }
}

/// Branchless scalar soft threshold; see the module docs for the exact
/// equivalence argument against the branching form.
#[inline(always)]
fn shrink(a: f64, k: f64) -> f64 {
    (a - k).max(0.0) - (-a - k).max(0.0)
}

/// Elementwise soft threshold `out[i] = S_kappa(src[i])` — the proximal
/// operator of `kappa * |.|`, vectorised.
///
/// Requires `kappa >= 0`. For `kappa > 0` the result is bit-identical to
/// the scalar branching prox on every input (NaN → `0.0`, ±∞ preserved).
#[inline]
pub fn soft_threshold(src: &[f64], kappa: f64, out: &mut [f64]) {
    debug_assert_eq!(src.len(), out.len());
    debug_assert!(kappa >= 0.0, "soft_threshold needs kappa >= 0");
    let n = src.len();
    let main = n - n % LANES;
    for (oc, sc) in out[..main]
        .chunks_exact_mut(LANES)
        .zip(src[..main].chunks_exact(LANES))
    {
        oc[0] = shrink(sc[0], kappa);
        oc[1] = shrink(sc[1], kappa);
        oc[2] = shrink(sc[2], kappa);
        oc[3] = shrink(sc[3], kappa);
    }
    for i in main..n {
        out[i] = shrink(src[i], kappa);
    }
}

/// Cache-blocked symmetric matrix-vector product `out = A x` for a
/// symmetric `A` (the Gram matrix of the x-update), reading only the upper
/// triangle.
///
/// Each super-diagonal block contributes twice — once as `A[i][j] x[j]`
/// into `out[i]`, once as `A[i][j] x[i]` into `out[j]` — so every stored
/// element is touched exactly once and the memory traffic is half a
/// general `gemv`'s. Blocks of `SYMV_BLOCK` columns keep the scattered
/// `out[j]` updates L1-resident. Accumulation order differs from `gemv`;
/// agreement is ~1e-12 relative, not bitwise.
pub fn symv(a: &Matrix, x: &[f64], out: &mut [f64]) {
    let p = a.rows();
    assert_eq!(p, a.cols(), "symv: matrix must be square");
    assert_eq!(x.len(), p, "symv: dimension mismatch");
    assert_eq!(out.len(), p, "symv: output length mismatch");
    out.fill(0.0);
    for i0 in (0..p).step_by(SYMV_BLOCK) {
        let i1 = (i0 + SYMV_BLOCK).min(p);
        // Diagonal block: upper triangle, mirrored on the fly.
        for i in i0..i1 {
            let row = a.row(i);
            let xi = x[i];
            let mut acc = row[i] * xi;
            for j in (i + 1)..i1 {
                let v = row[j];
                acc += v * x[j];
                out[j] += v * xi;
            }
            out[i] += acc;
        }
        // Panels strictly right of the diagonal block.
        for j0 in (i1..p).step_by(SYMV_BLOCK) {
            let j1 = (j0 + SYMV_BLOCK).min(p);
            for i in i0..i1 {
                let row = &a.row(i)[j0..j1];
                let xi = x[i];
                let mut acc = 0.0;
                for (k, &v) in row.iter().enumerate() {
                    acc += v * x[j0 + k];
                    out[j0 + k] += v * xi;
                }
                out[i] += acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;

    fn seq(n: usize, mul: usize, off: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * mul + off) % 23) as f64 * 0.37 - 3.1)
            .collect()
    }

    #[test]
    fn dot_bit_identical_to_blas_all_remainders() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 130] {
            let a = seq(n, 13, 5);
            let b = seq(n, 7, 2);
            assert_eq!(dot(&a, &b).to_bits(), blas::dot(&a, &b).to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        for n in [0, 1, 3, 4, 9, 64, 67] {
            let x = seq(n, 11, 1);
            let mut y = seq(n, 5, 4);
            let mut reference = y.clone();
            for (r, xi) in reference.iter_mut().zip(&x) {
                *r += 1.7 * xi;
            }
            axpy(1.7, &x, &mut y);
            for (a, b) in y.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn add_matches_scalar_loop() {
        for n in [0, 1, 3, 5, 8, 13] {
            let a = seq(n, 3, 2);
            let b = seq(n, 9, 7);
            let mut out = vec![0.0; n];
            add(&a, &b, &mut out);
            for i in 0..n {
                assert_eq!(out[i].to_bits(), (a[i] + b[i]).to_bits());
            }
        }
    }

    #[test]
    fn soft_threshold_matches_branch_version() {
        let branch = |a: f64, k: f64| {
            if a > k {
                a - k
            } else if a < -k {
                a + k
            } else {
                0.0
            }
        };
        let src: Vec<f64> = vec![
            3.0, -3.0, 0.5, -0.5, 1.0, -1.0, 0.0, -0.0, 1e300, -1e300, 1e-300,
        ];
        let mut out = vec![0.0; src.len()];
        for k in [1e-12, 0.5, 1.0, 7.5] {
            soft_threshold(&src, k, &mut out);
            for (o, &s) in out.iter().zip(&src) {
                assert_eq!(o.to_bits(), branch(s, k).to_bits(), "S_{k}({s})");
            }
        }
    }

    #[test]
    fn soft_threshold_specials() {
        let src = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut out = [1.0; 3];
        soft_threshold(&src, 0.5, &mut out);
        assert_eq!(out[0], 0.0, "NaN maps to 0 like the branch version");
        assert_eq!(out[1], f64::INFINITY);
        assert_eq!(out[2], f64::NEG_INFINITY);
    }

    #[test]
    fn symv_matches_gemv() {
        for p in [1, 2, 7, 64, 129, 200, 300] {
            let base = Matrix::from_fn(p, p, |i, j| ((i * 13 + j * 29) % 17) as f64 * 0.21 - 1.4);
            // Symmetrise.
            let mut a = Matrix::zeros(p, p);
            for i in 0..p {
                for j in 0..p {
                    a[(i, j)] = base[(i, j)] + base[(j, i)];
                }
            }
            let x = seq(p, 7, 3);
            let expected = blas::gemv(&a, &x);
            let mut got = vec![0.0; p];
            symv(&a, &x, &mut got);
            for (g, e) in got.iter().zip(&expected) {
                let scale = e.abs().max(1.0);
                assert!((g - e).abs() <= 1e-12 * scale, "p={p}: {g} vs {e}");
            }
        }
    }
}

//! Deterministic generators for ill-conditioned test inputs, shared by
//! the linalg and solver property suites (and the adversarial acceptance
//! matrix in `uoi-core`).
//!
//! Every generator is a pure function of its arguments — no global RNG,
//! no `proptest` dependency — so property suites can wrap them in
//! strategies over the seed while acceptance tests call them directly
//! and get byte-stable fixtures.

use crate::dense::Matrix;

/// SplitMix64: tiny, deterministic, and good enough for test fixtures.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform f64 in [-1, 1).
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
}

/// A dense `n x p` design with i.i.d.-looking entries in [-1, 1).
pub fn random_design(seed: u64, n: usize, p: usize) -> Matrix {
    let mut s = seed ^ 0xa076_1d64_78bd_642f;
    Matrix::from_fn(n, p, |_, _| unit(&mut s))
}

/// An SPD matrix with condition number (in the 2-norm) approximately
/// `cond`: `Q D Q^T` with log-spaced eigenvalues from 1 down to
/// `1/cond` and a product-of-rotations orthogonal `Q`.
pub fn spd_with_condition(seed: u64, p: usize, cond: f64) -> Matrix {
    assert!(p >= 1 && cond >= 1.0);
    let mut s = seed ^ 0x51ab_de3a_77f0_1357;
    // Start from diag(d).
    let mut a = Matrix::zeros(p, p);
    for i in 0..p {
        let t = if p == 1 { 0.0 } else { i as f64 / (p - 1) as f64 };
        a[(i, i)] = cond.powf(-t);
    }
    // Apply p*2 random Givens rotations on both sides (keeps symmetry
    // and the spectrum exactly).
    for _ in 0..(2 * p).max(4) {
        let i = (splitmix64(&mut s) as usize) % p;
        let mut j = (splitmix64(&mut s) as usize) % p;
        if i == j {
            j = (j + 1) % p;
        }
        if i == j {
            continue;
        }
        let theta = unit(&mut s) * std::f64::consts::PI;
        let (c, sn) = (theta.cos(), theta.sin());
        // A <- G A G^T with G the rotation in the (i, j) plane.
        for k in 0..p {
            let (ai, aj) = (a[(i, k)], a[(j, k)]);
            a[(i, k)] = c * ai - sn * aj;
            a[(j, k)] = sn * ai + c * aj;
        }
        for k in 0..p {
            let (ai, aj) = (a[(k, i)], a[(k, j)]);
            a[(k, i)] = c * ai - sn * aj;
            a[(k, j)] = sn * ai + c * aj;
        }
    }
    // Symmetrise exactly (rotations introduce eps-scale asymmetry).
    for i in 0..p {
        for j in 0..i {
            let m = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = m;
            a[(j, i)] = m;
        }
    }
    a
}

/// A design whose last `dups` columns exactly duplicate the first
/// `dups` — the Gram is exactly singular. With `p > n` the Gram is
/// additionally rank-deficient regardless of duplication.
pub fn duplicated_columns_design(seed: u64, n: usize, p: usize, dups: usize) -> Matrix {
    assert!(dups <= p / 2);
    let mut x = random_design(seed, n, p);
    for d in 0..dups {
        let src = x.col(d);
        x.set_col(p - 1 - d, &src);
    }
    x
}

/// Like [`duplicated_columns_design`], but the copies are perturbed by
/// `eps`-scale noise — near-singular rather than exactly singular.
pub fn near_duplicate_columns_design(
    seed: u64,
    n: usize,
    p: usize,
    dups: usize,
    eps: f64,
) -> Matrix {
    let mut x = duplicated_columns_design(seed, n, p, dups);
    let mut s = seed ^ 0x0ddc_0ffe_eba5_eba1;
    for d in 0..dups {
        let j = p - 1 - d;
        let col: Vec<f64> = x.col(j).iter().map(|v| v + eps * unit(&mut s)).collect();
        x.set_col(j, &col);
    }
    x
}

/// A design with per-column scales log-spaced across `scale_span`
/// orders of magnitude (e.g. `1e12` reproduces the adversarial
/// acceptance cell): column j is scaled by `scale_span^(j/(p-1))`.
pub fn scale_disparity_design(seed: u64, n: usize, p: usize, scale_span: f64) -> Matrix {
    let x = random_design(seed, n, p);
    let mut out = x;
    for j in 0..p {
        let t = if p == 1 { 0.0 } else { j as f64 / (p - 1) as f64 };
        let scale = scale_span.powf(t);
        let col: Vec<f64> = out.col(j).iter().map(|v| v * scale).collect();
        out.set_col(j, &col);
    }
    out
}

/// A design whose column `col` is the constant `value` (zero variance;
/// zero column after centring).
pub fn constant_column_design(seed: u64, n: usize, p: usize, col: usize, value: f64) -> Matrix {
    let mut x = random_design(seed, n, p);
    x.set_col(col, &vec![value; n]);
    x
}

/// A response vector matched to a design: a sparse linear combination of
/// the first columns plus small noise.
pub fn matched_response(seed: u64, x: &Matrix) -> Vec<f64> {
    let (n, p) = x.shape();
    let mut s = seed ^ 0x5eed_5eed_5eed_5eed;
    let k = 3.min(p);
    let coefs: Vec<f64> = (0..k).map(|i| ((i + 1) as f64) * 0.5).collect();
    (0..n)
        .map(|i| {
            let mut y = 0.01 * unit(&mut s);
            for (j, c) in coefs.iter().enumerate() {
                y += c * x[(i, j)];
            }
            y
        })
        .collect()
}

/// A design and response on which the sequential strong rule discards a
/// feature that the LASSO then needs (`n >= 2`, `p >= 2`). With `u ⟂ v`
/// unit vectors and `y ≈ 10 u`, column 0 is `u + v` (the first to enter,
/// at `λ_max = ||X^T y||_inf ≈ 10`) and column 1 is `5 (0.1 u - v)`: its
/// correlation with the residual starts at `0.5 λ_max` but rises 2.25
/// times as fast as λ falls, entering near `0.846 λ_max`. On the path
/// `[0.97, 0.9, 0.84] * λ_max` the strong rule at `0.84` keeps only
/// column 0, so column 1 must come back through the KKT check. Columns
/// `2..p` are small noise.
pub fn strong_rule_trap(seed: u64, n: usize, p: usize) -> (Matrix, Vec<f64>) {
    assert!(n >= 2 && p >= 2);
    let mut s = seed ^ 0x7a9b_5c3d_1e2f_4061;
    let normalize = |w: &mut [f64]| {
        let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt();
        w.iter_mut().for_each(|v| *v /= norm);
    };
    let mut u: Vec<f64> = (0..n).map(|_| unit(&mut s)).collect();
    normalize(&mut u);
    let mut v: Vec<f64> = (0..n).map(|_| unit(&mut s)).collect();
    let proj: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
    v.iter_mut().zip(&u).for_each(|(b, a)| *b -= proj * a);
    normalize(&mut v);
    let mut x = Matrix::from_fn(n, p, |_, _| 0.05 * unit(&mut s));
    for i in 0..n {
        x[(i, 0)] = u[i] + v[i];
        x[(i, 1)] = 5.0 * (0.1 * u[i] - v[i]);
    }
    let y = u.iter().map(|a| 10.0 * a + 0.01 * unit(&mut s)).collect();
    (x, y)
}

/// Inject `count` non-finite values (alternating NaN / +Inf / -Inf) at
/// deterministic positions of a copy of `x`.
pub fn inject_non_finite(seed: u64, x: &Matrix, count: usize) -> Matrix {
    let (n, p) = x.shape();
    let mut out = x.clone();
    let mut s = seed ^ 0xbad0_bad0_bad0_bad0;
    for k in 0..count {
        let i = (splitmix64(&mut s) as usize) % n;
        let j = (splitmix64(&mut s) as usize) % p;
        out[(i, j)] = match k % 3 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::syrk_t;
    use crate::chol::Cholesky;

    #[test]
    fn generators_are_deterministic() {
        let a = spd_with_condition(7, 12, 1e8);
        let b = spd_with_condition(7, 12, 1e8);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn spd_with_condition_is_spd_and_conditioned() {
        let a = spd_with_condition(3, 10, 1e6);
        // SPD: factors cleanly.
        Cholesky::factor(&a).expect("generated matrix must be SPD");
        // Trace preserved: eigenvalues are log-spaced from 1 to 1e-6.
        let tr: f64 = (0..10).map(|i| a[(i, i)]).sum();
        let expect: f64 = (0..10).map(|i| 1e6f64.powf(-(i as f64) / 9.0)).sum();
        assert!((tr - expect).abs() < 1e-8, "trace {tr} vs {expect}");
    }

    #[test]
    fn duplicated_columns_make_singular_gram() {
        let x = duplicated_columns_design(11, 20, 6, 2);
        let gram = syrk_t(&x);
        assert!(Cholesky::factor(&gram).is_err());
        for d in 0..2 {
            assert_eq!(x.col(d), x.col(5 - d));
        }
    }

    #[test]
    fn scale_disparity_spans_requested_range() {
        let x = scale_disparity_design(5, 30, 8, 1e12);
        let lo: f64 = x.col(0).iter().map(|v| v.abs()).fold(0.0, f64::max);
        let hi: f64 = x.col(7).iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(hi / lo > 1e10, "span {}", hi / lo);
    }

    #[test]
    fn inject_non_finite_places_requested_count() {
        let x = random_design(1, 15, 5);
        let bad = inject_non_finite(1, &x, 4);
        let n_bad = bad.as_slice().iter().filter(|v| !v.is_finite()).count();
        assert!(n_bad >= 1 && n_bad <= 4); // collisions possible
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
    }
}

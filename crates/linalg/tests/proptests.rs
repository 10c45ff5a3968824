//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use uoi_linalg::{
    factor_jittered, gemm, gemv, gemv_t, gemv_t_weighted, gram_rhs_batch, kernels, mse, mse_into,
    syrk_t, syrk_t_weighted, syrk_t_weighted_batch, testgen, weighted_sumsq, Cholesky,
    IdentityKron, JitterLadder, Matrix,
};

/// Dense Kronecker product `A ⊗ B`: the oracle of the matrix-free
/// identity-Kronecker operator.
fn kron_dense(a: &Matrix, b: &Matrix) -> Matrix {
    let (ra, ca) = a.shape();
    let (rb, cb) = b.shape();
    let mut out = Matrix::zeros(ra * rb, ca * cb);
    for i in 0..ra {
        for j in 0..ca {
            let aij = a[(i, j)];
            if aij != 0.0 {
                for bi in 0..rb {
                    for bj in 0..cb {
                        out[(i * rb + bi, j * cb + bj)] = aij * b[(bi, bj)];
                    }
                }
            }
        }
    }
    out
}

/// Strategy: a rows x cols matrix with bounded entries.
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn shape_strategy() -> impl Strategy<Value = (usize, usize)> {
    (1usize..12, 1usize..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution((r, c) in shape_strategy(), seed in 0u64..1000) {
        let m = Matrix::from_fn(r, c, |i, j| ((i * 31 + j * 17 + seed as usize) % 19) as f64 - 9.0);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn gemm_associates_with_gemv(v in prop::collection::vec(-5.0..5.0f64, 6)) {
        let a = Matrix::from_fn(4, 5, |i, j| (i as f64) - (j as f64) * 0.5);
        let b = Matrix::from_fn(5, 6, |i, j| ((i + j) % 3) as f64);
        // (A B) v == A (B v)
        let ab_v = gemv(&gemm(&a, &b), &v);
        let a_bv = gemv(&a, &gemv(&b, &v));
        for (x, y) in ab_v.iter().zip(&a_bv) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn gemv_t_is_transpose_gemv(m in matrix_strategy(7, 4), v in prop::collection::vec(-3.0..3.0f64, 7)) {
        let via_t = gemv(&m.transpose(), &v);
        let direct = gemv_t(&m, &v);
        for (x, y) in via_t.iter().zip(&direct) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn syrk_is_symmetric_psd_diag(m in matrix_strategy(9, 5)) {
        let g = syrk_t(&m);
        for i in 0..5 {
            prop_assert!(g[(i, i)] >= -1e-12, "Gram diagonal must be nonnegative");
            for j in 0..5 {
                prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_solve_residual(m in matrix_strategy(8, 5), b in prop::collection::vec(-5.0..5.0f64, 5)) {
        // SPD via Gram + ridge.
        let mut g = syrk_t(&m);
        for i in 0..5 { g[(i, i)] += 1.0; }
        let ch = Cholesky::factor(&g).unwrap();
        let x = ch.solve(&b);
        let res = gemv(&g, &x);
        for (r, bi) in res.iter().zip(&b) {
            prop_assert!((r - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn identity_kron_matvec_consistency(copies in 1usize..5, v_seed in 0u64..100) {
        let x = Matrix::from_fn(3, 4, |i, j| ((i * 5 + j * 3 + v_seed as usize) % 7) as f64 - 3.0);
        let op = IdentityKron::new(x.clone(), copies);
        let v: Vec<f64> = (0..4 * copies).map(|i| (i as f64 * 0.7).sin()).collect();
        let fast = op.matvec(&v);
        let explicit = kron_dense(&Matrix::identity(copies), &x);
        let slow = gemv(&explicit, &v);
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!((f - s).abs() < 1e-10);
        }
    }

    #[test]
    fn vectorize_unvectorize_roundtrip((r, c) in shape_strategy(), seed in 0u64..50) {
        let m = Matrix::from_fn(r, c, |i, j| ((i * 13 + j * 7 + seed as usize) % 23) as f64);
        let v = m.vectorize();
        prop_assert_eq!(Matrix::unvectorize(r, c, &v), m);
    }

    #[test]
    fn gather_rows_multiset(idx in prop::collection::vec(0usize..6, 1..20)) {
        let m = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64);
        let g = m.gather_rows(&idx);
        prop_assert_eq!(g.rows(), idx.len());
        for (r, &i) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(r), m.row(i));
        }
    }

    // The zero-copy bootstrap identity: a resample expressed as integer
    // row multiplicities produces the same Gram system as physically
    // gathering the rows. `0..25` draws include the empty resample, a
    // single row, and multiplicities well above 1; shapes are odd on
    // purpose (rows and cols prime-ish, never multiples of the unroll).
    #[test]
    fn weighted_gram_matches_materialized_resample(
        (r, c) in (1usize..11, 1usize..9),
        seed in 0u64..500,
        raw_idx in prop::collection::vec(0usize..11, 0..25),
    ) {
        let x = Matrix::from_fn(r, c, |i, j| {
            (((i * 31 + j * 17) as f64 + seed as f64) * 0.37).sin() * 3.0
        });
        let y: Vec<f64> = (0..r).map(|i| ((i as f64 + seed as f64) * 0.73).cos()).collect();
        let idx: Vec<usize> = raw_idx.into_iter().map(|i| i % r).collect();
        let mut w = vec![0.0; r];
        for &i in &idx {
            w[i] += 1.0;
        }

        let xb = x.gather_rows(&idx);
        let yb: Vec<f64> = idx.iter().map(|&i| y[i]).collect();

        let gram_w = syrk_t_weighted(&x, &w);
        let gram_m = syrk_t(&xb);
        prop_assert_eq!(gram_w.shape(), gram_m.shape());
        for (a, b) in gram_w.as_slice().iter().zip(gram_m.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9, "gram {a} vs {b}");
        }

        let xty_w = gemv_t_weighted(&x, &w, &y);
        let xty_m = gemv_t(&xb, &yb);
        for (a, b) in xty_w.iter().zip(&xty_m) {
            prop_assert!((a - b).abs() < 1e-9, "rhs {a} vs {b}");
        }

        let ysq_w = weighted_sumsq(&w, &y);
        let ysq_m: f64 = yb.iter().map(|v| v * v).sum();
        prop_assert!((ysq_w - ysq_m).abs() < 1e-9, "sumsq {ysq_w} vs {ysq_m}");
    }

    // Uniform unit weights degrade to the plain kernels exactly (bitwise:
    // same row order, same accumulation pattern is not guaranteed, so
    // compare to tolerance).
    #[test]
    fn unit_weights_match_plain_kernels(m in matrix_strategy(7, 5), seed in 0u64..100) {
        let w = vec![1.0; 7];
        let y: Vec<f64> = (0..7).map(|i| ((i as f64 + seed as f64) * 0.61).sin()).collect();
        let gw = syrk_t_weighted(&m, &w);
        let g = syrk_t(&m);
        for (a, b) in gw.as_slice().iter().zip(g.as_slice()) {
            prop_assert!((a - b).abs() < 1e-10);
        }
        let rw = gemv_t_weighted(&m, &w, &y);
        let r = gemv_t(&m, &y);
        for (a, b) in rw.iter().zip(&r) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    // `mse_into` with a caller-owned buffer is the same number as `mse`,
    // and the buffer is reusable across mismatched previous sizes.
    #[test]
    fn mse_into_matches_mse(m in matrix_strategy(9, 4), b in prop::collection::vec(-2.0..2.0f64, 4)) {
        let y: Vec<f64> = (0..9).map(|i| (i as f64) * 0.5 - 2.0).collect();
        let direct = mse(&m, &b, &y);
        let mut pred = vec![0.0; 17]; // wrong size on purpose
        let buffered = mse_into(&m, &b, &y, &mut pred);
        prop_assert!((direct - buffered).abs() < 1e-12);
        prop_assert_eq!(pred.len(), 9);
    }

    // The batched Gram engine vs the materialized `gather_rows` + `syrk_t`
    // oracle, to 1e-9. Shapes deliberately sweep the kernel's edge cases:
    // B = 1, n below one packed panel (64 rows), p below one register tile
    // (4 cols), ragged final panels/tiles, multi-band outputs (p > 64),
    // and resamples whose weight vector is all zero (empty draw).
    #[test]
    fn gram_batch_matches_materialized_oracle(
        (n, p) in (1usize..150, 1usize..80),
        b in 1usize..5,
        seed in 0u64..300,
    ) {
        let x = Matrix::from_fn(n, p, |i, j| {
            (((i * 31 + j * 17) as f64 + seed as f64) * 0.37).sin() * 3.0
        });
        let y: Vec<f64> = (0..n).map(|i| ((i as f64 + seed as f64) * 0.73).cos()).collect();
        // Deterministic per-resample multiplicity draws; draw counts span
        // 0 (the empty resample) up to 2n.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ws: Vec<Vec<f64>> = Vec::new();
        let mut idxs: Vec<Vec<usize>> = Vec::new();
        for _ in 0..b {
            let draws = (step() as usize) % (2 * n + 1);
            let idx: Vec<usize> = (0..draws).map(|_| step() as usize % n).collect();
            let mut w = vec![0.0; n];
            for &i in &idx {
                w[i] += 1.0;
            }
            ws.push(w);
            idxs.push(idx);
        }
        let refs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();

        let batched = gram_rhs_batch(&x, &y, &refs);
        let mirrored = syrk_t_weighted_batch(&x, &refs);
        for (k, (gram, rhs)) in batched.iter().enumerate() {
            let xb = x.gather_rows(&idxs[k]);
            let yb: Vec<f64> = idxs[k].iter().map(|&i| y[i]).collect();
            let gram_m = syrk_t(&xb);
            for i in 0..p {
                for j in 0..p {
                    prop_assert!(
                        (gram.get(i, j) - gram_m[(i, j)]).abs() < 1e-9,
                        "bootstrap {} gram ({}, {})", k, i, j
                    );
                    prop_assert!(
                        (mirrored[k][(i, j)] - gram_m[(i, j)]).abs() < 1e-9,
                        "bootstrap {} mirrored gram ({}, {})", k, i, j
                    );
                }
            }
            let xty_m = gemv_t(&xb, &yb);
            for (a, b_) in rhs.iter().zip(&xty_m) {
                prop_assert!((a - b_).abs() < 1e-9, "rhs {} vs {}", a, b_);
            }
        }
    }

    // The blocked right-looking factorisation (n >= 128 dispatch) agrees
    // with the unblocked path's contract: L L^T reconstructs A.
    #[test]
    fn blocked_cholesky_reconstructs(seed in 0u64..20) {
        let n = 131; // odd, above the blocking threshold, not a block multiple
        let g = Matrix::from_fn(140, n, |i, j| {
            (((i * 37 + j * 13) as f64 + seed as f64) * 0.29).sin()
        });
        let mut a = syrk_t(&g);
        for i in 0..n {
            a[(i, i)] += (n as f64) * 0.5;
        }
        let ch = Cholesky::factor(&a).expect("SPD by construction");
        let l = ch.factor_l();
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += l[(i, k)] * l[(j, k)];
                }
                prop_assert!((s - a[(i, j)]).abs() < 1e-8 * (n as f64));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ill-conditioning defenses over the shared `testgen` generators: the
// jitter ladder is total (factors within its bounded rung budget or
// reports a typed breakdown — never panics, never loops), and the
// 1-norm condition estimate tracks a constructed condition number.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn jitter_ladder_is_total_on_degenerate_grams(seed in 0u64..300, kind in 0usize..4) {
        let p = 8;
        let x = match kind {
            0 => testgen::duplicated_columns_design(seed, 10, p, 3),
            1 => testgen::near_duplicate_columns_design(seed, 10, p, 3, 1e-14),
            2 => testgen::scale_disparity_design(seed, 12, p, 1e12),
            _ => testgen::constant_column_design(seed, 12, p, 2, 0.0),
        };
        let gram = syrk_t(&x);
        let trace: f64 = (0..p).map(|i| gram[(i, i)]).sum();
        let ladder = JitterLadder::for_gram(trace, p);
        match factor_jittered(&gram, &ladder) {
            Ok(f) => {
                prop_assert!(f.attempts <= ladder.max_attempts);
                // Attempts and jitter agree: a clean factor reports zero
                // jitter, a jittered one reports the rung it landed on.
                prop_assert_eq!(f.attempts == 0, f.jitter == 0.0);
                let mut b = vec![1.0; p];
                f.chol.solve_in_place(&mut b);
                prop_assert!(b.iter().all(|v| v.is_finite()));
            }
            Err(bd) => {
                prop_assert_eq!(bd.attempts, ladder.max_attempts);
                prop_assert!(bd.last_jitter > 0.0);
                prop_assert!(bd.pivot < p);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD inner-loop kernels vs their scalar references. Lengths are drawn
// from `0..40`, so every remainder class mod `kernels::LANES` is hit, and
// the equality claims are the ones the module documents: bitwise for
// `dot`/`axpy`/`add`/`soft_threshold` (kappa > 0), ~1e-12 relative for the
// blocked `symv`.
// ---------------------------------------------------------------------------

/// Finite values plus the special cases the prox must handle (the vendored
/// proptest stub has no `prop_oneof!`, so weighting goes through a tag).
fn lane_value() -> impl Strategy<Value = f64> {
    (-100.0..100.0f64, 0u64..15).prop_map(|(v, tag)| match tag {
        8 => 0.0,
        9 => -0.0,
        10 => 1e300,
        11 => -1e300,
        12 => f64::INFINITY,
        13 => f64::NEG_INFINITY,
        14 => f64::NAN,
        _ => v,
    })
}

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0..50.0f64, 0..max_len)
}

/// The historical scalar branching prox the vectorised kernel must match.
fn branch_shrink(a: f64, k: f64) -> f64 {
    if a > k {
        a - k
    } else if a < -k {
        a + k
    } else {
        0.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // `dot` keeps the exact four-accumulator reduction order of the
    // historical loop, so it is bit-identical for every length, including
    // each remainder lane.
    #[test]
    fn kernel_dot_bit_identical_to_reference(a in finite_vec(40), seed in 0u64..100) {
        let b: Vec<f64> = (0..a.len())
            .map(|i| (((i * 29) as f64 + seed as f64) * 0.41).sin() * 7.0)
            .collect();
        let main = a.len() - a.len() % kernels::LANES;
        let mut acc = [0.0f64; 4];
        for (i, ch) in a[..main].chunks_exact(kernels::LANES).enumerate() {
            for l in 0..kernels::LANES {
                acc[l] += ch[l] * b[i * kernels::LANES + l];
            }
        }
        let mut reference = acc[0] + acc[1] + acc[2] + acc[3];
        for i in main..a.len() {
            reference += a[i] * b[i];
        }
        prop_assert_eq!(kernels::dot(&a, &b).to_bits(), reference.to_bits());
    }

    // `axpy` and `add` are elementwise: lane order cannot change the
    // result, so they are bit-identical to plain scalar loops even with
    // non-finite inputs in arbitrary lanes.
    #[test]
    fn kernel_axpy_bit_identical_any_lane(
        x in prop::collection::vec(lane_value(), 0..40),
        alpha in -10.0..10.0f64,
        seed in 0u64..100,
    ) {
        let mut y: Vec<f64> = (0..x.len())
            .map(|i| (((i * 7) as f64 + seed as f64) * 0.53).cos() * 3.0)
            .collect();
        let mut reference = y.clone();
        for (r, xi) in reference.iter_mut().zip(&x) {
            *r += alpha * xi;
        }
        kernels::axpy(alpha, &x, &mut y);
        for (got, want) in y.iter().zip(&reference) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn kernel_add_bit_identical_any_lane(
        a in prop::collection::vec(lane_value(), 0..40),
        seed in 0u64..100,
    ) {
        let b: Vec<f64> = (0..a.len())
            .map(|i| (((i * 11) as f64 + seed as f64) * 0.67).sin())
            .collect();
        let mut out = vec![0.0; a.len()];
        kernels::add(&a, &b, &mut out);
        for i in 0..a.len() {
            prop_assert_eq!(out[i].to_bits(), (a[i] + b[i]).to_bits());
        }
    }

    // The branchless prox agrees bit-for-bit with the branching form for
    // kappa > 0: NaN maps to 0.0, infinities pass through, remainder
    // lanes (positions >= len - len % LANES) behave like the main body.
    #[test]
    fn kernel_soft_threshold_matches_branch_prox(
        src in prop::collection::vec(lane_value(), 0..40),
        kappa in (0usize..4).prop_map(|i| [1e-12, 0.3, 2.0, 1e6][i]),
    ) {
        let mut out = vec![f64::MAX; src.len()];
        kernels::soft_threshold(&src, kappa, &mut out);
        for (o, &s) in out.iter().zip(&src) {
            let want = if s.is_nan() { 0.0 } else { branch_shrink(s, kappa) };
            prop_assert_eq!(o.to_bits(), want.to_bits(), "S_{}({})", kappa, s);
        }
    }

    // Blocked symv vs dense gemv on a symmetrised Gram-like matrix: the
    // accumulation orders differ, so the documented contract is ~1e-12
    // relative agreement, with sizes straddling the 128-column block edge.
    #[test]
    fn kernel_symv_matches_gemv(
        // Small sizes plus sizes straddling the 128-column block edge.
        p in (0usize..24).prop_map(|i| if i < 20 { i + 1 } else { [127, 128, 129, 250][i - 20] }),
        seed in 0u64..50,
    ) {
        let base = Matrix::from_fn(p, p, |i, j| {
            (((i * 31 + j * 17) as f64 + seed as f64) * 0.23).sin() * 2.0
        });
        let mut a = Matrix::zeros(p, p);
        for i in 0..p {
            for j in 0..p {
                a[(i, j)] = base[(i, j)] + base[(j, i)];
            }
        }
        let x: Vec<f64> = (0..p).map(|i| (((i * 13) as f64 + seed as f64) * 0.71).cos()).collect();
        let expected = gemv(&a, &x);
        let mut got = vec![0.0; p];
        kernels::symv(&a, &x, &mut got);
        for (g, e) in got.iter().zip(&expected) {
            let scale = e.abs().max(1.0);
            prop_assert!((g - e).abs() <= 1e-11 * scale, "p={}: {} vs {}", p, g, e);
        }
    }
}

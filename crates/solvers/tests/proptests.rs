//! Property-based tests of the optimisation layer: prox maps, KKT
//! optimality of the solvers across random problems, and cross-solver
//! agreement (ADMM vs coordinate descent).

use proptest::prelude::*;
use uoi_linalg::{testgen, Matrix};
use uoi_solvers::{
    lasso_cd, lasso_kkt_violation, lasso_objective, mcp_threshold, ols_on_support,
    ols_on_support_gram, soft_threshold, support_of, AdmmConfig, AdmmSolution, CdConfig, LassoAdmm,
    ResilienceConfig,
};

/// One λ as a one-λ screened path against `X^T y`.
fn solve_one(solver: &LassoAdmm, x: &Matrix, y: &[f64], lam: f64) -> AdmmSolution {
    let mut path = solver.solve_path_with_rhs(&uoi_linalg::gemv_t(x, y), &[lam]);
    path.pop().expect("one λ solved")
}

fn problem_strategy() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (4usize..20, 2usize..8, 0u64..500).prop_map(|(n, p, seed)| {
        let x = Matrix::from_fn(n, p, |i, j| {
            let h = (i * 131 + j * 37 + seed as usize * 97) % 1009;
            (h as f64 - 504.0) / 504.0
        });
        let y: Vec<f64> = (0..n)
            .map(|i| {
                2.0 * x[(i, 0)] - x[(i, p - 1)]
                    + 0.05 * (((i * 7 + seed as usize) % 11) as f64 - 5.0)
            })
            .collect();
        (x, y)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn soft_threshold_properties(a in -100.0..100.0f64, k in 0.0..50.0f64) {
        let s = soft_threshold(a, k);
        // Shrinks toward zero, never past it, never changes sign.
        prop_assert!(s.abs() <= a.abs());
        prop_assert!(s * a >= 0.0);
        prop_assert!((a.abs() - s.abs() - k.min(a.abs())).abs() < 1e-12);
        // Firm nonexpansiveness in 1D: |S(a) - S(b)| <= |a - b|.
        let b = a * 0.5 + 1.0;
        prop_assert!((s - soft_threshold(b, k)).abs() <= (a - b).abs() + 1e-12);
    }

    #[test]
    fn mcp_between_soft_and_identity(z in -20.0..20.0f64, lam in 0.01..5.0f64, gamma in 1.5..10.0f64) {
        let m = mcp_threshold(z, lam, gamma);
        let s = soft_threshold(z, lam);
        prop_assert!(m.abs() + 1e-12 >= s.abs(), "MCP shrinks no more than soft");
        prop_assert!(m.abs() <= z.abs() + 1e-12, "MCP never expands");
        prop_assert!(m * z >= 0.0);
    }

    #[test]
    fn cd_solution_is_kkt_optimal((x, y) in problem_strategy(), lam_frac in 0.02..0.8f64) {
        let lam = uoi_solvers::lambda_max(&x, &y).max(1e-9) * lam_frac;
        let beta = lasso_cd(&x, &y, lam, &CdConfig { max_sweeps: 3000, tol: 1e-11 });
        prop_assert!(lasso_kkt_violation(&x, &y, &beta, lam) < 1e-5);
    }

    #[test]
    fn admm_matches_cd((x, y) in problem_strategy(), lam_frac in 0.05..0.6f64) {
        let lam = uoi_solvers::lambda_max(&x, &y).max(1e-9) * lam_frac;
        let cd = lasso_cd(&x, &y, lam, &CdConfig { max_sweeps: 3000, tol: 1e-11 });
        let solver = LassoAdmm::new(
            x.clone(),
            AdmmConfig { max_iter: 8000, abstol: 1e-10, reltol: 1e-9, ..Default::default() },
        );
        let admm = solve_one(&solver, &x, &y, lam);
        // Objectives agree even when near-degenerate coordinates differ.
        let o_cd = lasso_objective(&x, &y, &cd, lam);
        let o_admm = lasso_objective(&x, &y, &admm.beta, lam);
        prop_assert!((o_cd - o_admm).abs() <= 1e-3 * (1.0 + o_cd.abs()),
            "objectives {o_cd} vs {o_admm}");
    }

    #[test]
    fn lasso_objective_at_solution_not_above_zero_vector((x, y) in problem_strategy(), lam_frac in 0.05..0.9f64) {
        let lam = uoi_solvers::lambda_max(&x, &y).max(1e-9) * lam_frac;
        let beta = lasso_cd(&x, &y, lam, &CdConfig::default());
        let zero = vec![0.0; x.cols()];
        prop_assert!(
            lasso_objective(&x, &y, &beta, lam)
                <= lasso_objective(&x, &y, &zero, lam) + 1e-9
        );
    }

    #[test]
    fn ols_support_restriction_consistent((x, y) in problem_strategy()) {
        let p = x.cols();
        let support: Vec<usize> = (0..p).step_by(2).collect();
        let beta = ols_on_support(&x, &y, &support);
        // Zeros off support.
        for (j, b) in beta.iter().enumerate() {
            if !support.contains(&j) {
                prop_assert_eq!(*b, 0.0);
            }
        }
        // Support of the result is inside the requested support.
        for j in support_of(&beta, 0.0) {
            prop_assert!(support.contains(&j));
        }
    }

    #[test]
    fn lambda_monotonicity_of_sparsity((x, y) in problem_strategy()) {
        let lmax = uoi_solvers::lambda_max(&x, &y).max(1e-9);
        let solver = LassoAdmm::new(
            x.clone(),
            AdmmConfig { max_iter: 4000, abstol: 1e-10, reltol: 1e-9, ..Default::default() },
        );
        let lo = solve_one(&solver, &x, &y, 0.05 * lmax);
        let hi = solve_one(&solver, &x, &y, 0.8 * lmax);
        let nnz = |b: &[f64]| b.iter().filter(|v| v.abs() > 1e-7).count();
        // Not strictly guaranteed pointwise for LASSO, but holds for the
        // objective-level check: higher lambda gives smaller L1 norm.
        let l1 = |b: &[f64]| b.iter().map(|v| v.abs()).sum::<f64>();
        prop_assert!(l1(&hi.beta) <= l1(&lo.beta) + 1e-9);
        prop_assert!(nnz(&hi.beta) <= x.cols());
    }

    // For p <= n, `from_gram(X^T X)` factors the identical primal system
    // as `new(X)`, so whole solve paths must agree bit for bit — the
    // guarantee the zero-copy selection loop rests on.
    #[test]
    fn from_gram_solver_is_bit_identical((x, y) in problem_strategy()) {
        prop_assume!(x.cols() <= x.rows());
        let cfg = AdmmConfig::default();
        let dense = LassoAdmm::new(x.clone(), cfg.clone());
        let gram = LassoAdmm::from_gram(uoi_linalg::syrk_t(&x), cfg);
        let xty = uoi_linalg::gemv_t(&x, &y);
        let lmax = uoi_solvers::lambda_max(&x, &y).max(1e-9);
        let lambdas = [0.5 * lmax, 0.1 * lmax, 0.0];
        let a = dense.solve_path_with_rhs(&xty, &lambdas);
        let b = gram.solve_path_with_rhs(&xty, &lambdas);
        for (sa, sb) in a.iter().zip(&b) {
            prop_assert_eq!(&sa.beta, &sb.beta);
            prop_assert_eq!(sa.iterations, sb.iterations);
        }
    }

    // Gram-space restricted OLS solves the same normal equations as the
    // design-space version; agreement is to factorisation tolerance.
    #[test]
    fn gram_ols_matches_design_ols((x, y) in problem_strategy()) {
        let (n, p) = x.shape();
        let gram = uoi_linalg::syrk_t(&x);
        let xty = uoi_linalg::gemv_t(&x, &y);
        for step in 1..=2usize {
            let support: Vec<usize> = (0..p).step_by(step).collect();
            // The equivalence is only defined where OLS is: on a singular
            // restricted design the two paths take different fallbacks
            // (rank-revealing QR vs jittered ridge), so gate on the
            // sub-Gram being comfortably positive definite.
            let s = support.len();
            let sub = Matrix::from_fn(s, s, |a, b| gram[(support[a], support[b])]);
            let well_conditioned = uoi_linalg::Cholesky::factor(&sub)
                .map(|ch| {
                    let l = ch.factor_l();
                    let diags: Vec<f64> = (0..s).map(|i| l[(i, i)]).collect();
                    let max = diags.iter().cloned().fold(0.0, f64::max);
                    diags.iter().all(|d| *d > 1e-4 * max.max(1.0))
                })
                .unwrap_or(false);
            prop_assume!(well_conditioned);
            let design = ols_on_support(&x, &y, &support);
            let sub = ols_on_support_gram(&gram, &xty, &support, n);
            prop_assert_eq!(sub.len(), p);
            for (j, (a, b)) in design.iter().zip(&sub).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-6 * (1.0 + a.abs()),
                    "coef {j}: {a} vs {b}"
                );
            }
        }
        // Empty support: all zeros from both.
        let empty = ols_on_support_gram(&gram, &xty, &[], n);
        prop_assert!(empty.iter().all(|v| *v == 0.0));
    }
}

// ---------------------------------------------------------------------------
// Resilient-solver totality over the shared `uoi_linalg::testgen`
// ill-conditioned generators: degenerate designs either solve (possibly
// via the jitter/restart ladder) with finite iterates, or fail with a
// typed error — never a panic, never a non-finite coefficient. Clean
// designs must leave the guards bit-invisible.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn resilient_solver_is_total_on_degenerate_designs(seed in 0u64..300, kind in 0usize..4) {
        let x = match kind {
            0 => testgen::duplicated_columns_design(seed, 8, 16, 4), // p > n
            1 => testgen::near_duplicate_columns_design(seed, 12, 8, 3, 1e-13),
            2 => testgen::scale_disparity_design(seed, 14, 8, 1e12),
            _ => testgen::constant_column_design(seed, 14, 8, 3, 2.5),
        };
        let y = testgen::matched_response(seed, &x);
        let gram = uoi_linalg::syrk_t(&x);
        let xty = uoi_linalg::gemv_t(&x, &y);
        let lambdas = [0.5, 0.1, 0.02];
        let solver = LassoAdmm::from_gram(gram, AdmmConfig::default());
        match solver.solve_path_guarded(&xty, &lambdas, &ResilienceConfig::default()) {
            Ok((sols, health)) => {
                prop_assert_eq!(sols.len(), lambdas.len());
                for s in &sols {
                    prop_assert!(s.beta.iter().all(|v| v.is_finite()));
                }
                // Health indices point into the path, and a lambda is
                // never both recovered and dropped.
                for &i in health.recovered.iter().chain(&health.diverged) {
                    prop_assert!(i < lambdas.len());
                }
                prop_assert!(health.recovered.iter().all(|i| !health.diverged.contains(i)));
            }
            Err(e) => {
                // Typed breakdown, with a displayable message.
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
            }
        }
    }

    #[test]
    fn guards_bit_invisible_on_clean_designs(seed in 0u64..200) {
        let x = testgen::random_design(seed, 30, 6);
        let y = testgen::matched_response(seed, &x);
        let gram = uoi_linalg::syrk_t(&x);
        let xty = uoi_linalg::gemv_t(&x, &y);
        let lambdas = [0.4, 0.1, 0.01];
        let plain = LassoAdmm::from_gram(gram.clone(), AdmmConfig::default());
        let base = plain.solve_path_with_rhs(&xty, &lambdas);
        let guarded = LassoAdmm::from_gram(gram, AdmmConfig::default());
        let (sols, health) =
            guarded.solve_path_guarded(&xty, &lambdas, &ResilienceConfig::default()).unwrap();
        prop_assert!(health.is_clean(), "clean design tripped: {:?}", health);
        for (a, b) in base.iter().zip(&sols) {
            prop_assert_eq!(a.iterations, b.iterations);
            for (u, v) in a.beta.iter().zip(&b.beta) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }
}

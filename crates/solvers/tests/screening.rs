//! Correctness gate for the screened Sequential λ path: every solution
//! must satisfy the LASSO KKT conditions to a bound derived from the ADMM
//! stopping tolerances, every polished λ to a relative bound of 1e-9,
//! and on well-separated designs its supports must match the independent
//! coordinate-descent solver's. The edge cases — an empty strong set, a
//! strong set of every feature, `p > n`, a singular active-set Gram, and
//! a grid on which the strong rule is wrong and the KKT check must
//! re-admit a feature — are pinned explicitly.

use proptest::prelude::*;
use std::sync::Arc;
use uoi_linalg::{gemv_t, syrk_t, testgen, Matrix};
use uoi_solvers::{
    lasso_cd, lasso_kkt_violation, lasso_objective, support_of, AdmmConfig, AdmmSolution,
    AdmmState, CdConfig, LassoAdmm, ResilienceConfig, StepTask,
};
use uoi_telemetry::MetricsRegistry;

fn cfg() -> AdmmConfig {
    AdmmConfig {
        max_iter: 20_000,
        abstol: 1e-9,
        reltol: 1e-8,
        ..AdmmConfig::default()
    }
}

fn tight_cd() -> CdConfig {
    CdConfig {
        max_sweeps: 20_000,
        tol: 1e-13,
    }
}

/// A Gram-built solver (the zero-copy pipeline's constructor) and its rhs.
fn gram_solver(x: &Matrix, y: &[f64], cfg: AdmmConfig) -> (LassoAdmm, Vec<f64>) {
    (LassoAdmm::from_gram(syrk_t(x), cfg), gemv_t(x, y))
}

fn lambda_max(xty: &[f64]) -> f64 {
    xty.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `[1, r, r^2, ...] * lmax`, `q` values.
fn grid(lmax: f64, ratio: f64, q: usize) -> Vec<f64> {
    (0..q).map(|k| lmax * ratio.powi(k as i32)).collect()
}

/// KKT bound implied by ADMM's stopping rule. At a converged iterate
/// `c(z) - rho u = rho (z - z_prev) + G (x - z)` on the active set, so the
/// violation there is at most `eps_dual + ||G|| eps_pri`; off the active
/// set the re-entry check enforces `|c_j| <= lambda` exactly. With
/// `||G||_2 <= tr G`, `rho ||u|| <= sqrt(p) lambda` and
/// `||x|| ~ ||z|| = ||beta||`, and a factor 2 of slack for `x` vs `z`:
fn kkt_bound(x: &Matrix, beta: &[f64], lambda: f64, cfg: &AdmmConfig) -> f64 {
    let p = x.cols() as f64;
    let tr: f64 = x.as_slice().iter().map(|v| v * v).sum();
    let norm_beta = beta.iter().map(|v| v * v).sum::<f64>().sqrt();
    let eps =
        p.sqrt() * cfg.abstol * (1.0 + tr) + cfg.reltol * (p.sqrt() * lambda + tr * norm_beta);
    2.0 * eps
}

fn assert_path_optimal(
    x: &Matrix,
    y: &[f64],
    lambdas: &[f64],
    sols: &[AdmmSolution],
    cfg: &AdmmConfig,
) {
    for (sol, &lam) in sols.iter().zip(lambdas) {
        assert!(sol.converged, "lambda {lam}: not converged");
        let viol = lasso_kkt_violation(x, y, &sol.beta, lam);
        let bound = kkt_bound(x, &sol.beta, lam, cfg);
        assert!(
            viol <= bound,
            "lambda {lam}: KKT violation {viol:.3e} > bound {bound:.3e}"
        );
    }
}

/// The relative KKT bound a polished λ meets: the violation over `λ`,
/// as the benchmark's `solvers.kkt_rel_max` reads it.
const POLISHED_KKT_REL: f64 = 1e-9;

fn kkt_rel(x: &Matrix, y: &[f64], beta: &[f64], lambda: f64) -> f64 {
    lasso_kkt_violation(x, y, beta, lambda) / lambda
}

/// Drive a screened path through `begin_lambda`/`step`, as
/// `solve_path_with_rhs` does: per λ, the solution, whether it ended on
/// an accepted polish, and the active-set size the transition chose.
fn drive(solver: &LassoAdmm, xty: &[f64], lambdas: &[f64]) -> Vec<(Vec<f64>, bool, usize)> {
    let mut st = solver.init_state();
    lambdas
        .iter()
        .map(|&lam| {
            solver.begin_lambda(xty, lam, &mut st);
            let screened = st.active_len();
            for _ in 0..solver.config().max_iter {
                solver.step(xty, lam, &mut st);
                if st.converged {
                    break;
                }
            }
            (st.z.clone(), st.polished, screened)
        })
        .collect()
}

/// Every polished λ of `path` meets the 1e-9 relative KKT bound; returns
/// how many were polished.
fn assert_polished_exact(
    x: &Matrix,
    y: &[f64],
    lambdas: &[f64],
    path: &[(Vec<f64>, bool, usize)],
) -> usize {
    let mut polished = 0;
    for ((beta, is_polished, _), &lam) in path.iter().zip(lambdas) {
        if *is_polished {
            polished += 1;
            let rel = kkt_rel(x, y, beta, lam);
            assert!(
                rel <= POLISHED_KKT_REL,
                "lambda {lam}: polished KKT violation {rel:.3e} relative to lambda"
            );
        }
    }
    polished
}

fn problem_strategy() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    // Both p <= n and p > n shapes.
    (8usize..40, 4usize..48, 0u64..10_000).prop_map(|(n, p, seed)| {
        let x = testgen::random_design(seed, n, p);
        let y = testgen::matched_response(seed, &x);
        (x, y)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn screened_path_meets_kkt_bound((x, y) in problem_strategy(), ratio in 0.4..0.9f64) {
        let cfg = cfg();
        let (solver, xty) = gram_solver(&x, &y, cfg.clone());
        let lambdas = grid(lambda_max(&xty), ratio, 8);
        let sols = solver.solve_path_with_rhs(&xty, &lambdas);
        assert_path_optimal(&x, &y, &lambdas, &sols, &cfg);
    }

    #[test]
    fn polished_lambdas_meet_relative_kkt_1e9((x, y) in problem_strategy(), ratio in 0.4..0.9f64) {
        let (solver, xty) = gram_solver(&x, &y, cfg());
        let lambdas = grid(lambda_max(&xty), ratio, 8);
        let path = drive(&solver, &xty, &lambdas);
        // The driven path is the public one, bit for bit.
        for (sol, (beta, _, _)) in solver.solve_path_with_rhs(&xty, &lambdas).iter().zip(&path) {
            prop_assert!(sol.beta.iter().zip(beta).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        // λ_max itself always polishes: its support is empty.
        prop_assert!(assert_polished_exact(&x, &y, &lambdas, &path) >= 1);
    }

    #[test]
    fn screened_supports_match_cd_on_separated_designs(
        seed in 0u64..10_000,
        n in 40usize..80,
        p in 6usize..20,
        frac in 0.05..0.6f64,
    ) {
        let x = testgen::random_design(seed, n, p);
        let y = testgen::matched_response(seed, &x);
        let (solver, xty) = gram_solver(&x, &y, cfg());
        let lmax = lambda_max(&xty);
        let lambdas = [0.9 * lmax, frac * lmax];
        let cd = lasso_cd(&x, &y, lambdas[1], &tight_cd());
        // Well separated at this lambda: active coefficients clear of zero
        // and inactive gradients clear of the threshold.
        let c = gemv_t(&x, &y.iter().zip(uoi_linalg::gemv(&x, &cd)).map(|(a, b)| a - b).collect::<Vec<_>>());
        let margin = 1e-3 * lambdas[1];
        prop_assume!(cd.iter().zip(&c).all(|(b, g)| {
            if *b != 0.0 { b.abs() > 1e-3 } else { g.abs() < lambdas[1] - margin }
        }));
        let sols = solver.solve_path_with_rhs(&xty, &lambdas);
        prop_assert!(sols[1].converged);
        prop_assert_eq!(support_of(&sols[1].beta, 1e-6), support_of(&cd, 1e-6));
    }
}

#[test]
fn lambda_at_or_above_lambda_max_gives_empty_set_and_zero() {
    let x = testgen::random_design(3, 30, 12);
    let y = testgen::matched_response(3, &x);
    let (solver, xty) = gram_solver(&x, &y, cfg());
    let lmax = lambda_max(&xty);
    for lam in [lmax, 1.5 * lmax] {
        let mut st = solver.init_state();
        solver.begin_lambda(&xty, lam, &mut st);
        // Only the argmax can tie the strong-rule cut at exactly lambda_max.
        assert!(st.active_len() <= 1, "strong set {}", st.active_len());
        let sols = solver.solve_path_with_rhs(&xty, &[lam]);
        assert!(sols[0].converged);
        assert!(sols[0].beta.iter().all(|&b| b == 0.0), "{:?}", sols[0].beta);
    }
    // Above lambda_max the strong set is empty outright.
    let mut st = solver.init_state();
    solver.begin_lambda(&xty, 2.0 * lmax, &mut st);
    assert_eq!(st.active_len(), 0);
}

#[test]
fn tiny_lambda_screens_in_every_feature_and_matches_cd() {
    let x = testgen::random_design(5, 40, 10);
    let y = testgen::matched_response(5, &x);
    let cfg = cfg();
    let (solver, xty) = gram_solver(&x, &y, cfg.clone());
    let lmax = lambda_max(&xty);
    // From lmax straight to 1e-4 lmax: the cut 2 lambda - lmax is negative.
    let lam = 1e-4 * lmax;
    let mut st = solver.init_state();
    solver.begin_lambda(&xty, lam, &mut st);
    assert_eq!(
        st.active_len(),
        x.cols(),
        "every feature must be screened in"
    );
    let screened = solver.solve_path_with_rhs(&xty, &[lam]);
    let cd = lasso_cd(&x, &y, lam, &tight_cd());
    assert!(screened[0].converged);
    for (a, b) in screened[0].beta.iter().zip(&cd) {
        assert!((a - b).abs() < 1e-5, "screened {a} vs CD {b}");
    }
    assert_path_optimal(&x, &y, &[lam], &screened, &cfg);
}

#[test]
fn wide_designs_agree_with_cd() {
    // p > n, both constructors: the Gram-built one and the dense Woodbury
    // one, whose active-set Grams come from the design's columns.
    let cfg = cfg();
    for seed in [11, 12, 13] {
        let x = testgen::random_design(seed, 15, 40);
        let y = testgen::matched_response(seed, &x);
        let (solver, xty) = gram_solver(&x, &y, cfg.clone());
        let dense = LassoAdmm::new(x.clone(), cfg.clone());
        let lambdas = grid(lambda_max(&xty), 0.6, 6);
        for sols in [
            solver.solve_path_with_rhs(&xty, &lambdas),
            dense.solve_path_with_rhs(&xty, &lambdas),
        ] {
            assert_path_optimal(&x, &y, &lambdas, &sols, &cfg);
            for (sol, &lam) in sols.iter().zip(&lambdas) {
                let cd = lasso_cd(&x, &y, lam, &tight_cd());
                let (oa, oc) = (
                    lasso_objective(&x, &y, &sol.beta, lam),
                    lasso_objective(&x, &y, &cd, lam),
                );
                assert!(
                    (oa - oc).abs() <= 1e-6 * (1.0 + oc.abs()),
                    "objective {oa} vs CD {oc}"
                );
            }
        }
    }
}

#[test]
fn duplicate_columns_singular_active_gram() {
    // Exactly duplicated columns make every active-set Gram containing a
    // pair singular; the rho ridge keeps the sub-system factorable. The
    // polish system G_AA has no ridge: a support holding a pair rejects
    // the polish (no jitter, which would certify a regularised solution)
    // and the λ keeps the ADMM iterate, which splits the pair evenly.
    let cfg = cfg();
    let (p, dups) = (12, 3);
    let x = testgen::duplicated_columns_design(21, 30, p, dups);
    let y = testgen::matched_response(21, &x);
    let (solver, xty) = gram_solver(&x, &y, cfg.clone());
    let lambdas = grid(lambda_max(&xty), 0.5, 6);
    let sols = solver.solve_path_with_rhs(&xty, &lambdas);
    assert_path_optimal(&x, &y, &lambdas, &sols, &cfg);
    let mut paired = 0;
    for (beta, polished, _) in drive(&solver, &xty, &lambdas) {
        for d in 0..dups {
            let (a, b) = (beta[d], beta[p - 1 - d]);
            if a != 0.0 && b != 0.0 {
                paired += 1;
                assert!(!polished, "a singular G_AA must reject the polish");
                assert!(
                    (a - b).abs() <= 1e-6 * (a.abs() + b.abs()),
                    "the ADMM iterate splits a duplicated pair evenly: {a} vs {b}"
                );
            }
        }
    }
    assert!(paired > 0, "the path must activate a duplicated pair");
    for (sol, &lam) in sols.iter().zip(&lambdas) {
        let cd = lasso_cd(&x, &y, lam, &tight_cd());
        let (oa, oc) = (
            lasso_objective(&x, &y, &sol.beta, lam),
            lasso_objective(&x, &y, &cd, lam),
        );
        assert!(
            (oa - oc).abs() <= 1e-6 * (1.0 + oc.abs()),
            "objective {oa} vs CD {oc}"
        );
    }
}

#[test]
fn coarse_grid_forces_kkt_reentry() {
    let cfg = cfg();
    for seed in 0..4 {
        let (x, y) = testgen::strong_rule_trap(seed, 40, 16);
        let metrics = Arc::new(MetricsRegistry::new());
        let (solver, xty) = gram_solver(&x, &y, cfg.clone());
        let solver = solver.with_metrics(metrics.clone());
        let lmax = lambda_max(&xty);
        let lambdas = [0.97, 0.9, 0.84].map(|r| r * lmax);
        let sols = solver.solve_path_with_rhs(&xty, &lambdas);
        assert_path_optimal(&x, &y, &lambdas, &sols, &cfg);
        // The re-admitted feature is in the solution, as CD finds it.
        let last = &sols[2];
        let cd = lasso_cd(&x, &y, lambdas[2], &tight_cd());
        assert_eq!(support_of(&last.beta, 1e-6), support_of(&cd, 1e-6));
        assert!(last.beta[1] != 0.0, "seed {seed}: column 1 must be active");
        assert!(
            metrics.counter("admm.kkt_reentries") > 0,
            "seed {seed}: the strong rule must miss a feature on this grid"
        );
    }
}

/// A ratio-1/2 grid keeps every feature in the strong set (its cut
/// `2 λ_k - λ_{k-1}` is zero); a fine grid through the same λs screens.
/// Polished, both are the unique LASSO solution, so they agree to 1e-9
/// where a stopping tolerance alone would leave them ~1e-6 apart.
#[test]
fn screened_and_unscreened_paths_agree_to_1e9() {
    for seed in [4, 5, 6] {
        let x = testgen::random_design(seed, 60, 20);
        let y = testgen::matched_response(seed, &x);
        let (solver, xty) = gram_solver(&x, &y, cfg());
        let lmax = lambda_max(&xty);
        let coarse: Vec<f64> = [0.5, 0.25, 0.125].iter().map(|r| r * lmax).collect();
        let step = 0.5_f64.powf(1.0 / 6.0);
        let mut fine: Vec<f64> = [1.0, 0.5, 0.25]
            .iter()
            .flat_map(|r| (0..6).map(move |m| r * lmax * step.powi(m)))
            .collect();
        fine.push(coarse[2]);
        let full = drive(&solver, &xty, &coarse);
        let screened = drive(&solver, &xty, &fine);
        assert!(full.iter().all(|(_, _, m)| *m == x.cols()), "S = all");
        assert!(screened.iter().any(|(_, _, m)| *m < x.cols()), "screened");
        for (k, &lam) in coarse.iter().enumerate() {
            let at = fine.iter().position(|&l| l == lam).unwrap();
            let ((a, pa, _), (b, pb, _)) = (&full[k], &screened[at]);
            assert!(*pa && *pb, "seed {seed}, lambda {lam}: both polished");
            let scale = 1.0 + a.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            for (u, v) in a.iter().zip(b) {
                assert!((u - v).abs() <= 1e-9 * scale, "seed {seed}: {u} vs {v}");
            }
        }
    }
}

/// Lockstep `step_many` columns polish as stepping each alone does, so
/// every polished column-λ meets the 1e-9 bound.
#[test]
fn lockstep_columns_polish_exactly() {
    let x = testgen::random_design(8, 50, 16);
    let ys: Vec<Vec<f64>> = (0..4)
        .map(|k| testgen::matched_response(30 + k, &x))
        .collect();
    let solver = LassoAdmm::from_gram(syrk_t(&x), cfg());
    let rhs: Vec<Vec<f64>> = ys.iter().map(|y| gemv_t(&x, y)).collect();
    let lmax = rhs.iter().map(|r| lambda_max(r)).fold(0.0, f64::max);
    let lambdas = grid(lmax, 0.6, 6);
    let mut states: Vec<AdmmState> = rhs.iter().map(|_| solver.init_state()).collect();
    let mut polished = 0;
    for &lam in &lambdas {
        for (st, xty) in states.iter_mut().zip(&rhs) {
            solver.begin_lambda(xty, lam, st);
        }
        for _ in 0..solver.config().max_iter {
            let mut tasks: Vec<StepTask<'_>> = states
                .iter_mut()
                .zip(&rhs)
                .map(|(state, xty)| StepTask {
                    xty,
                    lambda: lam,
                    state,
                })
                .collect();
            solver.step_many(&mut tasks);
            if states.iter().all(|st| st.converged) {
                break;
            }
        }
        for (st, y) in states.iter().zip(&ys) {
            assert!(st.converged);
            if st.polished {
                polished += 1;
                let rel = kkt_rel(&x, y, &st.z, lam);
                assert!(rel <= POLISHED_KKT_REL, "lambda {lam}: {rel:.3e}");
            }
        }
    }
    assert!(polished > lambdas.len(), "most column-λs must polish");
}

/// The guarded path steps through the same polish: on a clean design
/// every λ is polished and exact.
#[test]
fn guarded_path_polishes_every_lambda() {
    let x = testgen::random_design(9, 40, 12);
    let y = testgen::matched_response(9, &x);
    let metrics = Arc::new(MetricsRegistry::new());
    let guarded = LassoAdmm::from_gram(syrk_t(&x), cfg()).with_metrics(metrics.clone());
    let xty = gemv_t(&x, &y);
    let lambdas = grid(lambda_max(&xty), 0.6, 8);
    let (sols, health) = guarded
        .solve_path_guarded(&xty, &lambdas, &ResilienceConfig::default())
        .expect("a clean Gram factors");
    assert!(health.is_clean());
    assert_eq!(
        metrics.counter("admm.polish.accepted"),
        lambdas.len() as u64,
        "every λ ends on an accepted polish"
    );
    assert!(metrics.counter("admm.polish.attempts") >= lambdas.len() as u64);
    for (sol, &lam) in sols.iter().zip(&lambdas) {
        let rel = kkt_rel(&x, &y, &sol.beta, lam);
        assert!(rel <= POLISHED_KKT_REL, "lambda {lam}: {rel:.3e}");
    }
}

/// The sequential strong rule computed from scratch, sorted: with `beta`
/// the previous λ's solution and `c = X^T y - G beta` (the Gram's rows
/// read as the solver reads them, in the same order), the features with
/// `beta_j != 0` or `|c_j| >= 2 λ - λ_prev`.
fn strong_set(gram: &Matrix, xty: &[f64], beta: &[f64], lambda: f64, prev: f64) -> Vec<usize> {
    let p = xty.len();
    let mut c = xty.to_vec();
    for (s, &b) in beta.iter().enumerate() {
        if b != 0.0 {
            for (i, ci) in c.iter_mut().enumerate() {
                *ci += -b * gram[(s.min(i), s.max(i))];
            }
        }
    }
    (0..p)
        .filter(|&j| beta[j] != 0.0 || c[j].abs() >= 2.0 * lambda - prev)
        .collect()
}

/// A path down, back up and down again: features that enter at the
/// small λs leave `S` once the rise zeroes them and return on the way
/// back down, so the held factor is updated by deletes and appends. At
/// every λ the active set — kept in admission order — is, as a set,
/// exactly what the sorted rule selects from scratch, and every polished
/// λ meets the 1e-9 relative KKT bound.
#[test]
fn features_leave_and_return_with_the_rule_set_at_every_lambda() {
    let mut returned = 0;
    for seed in [11, 12, 13] {
        let x = testgen::random_design(seed, 50, 30);
        let y = testgen::matched_response(seed, &x);
        let gram = syrk_t(&x);
        let metrics = Arc::new(MetricsRegistry::new());
        let solver = LassoAdmm::from_gram(gram.clone(), cfg()).with_metrics(metrics.clone());
        let xty = gemv_t(&x, &y);
        let lmax = lambda_max(&xty);
        let ratios = [
            0.9, 0.7, 0.5, 0.35, 0.25, 0.15, 0.1, 0.3, 0.6, 0.45, 0.3, 0.2, 0.12, 0.08,
        ];
        let lambdas: Vec<f64> = ratios.iter().map(|r| r * lmax).collect();
        let mut st = solver.init_state();
        let mut prev = lmax;
        let mut membership = vec![Vec::new(); x.cols()];
        for &lam in &lambdas {
            let want = strong_set(&gram, &xty, &st.z, lam, prev);
            solver.begin_lambda(&xty, lam, &mut st);
            let mut got = st.active_set().to_vec();
            got.sort_unstable();
            assert_eq!(
                got, want,
                "seed {seed}, lambda {lam}: S differs from the rule"
            );
            for (j, history) in membership.iter_mut().enumerate() {
                history.push(got.binary_search(&j).is_ok());
            }
            for _ in 0..solver.config().max_iter {
                solver.step(&xty, lam, &mut st);
                if st.converged {
                    break;
                }
            }
            assert!(st.converged, "seed {seed}, lambda {lam}");
            if st.polished {
                let rel = kkt_rel(&x, &y, &st.z, lam);
                assert!(rel <= POLISHED_KKT_REL, "lambda {lam}: {rel:.3e}");
            }
            prev = lam;
        }
        returned += membership
            .iter()
            .filter(|h| {
                let left = h.windows(2).position(|w| w[0] && !w[1]);
                left.is_some_and(|at| h[at + 1..].contains(&true))
            })
            .count();
        assert!(
            metrics.counter("admm.factor.rows_deleted") > 0,
            "seed {seed}"
        );
        assert!(
            metrics.counter("admm.factor.rows_appended") > 0,
            "seed {seed}"
        );
        assert!(
            metrics.counter("admm.factor.refactors") < lambdas.len() as u64,
            "seed {seed}: the held factor must be updated, not always rebuilt"
        );
    }
    assert!(returned > 0, "some feature must leave S and return");
}

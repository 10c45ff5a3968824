//! Enforces the allocation contract of the ADMM inner loop: once an
//! [`AdmmState`] is warm, a whole screened λ path driven through
//! `begin_lambda`/`step` — active-set gathers, sub-factorisations, polish
//! attempts and KKT re-entries included — performs zero heap
//! allocations, and the guarded path allocates no more than the
//! unguarded one. A counting global allocator makes the claim
//! falsifiable rather than aspirational.
//!
//! Allocations are counted per thread: the harness runs tests on sibling
//! threads, and a process-global counter would charge one test for
//! another's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use uoi_linalg::Matrix;
use uoi_solvers::{AdmmConfig, AdmmState, LassoAdmm, ResilienceConfig};
use uoi_telemetry::MetricsRegistry;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread tears down its locals.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn deterministic_design(n: usize, p: usize) -> Matrix {
    Matrix::from_fn(n, p, |i, j| {
        let t = (i * p + j) as f64;
        (t * 0.37).sin() + if i % (j + 2) == 0 { 0.5 } else { -0.25 }
    })
}

/// The divergence tripwire on the clean path costs zero extra heap
/// allocations: a guarded whole-path solve allocates exactly what the
/// unguarded one does (output solutions only; the empty trip list and
/// health vectors never touch the allocator).
#[test]
fn clean_guarded_path_allocates_no_more_than_unguarded() {
    let (n, p) = (48, 12);
    let x = deterministic_design(n, p);
    let y: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin()).collect();
    let gram = uoi_linalg::syrk_t(&x);
    let xty = uoi_linalg::gemv_t(&x, &y);
    let lambdas = [0.3, 0.1, 0.05, 0.01];

    let res = ResilienceConfig::default();
    let plain = LassoAdmm::from_gram(gram.clone(), AdmmConfig::default());
    let guarded = LassoAdmm::from_gram(gram, AdmmConfig::default());

    // One warm-up round each so lazily-grown buffers reach steady state
    // (and the guarded solver has probed its factor).
    let _ = plain.solve_path_with_rhs(&xty, &lambdas);
    let _ = guarded.solve_path_guarded(&xty, &lambdas, &res);

    let before = allocations();
    let base = plain.solve_path_with_rhs(&xty, &lambdas);
    let plain_allocs = allocations() - before;

    let before = allocations();
    let (sols, health) = guarded
        .solve_path_guarded(&xty, &lambdas, &res)
        .expect("well-conditioned gram factors cleanly");
    let guarded_allocs = allocations() - before;

    assert!(health.is_clean());
    assert_eq!(base.len(), sols.len());
    assert_eq!(
        guarded_allocs, plain_allocs,
        "guards must add no allocations on the clean path"
    );
}

/// Drive a screened path through the per-λ transition and single steps,
/// as `solve_path_with_rhs` does; returns the iterations summed over λ.
fn drive_path(solver: &LassoAdmm, xty: &[f64], lambdas: &[f64], st: &mut AdmmState) -> usize {
    let mut iterations = 0;
    for &lam in lambdas {
        solver.begin_lambda(xty, lam, st);
        for _ in 0..solver.config().max_iter {
            solver.step(xty, lam, st);
            if st.converged {
                break;
            }
        }
        iterations += st.iterations;
    }
    iterations
}

/// The strong-rule trap (see `uoi_linalg::testgen::strong_rule_trap`)
/// on its tripping grid, then down to λ = 0 so every buffer reaches its
/// full size.
fn reentry_problem() -> (Matrix, Vec<f64>, Vec<f64>) {
    let (x, y) = uoi_linalg::testgen::strong_rule_trap(7, 40, 16);
    let gram = uoi_linalg::syrk_t(&x);
    let xty = uoi_linalg::gemv_t(&x, &y);
    let lmax = xty.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let lambdas: Vec<f64> = [0.97, 0.9, 0.84, 0.5, 0.2, 0.0]
        .iter()
        .map(|r| r * lmax)
        .collect();
    (gram, xty, lambdas)
}

#[test]
fn warm_screened_path_is_allocation_free_across_kkt_reentry() {
    let (gram, xty, lambdas) = reentry_problem();
    let cfg = AdmmConfig {
        max_iter: 5000,
        ..AdmmConfig::default()
    };
    let solver = LassoAdmm::from_gram(gram.clone(), cfg.clone());

    // The driven path is the public path solve.
    let reference = solver.solve_path_with_rhs(&xty, &lambdas);
    let mut warm = solver.init_state();
    let mut driven = Vec::new();
    for &lam in &lambdas {
        drive_path(&solver, &xty, &[lam], &mut warm);
        driven.push(warm.z.clone());
    }
    for (a, b) in reference.iter().zip(&driven) {
        for (va, vb) in a.beta.iter().zip(b) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    // Warm-up pass: λ = 0 makes the active set all of p, so every
    // buffer reaches its steady-state size. Measured pass: the same path
    // again, from the warm state.
    let mut st = solver.init_state();
    drive_path(&solver, &xty, &lambdas, &mut st);
    let before = allocations();
    let iterations = drive_path(&solver, &xty, &lambdas, &mut st);
    let allocs = allocations() - before;
    assert!(iterations > 0);
    assert_eq!(allocs, 0, "warm screened path allocated");

    // The same two passes on a twin that counts re-entries (metrics only
    // observe; the iterates are identical): the measured pass re-enters.
    let metrics = Arc::new(MetricsRegistry::new());
    let twin = LassoAdmm::from_gram(gram, cfg).with_metrics(metrics.clone());
    let mut st = twin.init_state();
    drive_path(&twin, &xty, &lambdas, &mut st);
    let warm_reentries = metrics.counter("admm.kkt_reentries");
    assert!(
        warm_reentries > 0,
        "the design must exercise a KKT re-entry"
    );
    drive_path(&twin, &xty, &lambdas, &mut st);
    assert!(
        metrics.counter("admm.kkt_reentries") > warm_reentries,
        "the measured pass must re-enter too"
    );
}

/// Polish attempts — accepted and rejected, their reduced systems
/// gathered, factored and checked in the thread's shared scratch — add
/// no allocation to a warm screened path.
#[test]
fn warm_screened_path_is_allocation_free_across_polish_attempts() {
    let x = deterministic_design(60, 20);
    let y: Vec<f64> = (0..60)
        .map(|i| x[(i, 2)] - 0.5 * x[(i, 7)] + 0.3 * x[(i, 11)] + 0.05 * (i as f64 * 0.7).sin())
        .collect();
    let gram = uoi_linalg::syrk_t(&x);
    let xty = uoi_linalg::gemv_t(&x, &y);
    let lmax = xty.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let lambdas: Vec<f64> = (0..10).map(|k| lmax * 0.7_f64.powi(k)).collect();
    let solver = LassoAdmm::from_gram(gram.clone(), AdmmConfig::default());
    let mut st = solver.init_state();
    drive_path(&solver, &xty, &lambdas, &mut st);
    let before = allocations();
    drive_path(&solver, &xty, &lambdas, &mut st);
    assert_eq!(allocations() - before, 0, "warm polished path allocated");

    // The measured pass polishes every λ, after rejecting some patterns.
    let metrics = Arc::new(MetricsRegistry::new());
    let twin = LassoAdmm::from_gram(gram, AdmmConfig::default()).with_metrics(metrics.clone());
    let mut st = twin.init_state();
    drive_path(&twin, &xty, &lambdas, &mut st);
    let (attempts, accepted) = (
        metrics.counter("admm.polish.attempts"),
        metrics.counter("admm.polish.accepted"),
    );
    drive_path(&twin, &xty, &lambdas, &mut st);
    assert_eq!(
        metrics.counter("admm.polish.accepted") - accepted,
        lambdas.len() as u64
    );
    assert!(
        metrics.counter("admm.polish.attempts") - attempts > lambdas.len() as u64,
        "the measured pass must reject a pattern too"
    );
}

/// A path down, back up and down again: at the rise, features leave `S`
/// and the held factor deletes their rows (its rotation scratch was
/// reserved when the factor grew); on the way back down they are
/// admitted again and appended. A warm pass over it allocates nothing.
#[test]
fn warm_screened_path_is_allocation_free_across_delete_and_readmission() {
    let x = deterministic_design(60, 24);
    let y: Vec<f64> = (0..60)
        .map(|i| {
            x[(i, 1)] - 0.8 * x[(i, 5)] + 0.6 * x[(i, 9)] - 0.4 * x[(i, 14)]
                + 0.3 * x[(i, 20)]
                + 0.05 * (i as f64 * 0.9).sin()
        })
        .collect();
    let gram = uoi_linalg::syrk_t(&x);
    let xty = uoi_linalg::gemv_t(&x, &y);
    let lmax = xty.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let lambdas: Vec<f64> = [0.8, 0.5, 0.3, 0.15, 0.08, 0.4, 0.2, 0.1, 0.05]
        .iter()
        .map(|r| r * lmax)
        .collect();
    let solver = LassoAdmm::from_gram(gram.clone(), AdmmConfig::default());
    let mut st = solver.init_state();
    drive_path(&solver, &xty, &lambdas, &mut st);
    let before = allocations();
    drive_path(&solver, &xty, &lambdas, &mut st);
    assert_eq!(
        allocations() - before,
        0,
        "warm updated-factor path allocated"
    );

    // The measured pass deletes rows and appends them again.
    let metrics = Arc::new(MetricsRegistry::new());
    let twin = LassoAdmm::from_gram(gram, AdmmConfig::default()).with_metrics(metrics.clone());
    let mut st = twin.init_state();
    drive_path(&twin, &xty, &lambdas, &mut st);
    let counts = |name: &str| metrics.counter(name);
    let (deleted, appended) = (
        counts("admm.factor.rows_deleted"),
        counts("admm.factor.rows_appended"),
    );
    drive_path(&twin, &xty, &lambdas, &mut st);
    assert!(counts("admm.factor.rows_deleted") > deleted, "no delete");
    assert!(counts("admm.factor.rows_appended") > appended, "no append");
}

//! Serial and distributed `UoI_VAR` drive the same screened λ-path
//! transition column by column (`LassoAdmm::solve_path_with_rhs` in the
//! serial fit, `begin_lambda` + lockstep `step_many` rounds in the
//! distributed one), so their selection supports must be identical — the
//! benchmark's dist-vs-serial check on the `var_dist` shape fails a fit on
//! any support difference. The selection coefficients themselves are
//! pinned bit for bit by `uoi_var_dist`'s unit tests; the estimation
//! stage's OLS runs in a different (distributed) arithmetic order, so the
//! final coefficients agree to the benchmark's 5e-3, not bit for bit.

use uoi_core::{DistOptions, ExecMode, ParallelLayout, UoiLassoConfig, UoiVarConfig, UoiVarFitter};
use uoi_data::{VarConfig, VarProcess};
use uoi_linalg::Matrix;
use uoi_mpisim::MachineModel;
use uoi_solvers::AdmmConfig;

/// A scaled-down `var_dist` workload: VAR(1) over 12 nodes at density
/// 0.05, companion radius 0.6, 96 observations after burn-in.
fn series(seed: u64) -> Matrix {
    VarProcess::generate(&VarConfig {
        p: 12,
        order: 1,
        density: 0.05,
        target_radius: 0.6,
        noise_std: 1.0,
        seed,
    })
    .simulate(96, 50, seed ^ 0x5a5a)
}

/// The benchmark's UoI configuration: B1 = B2 = 5, q = 8,
/// `lambda_min_ratio` 5e-2, 200 ADMM iterations.
fn config(seed: u64) -> UoiVarConfig {
    UoiVarConfig {
        order: 1,
        block_len: None,
        base: UoiLassoConfig {
            b1: 5,
            b2: 5,
            q: 8,
            lambda_min_ratio: 5e-2,
            seed,
            admm: AdmmConfig {
                max_iter: 200,
                ..AdmmConfig::default()
            },
            ..UoiLassoConfig::default()
        },
    }
}

#[test]
fn serial_and_dist_var_select_identical_supports() {
    for seed in [1, 2] {
        let s = series(seed);
        let serial = UoiVarFitter::new(config(seed)).fit(&s).unwrap();
        // One executed rank priced as two (the benchmark's shape), and two
        // executed ranks, whose columns split across ranks.
        for (exec, modeled) in [(1, 2), (2, 2)] {
            let opts = DistOptions {
                exec_ranks: exec,
                modeled_ranks: modeled,
                machine: MachineModel::deterministic(),
                layout: ParallelLayout::admm_only(),
                n_readers: exec,
            };
            let dist = UoiVarFitter::new(config(seed))
                .mode(ExecMode::Dist(opts))
                .fit(&s)
                .unwrap();
            assert_eq!(
                serial.supports_per_lambda, dist.supports_per_lambda,
                "seed {seed}, {exec} ranks: selection supports differ"
            );
            assert_eq!(serial.vec_beta.len(), dist.vec_beta.len());
            for (a, b) in serial.vec_beta.iter().zip(&dist.vec_beta) {
                assert!(
                    (a - b).abs() < 5e-3,
                    "seed {seed}, {exec} ranks: {a} vs {b}"
                );
            }
        }
    }
}

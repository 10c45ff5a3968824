//! Correctness gate for the screened consensus λ path
//! (`DistLassoAdmm::solve_path_with_rhs`).
//! Every solution must meet the *global* LASSO KKT conditions of the
//! stacked problem — every polished λ to a relative bound of 1e-9 —,
//! select the supports the serial screened solver and coordinate descent
//! select on well-separated designs, and come back
//! bit-identical on every rank after the same number of collectives.
//! Two cases are pinned explicitly: a row split on which each rank's own
//! gradient would pick a different strong set (the rule must run on the
//! allreduced gradient), and a grid on which the strong rule misses a
//! feature and the KKT check must re-admit it.

use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;
use uoi_linalg::{gemv, gemv_t, syrk_t, syrk_t_upper, testgen, Matrix};
use uoi_mpisim::{Cluster, MachineModel};
use uoi_solvers::{
    lasso_cd, lasso_kkt_violation, support_of, AdmmConfig, AdmmSolution, CdConfig, DistLassoAdmm,
    LassoAdmm,
};
use uoi_telemetry::{MetricsRegistry, Telemetry};

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

fn lambda_max(x: &Matrix, y: &[f64]) -> f64 {
    gemv_t(x, y).iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `[1, r, r^2, ...] * lmax`, `q` values.
fn grid(lmax: f64, ratio: f64, q: usize) -> Vec<f64> {
    (0..q).map(|k| lmax * ratio.powi(k as i32)).collect()
}

/// Contiguous row blocks ending at each cut, the last at `n`.
fn blocks(cuts: &[usize], n: usize) -> Vec<Range<usize>> {
    let mut start = 0;
    cuts.iter()
        .chain(std::iter::once(&n))
        .map(|&end| {
            let r = start..end;
            start = end;
            r
        })
        .collect()
}

/// How each rank builds its solver.
#[derive(Clone, Copy, Debug)]
enum Build {
    /// `from_gram` on the block's upper Gram (the pipeline's constructor).
    Gram,
    /// `new` on the block itself: a kept Gram when the block has at least
    /// as many rows as features, otherwise a wide design whose active-set
    /// Grams are gathered from its columns.
    Dense,
}

/// Solve the path over the row `blocks` of `(x, y)`, one rank per block.
/// Asserts that every rank returns the same bits and iteration counts
/// after entering the same number of collectives, and returns rank 0's
/// solutions.
fn consensus_path(
    x: &Matrix,
    y: &[f64],
    blocks: &[Range<usize>],
    lambdas: &[f64],
    cfg: &AdmmConfig,
    build: Build,
    telemetry: Option<Telemetry>,
) -> Vec<AdmmSolution> {
    let mut cluster = Cluster::new(blocks.len(), MachineModel::deterministic());
    if let Some(t) = telemetry {
        cluster = cluster.with_telemetry(t);
    }
    let report = cluster.run(|ctx, comm| {
        let rows = blocks[comm.rank()].clone();
        let x_local = x.rows_range(rows.start, rows.end);
        let xty = gemv_t(&x_local, &y[rows]);
        let solver = match build {
            Build::Gram => {
                let gram = syrk_t_upper(&x_local).into_upper();
                DistLassoAdmm::from_gram(ctx, comm, gram, x_local.rows(), cfg.clone())
            }
            Build::Dense => DistLassoAdmm::new(ctx, comm, x_local, cfg.clone()),
        };
        let sols = solver.solve_path_with_rhs(ctx, comm, &xty, lambdas);
        (sols, ctx.collective_steps())
    });
    let (first, steps) = &report.results[0];
    for (r, (sols, s)) in report.results.iter().enumerate().skip(1) {
        assert_eq!(
            s, steps,
            "rank {r} entered a different number of collectives"
        );
        for (a, b) in sols.iter().zip(first) {
            assert_eq!(
                a.iterations, b.iterations,
                "rank {r}: iteration counts differ"
            );
            assert!(
                a.beta
                    .iter()
                    .zip(&b.beta)
                    .all(|(u, v)| u.to_bits() == v.to_bits()),
                "rank {r} returned different coefficients"
            );
        }
    }
    first.clone()
}

/// screening.rs's KKT bound, carried to the consensus problem over `B`
/// row blocks. At a converged iterate, on the active set
/// `c(z) - rho sum_i u_i = rho B (z - z_prev) + sum_i G_i,SS (x_i - z)`,
/// so the violation there is at most `sqrt(B) (s + tr(G) r)` for the
/// returned residuals (`||G_i|| <= tr G`,
/// `sum_i ||x_i - z|| <= sqrt(B) r`); off the set the re-entry check
/// enforces `|c_j| <= lambda` on the summed gradient. The slack is
/// screening.rs's: a factor 2 and the absolute-tolerance floor.
fn kkt_bound(x: &Matrix, sol: &AdmmSolution, ranks: usize, cfg: &AdmmConfig) -> f64 {
    let p = x.cols() as f64;
    let tr: f64 = x.as_slice().iter().map(|v| v * v).sum();
    let b = (ranks as f64).sqrt();
    2.0 * (b * (sol.dual_residual + tr * sol.primal_residual) + p.sqrt() * cfg.abstol * (1.0 + tr))
}

fn assert_path_optimal(
    x: &Matrix,
    y: &[f64],
    lambdas: &[f64],
    sols: &[AdmmSolution],
    ranks: usize,
    cfg: &AdmmConfig,
) {
    for (sol, &lam) in sols.iter().zip(lambdas) {
        assert!(sol.converged, "lambda {lam}: not converged");
        let viol = lasso_kkt_violation(x, y, &sol.beta, lam);
        let bound = kkt_bound(x, sol, ranks, cfg);
        assert!(
            viol <= bound,
            "lambda {lam}: KKT violation {viol:.3e} > bound {bound:.3e}"
        );
    }
}

/// 1–3 ranks with uneven cuts, every block at least two rows long.
fn split_strategy(n: usize) -> impl Strategy<Value = Vec<Range<usize>>> {
    (1usize..=3, 0.1..0.9f64, 0.1..0.9f64).prop_map(move |(ranks, a, b)| {
        let mut cuts: Vec<usize> = [a, b][..ranks - 1]
            .iter()
            .map(|f| ((f * n as f64) as usize).clamp(2, n - 2))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        if cuts.len() == 2 && cuts[1] - cuts[0] < 2 {
            cuts.pop();
        }
        blocks(&cuts, n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn screened_consensus_path_meets_global_kkt_bound(
        seed in 0u64..10_000,
        p in 4usize..32,
        split in split_strategy(48),
        ratio in 0.4..0.9f64,
        build in 0u8..2,
    ) {
        // Blocks of 2–46 rows against up to 31 features: narrow blocks
        // keep a Gram, short ones (dense build) keep their wide design.
        let x = testgen::random_design(seed, 48, p);
        let y = testgen::matched_response(seed, &x);
        let cfg = cfg();
        let lambdas = grid(lambda_max(&x, &y), ratio, 8);
        let build = if build == 0 { Build::Gram } else { Build::Dense };
        let sols = consensus_path(&x, &y, &split, &lambdas, &cfg, build, None);
        assert_path_optimal(&x, &y, &lambdas, &sols, split.len(), &cfg);
    }

    #[test]
    fn supports_match_serial_screened_and_cd_on_separated_designs(
        seed in 0u64..10_000,
        p in 6usize..20,
        split in split_strategy(60),
        frac in 0.05..0.6f64,
    ) {
        let x = testgen::random_design(seed, 60, p);
        let y = testgen::matched_response(seed, &x);
        let lmax = lambda_max(&x, &y);
        let lambdas = [0.9 * lmax, frac * lmax];
        let cd = lasso_cd(&x, &y, lambdas[1], &tight_cd());
        // Well separated at this lambda: active coefficients clear of zero
        // and inactive gradients clear of the threshold.
        let resid: Vec<f64> = y.iter().zip(gemv(&x, &cd)).map(|(a, b)| a - b).collect();
        let c = gemv_t(&x, &resid);
        let margin = 1e-3 * lambdas[1];
        prop_assume!(cd.iter().zip(&c).all(|(b, g)| {
            if *b != 0.0 { b.abs() > 1e-3 } else { g.abs() < lambdas[1] - margin }
        }));
        let serial = LassoAdmm::from_gram(syrk_t(&x), cfg())
            .solve_path_with_rhs(&gemv_t(&x, &y), &lambdas);
        let screened = consensus_path(&x, &y, &split, &lambdas, &cfg(), Build::Gram, None);
        let want = support_of(&serial[1].beta, 1e-6);
        prop_assert_eq!(&want, &support_of(&cd, 1e-6));
        prop_assert!(screened[1].converged);
        prop_assert_eq!(&support_of(&screened[1].beta, 1e-6), &want);
    }
}

/// Each block's response follows a different feature, so each rank's own
/// gradient points somewhere else.
fn disjoint_signal_problem() -> (Matrix, Vec<f64>, Vec<Range<usize>>) {
    let (n, p) = (60, 8);
    let x = testgen::random_design(7, n, p);
    let split = blocks(&[14, 35], n);
    let mut y = vec![0.0; n];
    for (k, rows) in split.iter().enumerate() {
        for i in rows.clone() {
            y[i] = 3.0 * x[(i, k)] + 0.01 * x[(i, p - 1)];
        }
    }
    (x, y, split)
}

/// The strong set a rank would select at `z = 0` from its own rows: its
/// gradient scaled up to the full sample, `(n / n_i) X_i^T y_i`, with the
/// path's true `λ_prev = lambda_max`.
fn local_strong_set(
    x: &Matrix,
    y: &[f64],
    rows: &Range<usize>,
    lambda: f64,
    lmax: f64,
) -> Vec<usize> {
    let scale = x.rows() as f64 / rows.len() as f64;
    let c = gemv_t(&x.rows_range(rows.start, rows.end), &y[rows.clone()]);
    (0..c.len())
        .filter(|&j| scale * c[j].abs() >= 2.0 * lambda - lmax)
        .collect()
}

#[test]
fn strong_rule_runs_on_the_reduced_gradient() {
    let (x, y, split) = disjoint_signal_problem();
    let cfg = cfg();
    let lmax = lambda_max(&x, &y);
    let lambdas = grid(lmax, 0.8, 6);
    // A rank-local rule would give every rank a different set — and the
    // ranks different consensus payload lengths.
    let local: Vec<Vec<usize>> = split
        .iter()
        .map(|rows| local_strong_set(&x, &y, rows, lambdas[0], lmax))
        .collect();
    assert!(
        local[0] != local[1] && local[1] != local[2] && local[0] != local[2],
        "the split must make the local strong sets differ: {local:?}"
    );
    for build in [Build::Gram, Build::Dense] {
        let sols = consensus_path(&x, &y, &split, &lambdas, &cfg, build, None);
        assert_path_optimal(&x, &y, &lambdas, &sols, split.len(), &cfg);
        let serial = LassoAdmm::from_gram(syrk_t(&x), cfg.clone())
            .solve_path_with_rhs(&gemv_t(&x, &y), &lambdas);
        for (d, s) in sols.iter().zip(&serial) {
            assert_eq!(support_of(&d.beta, 1e-6), support_of(&s.beta, 1e-6));
        }
    }
}

#[test]
fn mixed_gram_and_wide_blocks_agree() {
    // Uneven split of a p = 30 design: the 6- and 24-row blocks are wide
    // designs (n_i < p), whose packed G_i,SS is gathered from their
    // columns — for the 6-row block also once S outgrows its rows (S
    // reaches 7 to 19 features on this grid); the 30-row block keeps its
    // Gram. The ranks still agree on every S because it comes from the
    // summed gradient.
    let x = testgen::random_design(31, 60, 30);
    let y = testgen::matched_response(31, &x);
    let split = blocks(&[6, 30], 60);
    let cfg = cfg();
    let lambdas = grid(lambda_max(&x, &y), 0.85, 12);
    let sols = consensus_path(&x, &y, &split, &lambdas, &cfg, Build::Dense, None);
    assert_path_optimal(&x, &y, &lambdas, &sols, split.len(), &cfg);
}

#[test]
fn coarse_grid_forces_kkt_reentry_on_every_rank_count() {
    let cfg = cfg();
    for seed in 0..3 {
        let (x, y) = testgen::strong_rule_trap(seed, 40, 16);
        let lmax = lambda_max(&x, &y);
        let lambdas = [0.97, 0.9, 0.84].map(|r| r * lmax);
        let cd = lasso_cd(&x, &y, lambdas[2], &tight_cd());
        for split in [blocks(&[], 40), blocks(&[17], 40), blocks(&[9, 26], 40)] {
            let metrics = Arc::new(MetricsRegistry::new());
            let telemetry = Telemetry::with_metrics(metrics.clone());
            let sols = consensus_path(&x, &y, &split, &lambdas, &cfg, Build::Gram, Some(telemetry));
            let ranks = split.len();
            assert_path_optimal(&x, &y, &lambdas, &sols, ranks, &cfg);
            let last = &sols[2];
            assert_eq!(support_of(&last.beta, 1e-6), support_of(&cd, 1e-6));
            assert!(
                last.beta[1] != 0.0,
                "seed {seed}, {ranks} ranks: column 1 must be active"
            );
            assert!(
                metrics.counter("admm_dist.kkt_reentries") > 0,
                "seed {seed}, {ranks} ranks: the strong rule must miss a feature on this grid"
            );
        }
    }
}

/// Rank 0's solutions and polish counters of a metered consensus path.
fn metered_path(
    x: &Matrix,
    y: &[f64],
    split: &[Range<usize>],
    lambdas: &[f64],
    build: Build,
) -> (Vec<AdmmSolution>, u64, u64) {
    let metrics = Arc::new(MetricsRegistry::new());
    let telemetry = Telemetry::with_metrics(metrics.clone());
    let sols = consensus_path(x, y, split, lambdas, &cfg(), build, Some(telemetry));
    (
        sols,
        metrics.counter("admm.polish.attempts"),
        metrics.counter("admm.polish.accepted"),
    )
}

/// On 1–3 ranks with uneven splits, Gram and dense blocks alike, every
/// λ ends on a polish of the allreduced reduced system and meets the
/// global KKT conditions to 1e-9 relative to λ; `consensus_path` checks
/// that every rank made the same collectives to get there.
#[test]
fn polished_consensus_lambdas_meet_relative_kkt_1e9() {
    for seed in [2, 3] {
        let x = testgen::random_design(seed, 48, 10);
        let y = testgen::matched_response(seed, &x);
        let lambdas = grid(lambda_max(&x, &y), 0.6, 8);
        for split in [blocks(&[], 48), blocks(&[13], 48), blocks(&[7, 30], 48)] {
            for build in [Build::Gram, Build::Dense] {
                let (sols, attempts, accepted) = metered_path(&x, &y, &split, &lambdas, build);
                let ranks = split.len();
                assert_eq!(
                    accepted,
                    lambdas.len() as u64,
                    "seed {seed}, {ranks} ranks, {build:?}: every λ polishes"
                );
                assert!(attempts >= accepted);
                for (sol, &lam) in sols.iter().zip(&lambdas) {
                    let rel = lasso_kkt_violation(&x, &y, &sol.beta, lam) / lam;
                    assert!(
                        rel <= 1e-9,
                        "seed {seed}, {ranks} ranks, lambda {lam}: {rel:.3e}"
                    );
                }
            }
        }
    }
}

/// The consensus twin of screening.rs's check: a ratio-1/2 grid keeps
/// every feature in S, a fine grid through the same λs screens, and the
/// polished solutions agree to 1e-9.
#[test]
fn screened_and_unscreened_consensus_paths_agree_to_1e9() {
    let x = testgen::random_design(12, 60, 16);
    let y = testgen::matched_response(12, &x);
    let lmax = lambda_max(&x, &y);
    let coarse: Vec<f64> = [0.5, 0.25, 0.125].iter().map(|r| r * lmax).collect();
    let step = 0.5_f64.powf(1.0 / 6.0);
    let mut fine: Vec<f64> = [1.0, 0.5, 0.25]
        .iter()
        .flat_map(|r| (0..6).map(move |m| r * lmax * step.powi(m)))
        .collect();
    fine.push(coarse[2]);
    for split in [blocks(&[], 60), blocks(&[23], 60), blocks(&[11, 40], 60)] {
        let (full, _, full_polished) = metered_path(&x, &y, &split, &coarse, Build::Gram);
        let (screened, _, screened_polished) = metered_path(&x, &y, &split, &fine, Build::Gram);
        assert_eq!(full_polished, coarse.len() as u64);
        assert_eq!(screened_polished, fine.len() as u64);
        for (k, &lam) in coarse.iter().enumerate() {
            let at = fine.iter().position(|&l| l == lam).unwrap();
            let (a, b) = (&full[k].beta, &screened[at].beta);
            let scale = 1.0 + a.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            for (u, v) in a.iter().zip(b) {
                assert!(
                    (u - v).abs() <= 1e-9 * scale,
                    "{} ranks: {u} vs {v}",
                    split.len()
                );
            }
        }
    }
}

/// One rank's outcome of a Gram-built consensus path: its solutions and
/// its modeled compute seconds.
type RankPath = (Vec<AdmmSolution>, f64);

/// Solve the path over the row `blocks` with `from_gram` (lazy full
/// factor) or `try_from_gram` (eager), one rank per block.
fn factor_path(
    x: &Matrix,
    y: &[f64],
    blocks: &[Range<usize>],
    lambdas: &[f64],
    eager: bool,
) -> Vec<RankPath> {
    let cluster = Cluster::new(blocks.len(), MachineModel::deterministic());
    cluster
        .run(|ctx, comm| {
            let rows = blocks[comm.rank()].clone();
            let x_local = x.rows_range(rows.start, rows.end);
            let xty = gemv_t(&x_local, &y[rows]);
            let gram = syrk_t_upper(&x_local).into_upper();
            let n = x_local.rows();
            let solver = if eager {
                DistLassoAdmm::try_from_gram(ctx, comm, gram, n, cfg()).unwrap()
            } else {
                DistLassoAdmm::from_gram(ctx, comm, gram, n, cfg())
            };
            let sols = solver.solve_path_with_rhs(ctx, comm, &xty, lambdas);
            (sols, ctx.ledger().compute)
        })
        .results
}

fn same_bits(a: &[AdmmSolution], b: &[AdmmSolution]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(u, v)| {
            u.iterations == v.iterations
                && u.beta
                    .iter()
                    .zip(&v.beta)
                    .all(|(s, t)| s.to_bits() == t.to_bits())
        })
}

/// A screened consensus path whose `S` never holds every feature reads
/// only active-set factors, so `from_gram` never builds the p × p local
/// factor and its modeled compute lacks that charge; the eager
/// constructor pays it, and the two return the same bits.
#[test]
fn screened_consensus_path_builds_no_full_factor() {
    let x = testgen::random_design(12, 60, 16);
    let y = testgen::matched_response(12, &x);
    let lmax = lambda_max(&x, &y);
    let step = 0.5_f64.powf(1.0 / 6.0);
    let lambdas: Vec<f64> = (0..6).map(|m| lmax * step.powi(m)).collect();
    for split in [blocks(&[], 60), blocks(&[23], 60), blocks(&[11, 40], 60)] {
        let lazy = factor_path(&x, &y, &split, &lambdas, false);
        let eager = factor_path(&x, &y, &split, &lambdas, true);
        for (r, ((ls, lcompute), (es, ecompute))) in lazy.iter().zip(&eager).enumerate() {
            assert!(
                lcompute < ecompute,
                "rank {r}: lazy compute {lcompute} not below eager {ecompute}"
            );
            assert!(same_bits(ls, es), "rank {r}: lazy and eager paths differ");
        }
    }
}

/// When `S` holds every feature (a ratio-1/2 grid keeps them all), the
/// lazy solver builds and charges the full factor on first use: it
/// matches the eager one bit for bit, with the same modeled compute.
#[test]
fn full_support_path_builds_the_factor_lazily_with_eager_bits() {
    let x = testgen::random_design(12, 60, 16);
    let y = testgen::matched_response(12, &x);
    let lmax = lambda_max(&x, &y);
    let lambdas: Vec<f64> = [0.5, 0.25, 0.125].iter().map(|r| r * lmax).collect();
    for split in [blocks(&[], 60), blocks(&[23], 60)] {
        let lazy = factor_path(&x, &y, &split, &lambdas, false);
        let eager = factor_path(&x, &y, &split, &lambdas, true);
        for (r, ((ls, lcompute), (es, ecompute))) in lazy.iter().zip(&eager).enumerate() {
            assert!(
                (lcompute - ecompute).abs() <= 1e-12 * ecompute,
                "rank {r}: lazy compute {lcompute} vs eager {ecompute}"
            );
            assert!(same_bits(ls, es), "rank {r}: lazy and eager paths differ");
        }
    }
}

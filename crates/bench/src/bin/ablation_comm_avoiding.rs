//! Ablation: the communication-avoiding `UoI_VAR` variant the paper's
//! Discussion (§V) proposes — "using local computation modules to create
//! the matrix and then have a one-time communication" — versus the
//! implemented distributed-Kronecker path.
//!
//! The serial column-decomposed solver (`UoiVarFitter` in
//! `ExecMode::Serial`) *is* the communication-avoiding limit: it exploits
//! `(I ⊗ X)^T (I ⊗ X) = I ⊗ (X^T X)` so each response column solves
//! locally against one shared factorisation, with no per-iteration
//! estimate exchange. We compare the two paths' statistical output
//! (identical) and their modeled communication/distribution cost.

use uoi_bench::setups::machine;
use uoi_bench::{emit_run_report, quick_mode, BenchTrace, Table};
use uoi_core::uoi_lasso::UoiLassoConfig;
use uoi_core::uoi_var::UoiVarConfig;
use uoi_core::{DistOptions, ExecMode, ParallelLayout, UoiVarFitter};
use uoi_data::{VarConfig, VarProcess};
use uoi_mpisim::{Cluster, Phase};
use uoi_solvers::AdmmConfig;

fn main() {
    let p = if quick_mode() { 16 } else { 24 };
    let proc = VarProcess::generate(&VarConfig {
        p,
        order: 1,
        density: 0.1,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 77,
    });
    let series = proc.simulate(600, 80, 78);

    let base = UoiLassoConfig {
        b1: 6,
        b2: 4,
        q: 8,
        lambda_min_ratio: 2e-2,
        admm: AdmmConfig {
            max_iter: 1500,
            abstol: 1e-8,
            reltol: 1e-7,
            ..Default::default()
        },
        support_tol: 1e-6,
        seed: 79,
        ..Default::default()
    };
    let var_cfg = UoiVarConfig {
        order: 1,
        block_len: None,
        base,
    };

    // Communication-avoiding path (serial column decomposition).
    let t0 = std::time::Instant::now();
    let ca_fit = UoiVarFitter::new(var_cfg.clone())
        .fit(&series)
        .expect("serial VAR fit");
    let ca_wall = t0.elapsed().as_secs_f64();

    // Distributed-Kronecker path on a simulated partition.
    let fitter = UoiVarFitter::new(var_cfg).mode(ExecMode::Dist(
        DistOptions::default()
            .layout(ParallelLayout::admm_only())
            .n_readers(4),
    ));
    let series2 = series;
    let trace = BenchTrace::from_env("ablation_comm_avoiding");
    let report = Cluster::new(8, machine())
        .modeled_ranks(1024)
        .with_telemetry(trace.telemetry())
        .run(move |ctx, world| {
            let (fit, kron) = fitter.fit_on(ctx, world, &series2);
            (fit, kron.kron_seconds, ctx.ledger())
        });
    let (dist_fit, kron, ledger) = &report.results[0];

    // Statistical agreement.
    let mut max_diff = 0.0_f64;
    for (a, b) in ca_fit.vec_beta.iter().zip(&dist_fit.vec_beta) {
        max_diff = max_diff.max((a - b).abs());
    }

    let mut t = Table::new(
        "Ablation — distributed Kronecker vs communication-avoiding column decomposition",
        &["metric", "distributed-Kron", "comm-avoiding"],
    );
    t.row(&[
        "per-iteration estimate allreduce".into(),
        "yes (d*p^2 doubles/round)".into(),
        "none (local solves)".into(),
    ]);
    t.row(&[
        "modeled communication (s)".into(),
        format!("{:.4}", ledger.get(Phase::Comm)),
        "0".into(),
    ]);
    t.row(&[
        "modeled Kron distribution (s)".into(),
        format!("{kron:.4}"),
        "0 (one-time gather only)".into(),
    ]);
    t.row(&[
        "host wall time (s)".into(),
        "n/a (simulated)".into(),
        format!("{ca_wall:.3}"),
    ]);
    t.row(&[
        "max |coef difference|".into(),
        format!("{max_diff:.2e}"),
        "reference".into(),
    ]);
    t.row(&[
        "selected supports identical".into(),
        (ca_fit.supports_per_lambda == dist_fit.supports_per_lambda).to_string(),
        "reference".into(),
    ]);
    t.emit("ablation_comm_avoiding");
    emit_run_report(
        &trace.annotate(
            t.run_report("ablation_comm_avoiding")
                .param("p", p)
                .with_summary(report.run_summary()),
        ),
    );
    println!(
        "take-away: the two paths are statistically interchangeable; all of the distributed\n\
         path's communication + Kron-distribution time is the price of the paper's explicit\n\
         vectorised formulation — exactly the overhead §V proposes to avoid."
    );
}

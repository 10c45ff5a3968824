//! Ablation: the §V mitigation — "one of the ways to avoid the
//! \[distribution\] problem is by utilizing `P_B` parallelism" — and the
//! effect of the reader count on the distributed Kronecker build.
//!
//! Two sweeps at a fixed problem: (a) `P_B` from 1 to 8 with everything
//! else fixed (more bootstrap groups -> fewer sequential Kron rounds per
//! group); (b) `n_readers` from 1 to 8 (more windows -> less
//! serialisation).

use uoi_bench::setups::machine;
use uoi_bench::{emit_run_report, quick_mode, BenchTrace, RunSummary, Table};
use uoi_core::uoi_lasso::UoiLassoConfig;
use uoi_core::uoi_var::UoiVarConfig;
use uoi_core::{DistOptions, ExecMode, ParallelLayout, UoiVarFitter};
use uoi_data::{VarConfig, VarProcess};
use uoi_mpisim::Cluster;
use uoi_solvers::AdmmConfig;

fn run_case(
    series: &uoi_linalg::Matrix,
    p_b: usize,
    n_readers: usize,
    b: usize,
) -> (f64, f64, RunSummary, BenchTrace) {
    let var_cfg = UoiVarConfig {
        order: 1,
        block_len: None,
        base: UoiLassoConfig {
            b1: b,
            b2: b / 2,
            q: 4,
            lambda_min_ratio: 5e-2,
            admm: AdmmConfig {
                max_iter: 200,
                ..Default::default()
            },
            support_tol: 1e-6,
            seed: 83,
            ..Default::default()
        },
    };
    let fitter = UoiVarFitter::new(var_cfg).mode(ExecMode::Dist(
        DistOptions::default()
            .layout(ParallelLayout { p_b, p_lambda: 1 })
            .n_readers(n_readers),
    ));
    let series = series.clone();
    // Separate trace per sweep point: virtual clocks restart at zero
    // for every cluster, so merged timelines would overlap.
    let trace = BenchTrace::from_env(&format!("ablation_pb_kron.pb{p_b}_r{n_readers}"));
    let report = Cluster::new(8, machine())
        .modeled_ranks(8 * 512)
        .with_telemetry(trace.telemetry())
        .run(move |ctx, world| {
            let (_, kron) = fitter.fit_on(ctx, world, &series);
            (kron.kron_seconds, ctx.clock())
        });
    let kron = report.results.iter().map(|&(k, _)| k).fold(0.0, f64::max);
    let total = report.makespan();
    let summary = report.run_summary();
    (kron, total, summary, trace)
}

fn main() {
    let p = if quick_mode() { 16 } else { 24 };
    let b = 8;
    let proc = VarProcess::generate(&VarConfig {
        p,
        order: 1,
        density: 0.1,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 81,
    });
    let series = proc.simulate(500, 80, 82);

    let mut t = Table::new(
        &format!("Ablation — P_B parallelism vs Kron distribution time (B1={b}, p={p})"),
        &["P_B", "n_readers", "kron+vec (s)", "total (s)"],
    );
    let mut last_summary = None;
    let mut last_trace = None;
    for &p_b in &[1usize, 2, 4, 8] {
        let (kron, total, summary, trace) = run_case(&series, p_b, 4, b);
        last_summary = Some(summary);
        last_trace = Some(trace);
        t.row(&[
            p_b.to_string(),
            "4".into(),
            format!("{kron:.4}"),
            format!("{total:.4}"),
        ]);
    }
    for &readers in &[1usize, 2, 8] {
        let (kron, total, summary, trace) = run_case(&series, 1, readers, b);
        last_summary = Some(summary);
        last_trace = Some(trace);
        t.row(&[
            "1".into(),
            readers.to_string(),
            format!("{kron:.4}"),
            format!("{total:.4}"),
        ]);
    }
    t.emit("ablation_pb_kron");
    let mut rep = t
        .run_report("ablation_pb_kron")
        .param("p", p)
        .param("b1", b);
    if let Some(s) = last_summary {
        rep = rep.with_summary(s);
    }
    if let Some(trace) = &last_trace {
        rep = trace.annotate(rep);
    }
    emit_run_report(&rep);
    println!(
        "take-away: raising P_B cuts the sequential Kron rounds per group (the §V\n\
         mitigation); raising n_readers divides the window serialisation."
    );
}

//! Fig 7: `UoI_VAR` single-node runtime breakdown (16 GB-class problem,
//! `B1 = B2 = 5`, `q = 8`, 68 cores).
//!
//! Paper shape: computation ≈88% of the runtime; the distributed
//! Kronecker product + vectorisation constitutes >98% of the distribution
//! bar; communication grows relative to `UoI_LASSO` because of the
//! vectorised problem-size explosion.

use uoi_bench::setups::{machine, single_node, var_features};
use uoi_bench::straggler::{annotate_with_study, StudyPipeline};
use uoi_bench::workload::VarScalingRun;
use uoi_bench::{emit_run_report, exec_ranks, fmt_bytes, quick_mode, BenchTrace, Table};
use uoi_mpisim::Phase;
use uoi_solvers::AdmmConfig;

fn main() {
    let point = single_node();
    // Paper features at 16 GB ≈ 212; execute a scaled-down node count.
    let paper_p = var_features(point.bytes);
    let p = if quick_mode() { 48 } else { 128 };
    println!(
        "Fig 7 setup: paper {} (p={paper_p}) on {} cores -> executed p={p}, {} ranks modeled as {} cores",
        fmt_bytes(point.bytes),
        point.cores,
        exec_ranks(),
        point.cores,
    );
    // In-rank ADMM workers over the response columns (UOI_THREADS
    // overrides): each lockstep round charges ceil(columns/threads)
    // column-updates of modeled compute instead of all of them.
    let threads = AdmmConfig::env_threads(4);
    let run = VarScalingRun {
        features: p,
        samples: 2 * p,
        modeled_cores: point.cores,
        exec_ranks: exec_ranks(),
        n_readers: 4,
        b1: 5,
        b2: 5,
        q: 8,
        threads,
        model: machine(),
        seed: 13,
    };
    let trace = BenchTrace::from_env("fig7_var_single_node");
    let mut out = run.execute_traced(trace.telemetry());
    let l = out.per_core_ledger();
    let kron_max = out.kron_seconds();
    let total = l.total().max(1e-12);

    let mut t = Table::new(
        "Fig 7 — UoI_VAR single-node runtime breakdown (B1=B2=5, q=8)",
        &["phase", "seconds", "% of total"],
    );
    for ph in Phase::ALL {
        t.row(&[
            ph.label().into(),
            format!("{:.4}", l.get(ph)),
            format!("{:.1}%", 100.0 * l.get(ph) / total),
        ]);
    }
    t.row(&[
        "  (Kron+vec within Distribution)".into(),
        format!("{kron_max:.4}"),
        format!(
            "{:.1}%",
            100.0 * kron_max / l.get(Phase::Distribution).max(1e-12)
        ),
    ]);
    t.row(&["Total".into(), format!("{total:.4}"), "100.0%".into()]);
    t.emit("fig7_var_single_node");
    let mut rr = t
        .run_report("fig7_var_single_node")
        .param("exec_p", p)
        .param("threads", threads)
        .param("gram_kernel", uoi_linalg::gram::KERNEL_VARIANT)
        .param("admm_path", uoi_solvers::PATH_VARIANT)
        .with_summary(out.report.run_summary());
    if let Some(health) = out.numerical.take() {
        rr = rr.with_numerical(health);
    }
    emit_run_report(&trace.annotate(annotate_with_study(rr, StudyPipeline::Var)));

    println!(
        "paper shape check: computation {:.0}% (paper ~88%); Kron+vec is {:.0}% of the\n\
         distribution bar (paper >98%).",
        100.0 * l.compute / total,
        100.0 * kron_max / l.get(Phase::Distribution).max(1e-12)
    );
}

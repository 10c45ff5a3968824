//! Fig 4: weak scaling of `UoI_LASSO` — 128 GB / 4,352 cores doubling to
//! 8 TB / 278,528 cores, per-core block fixed (~196 rows x 20,101
//! features per core).
//!
//! Paper shape: computation is nearly flat (ideal weak scaling, slight
//! rise at 8 TB); communication (`MPI_Allreduce`-dominated) grows with
//! the core count.

use std::sync::Arc;
use uoi_bench::setups::{lasso_rows, lasso_weak, machine, LASSO_FEATURES};
use uoi_bench::workload::{lasso_scaling_cfg, LassoScalingFit};
use uoi_bench::{emit_run_report, exec_ranks, fmt_bytes, quick_mode, Table};
use uoi_core::ParallelLayout;
use uoi_mpisim::Phase;
use uoi_telemetry::{HistogramSummary, MetricsRegistry, Telemetry};

fn main() {
    let (b1, b2, q) = if quick_mode() { (1, 1, 2) } else { (2, 2, 4) };
    let mut t = Table::new(
        "Fig 4 — UoI_LASSO weak scaling (fixed per-core block)",
        &[
            "data size",
            "cores",
            "rows/core",
            "computation (s)",
            "communication (s)",
            "distribution (s)",
            "data I/O (s)",
            "total (s)",
            "median |S|",
            "max |S|",
        ],
    );
    let mut last_summary = None;
    for point in lasso_weak() {
        let rows_per_core = (lasso_rows(point.bytes) as f64 / point.cores as f64).round() as usize;
        let metrics = Arc::new(MetricsRegistry::new());
        let report = LassoScalingFit {
            rows_per_core,
            features: LASSO_FEATURES,
            modeled_cores: point.cores,
            exec_ranks: exec_ranks(),
            layout: ParallelLayout::admm_only(),
            cfg: lasso_scaling_cfg(b1, b2, q, 7),
            data_seed: 7,
            io_bytes: Some(point.bytes),
            model: machine(),
        }
        .execute(Telemetry::with_metrics(metrics.clone()));
        let l = report.phase_max();
        let active = HistogramSummary::from_samples(&metrics.samples("admm_dist.active_size"));
        last_summary = Some(report.run_summary());
        t.row(&[
            fmt_bytes(point.bytes),
            point.cores.to_string(),
            rows_per_core.to_string(),
            format!("{:.3}", l.get(Phase::Compute)),
            format!("{:.3}", l.get(Phase::Comm)),
            format!("{:.3}", l.get(Phase::Distribution)),
            format!("{:.3}", l.get(Phase::DataIo)),
            format!("{:.3}", l.total()),
            format!("{}", active.p50),
            format!("{}", active.max),
        ]);
    }
    t.emit("fig4_lasso_weak");
    let mut rep = t.run_report("fig4_lasso_weak");
    if let Some(s) = last_summary {
        rep = rep.with_summary(s);
    }
    emit_run_report(&rep);
    println!(
        "paper shape check: computation ~flat across the sweep; communication grows with core count.\n\
         |S| is each consensus lambda's final active set, against rows/core = n_local."
    );
}

//! Fig 2: `UoI_LASSO` single-node runtime breakdown (16 GB-class dataset,
//! `B1 = B2 = 5`, `q = 8`, 68 KNL cores).
//!
//! The paper reports ~90% of the runtime in computation and <10% in
//! communication, with small distribution and data-I/O bars. We run the
//! full distributed pipeline (SHF file → Tier-1 read → Tier-2 shuffles →
//! consensus ADMM → reduces) on a scaled dataset with the cost model
//! evaluated at 68 cores and print the same four bars.

use uoi_bench::setups::{machine, single_node};
use uoi_bench::straggler::{annotate_with_study, StudyPipeline};
use uoi_bench::{
    emit_run_report, exec_ranks, fmt_bytes, quick_mode, scale_divisor, BenchTrace, Table,
};
use std::sync::{Arc, Mutex};

use uoi_core::{DistOptions, ExecMode, NumericalConfig, ParallelLayout, UoiFitter, UoiLassoConfig};
use uoi_data::LinearConfig;
use uoi_mpisim::{Cluster, Phase};
use uoi_solvers::{AdmmConfig, PathSchedule};

fn main() {
    let point = single_node();
    let scaled_bytes = point.bytes / scale_divisor() as f64;
    // Scaled shape: keep the paper's B1/B2/q; shrink p and n together.
    let p = if quick_mode() { 256 } else { 512 };
    let n = ((scaled_bytes / (8.0 * p as f64)) as usize).max(64);
    println!(
        "Fig 2 setup: paper {} on {} cores -> executed {} ({} x {}), {} ranks modeled as {} cores",
        fmt_bytes(point.bytes),
        point.cores,
        fmt_bytes(scaled_bytes),
        n,
        p,
        exec_ranks(),
        point.cores
    );

    let ds = LinearConfig {
        n_samples: n,
        n_features: p,
        n_nonzero: 20,
        snr: 8.0,
        seed: 2,
        ..Default::default()
    }
    .generate();

    // In-rank ADMM workers over the lambda path: UOI_THREADS overrides,
    // and any multi-threaded run switches to the fused lockstep schedule
    // so adjacent lambdas share one factorisation per round.
    let threads = AdmmConfig::env_threads(4);
    let schedule = if threads > 1 {
        PathSchedule::Fused
    } else {
        PathSchedule::Sequential
    };
    // UOI_NUMERICAL=1 arms the numerical-resilience guards; the fitted
    // numbers are bit-identical on this clean dataset and the run report
    // gains a `numerical` health block (consumed by bench_snapshot.sh).
    let guarded = std::env::var("UOI_NUMERICAL").is_ok_and(|v| v == "1");
    let cfg = UoiLassoConfig {
        b1: 5,
        b2: 5,
        q: 8,
        lambda_min_ratio: 5e-2,
        admm: AdmmConfig {
            max_iter: 150,
            threads,
            schedule,
            ..Default::default()
        },
        support_tol: 1e-6,
        seed: 11,
        numerical: if guarded {
            NumericalConfig::guarded()
        } else {
            NumericalConfig::default()
        },
        ..Default::default()
    };
    let (x, y) = (ds.x.clone(), ds.y);
    let numerical_out = Arc::new(Mutex::new(None));
    let numerical_slot = Arc::clone(&numerical_out);
    let paper_bytes = point.bytes;
    let trace = BenchTrace::from_env("fig2_lasso_single_node");
    let report = Cluster::new(exec_ranks(), machine())
        .modeled_ranks(point.cores)
        .with_telemetry(trace.telemetry())
        .run(move |ctx, world| {
            // Parallel HDF5-style load of the (paper-sized) dataset plus a
            // result save at the end — the paper's "Data I/O" bar.
            ctx.span("read_t1.load", |ctx| {
                let t_read = ctx
                    .model()
                    .io
                    .parallel_read_time(world.modeled_size(ctx), paper_bytes);
                ctx.charge_io(t_read);
            });
            let fitter = UoiFitter::new(cfg.clone()).mode(ExecMode::Dist(
                DistOptions::default().layout(ParallelLayout::admm_only()),
            ));
            let fit = fitter.fit_on(ctx, world, &x, &y);
            if world.rank() == 0 {
                if let Some(health) = &fit.numerical {
                    *numerical_slot.lock().unwrap() = Some(health.to_json());
                }
            }
            ctx.span("checkpoint.save", |ctx| {
                let t_save = ctx
                    .model()
                    .io
                    .parallel_read_time(world.modeled_size(ctx), (fit.beta.len() * 8) as f64);
                ctx.charge_io(t_save);
            });
            ctx.ledger()
        });

    let l = report.phase_max();
    let total = l.total().max(1e-12);
    let mut t = Table::new(
        "Fig 2 — UoI_LASSO single-node runtime breakdown (B1=B2=5, q=8)",
        &["phase", "seconds", "% of total"],
    );
    for ph in Phase::ALL {
        t.row(&[
            ph.label().into(),
            format!("{:.4}", l.get(ph)),
            format!("{:.1}%", 100.0 * l.get(ph) / total),
        ]);
    }
    t.row(&["Total".into(), format!("{total:.4}"), "100.0%".into()]);
    t.emit("fig2_lasso_single_node");
    let mut rr = t
        .run_report("fig2_lasso_single_node")
        .param("modeled_cores", point.cores)
        .param("threads", threads)
        .param("admm_schedule", format!("{schedule:?}"))
        .param("gram_kernel", uoi_linalg::gram::KERNEL_VARIANT)
        .param("admm_path", uoi_solvers::PATH_VARIANT)
        .with_summary(report.run_summary());
    if let Some(health) = numerical_out.lock().unwrap().take() {
        rr = rr.with_numerical(health);
    }
    emit_run_report(&trace.annotate(annotate_with_study(rr, StudyPipeline::Lasso)));

    println!(
        "paper shape check: computation {:.0}% (paper ~90%), communication {:.0}% (paper <10%)",
        100.0 * l.compute / total,
        100.0 * l.comm / total
    );
}

//! End-to-end traced-pipeline acceptance: a fig2-style distributed
//! `UoI_LASSO` run under `BenchTrace` must (a) leave artifacts that pass
//! the gates of `uoi_trace check`: no dropped records, per-rank phase
//! sums within 5% of wall time (they agree to fp round-off by
//! construction), lint-clean expositions and a valid Chrome export; and
//! (b) expose an injected straggler as collective-wait *idle* on the
//! healthy ranks.

use uoi_bench::{gates, BenchTrace};
use uoi_core::{DistOptions, ExecMode, ParallelLayout, UoiFitter, UoiLassoConfig};
use uoi_data::LinearConfig;
use uoi_mpisim::{Cluster, FaultPlan, MachineModel};
use uoi_solvers::AdmmConfig;
use uoi_telemetry::{analyze, build_timeline, Json, JsonlSink};

fn small_cfg() -> UoiLassoConfig {
    UoiLassoConfig {
        b1: 3,
        b2: 3,
        q: 4,
        lambda_min_ratio: 5e-2,
        admm: AdmmConfig {
            max_iter: 60,
            ..Default::default()
        },
        support_tol: 1e-6,
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn traced_fig2_style_run_produces_consistent_artifacts() {
    // The whole test shares one results dir; `UOI_RESULTS_DIR` routes
    // every artifact there (single #[test], so no env races in-process).
    let dir = std::env::temp_dir().join(format!("uoi_trace_pipeline_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("UOI_RESULTS_DIR", &dir);

    let ds = LinearConfig {
        n_samples: 96,
        n_features: 24,
        n_nonzero: 4,
        snr: 8.0,
        seed: 2,
        ..Default::default()
    }
    .generate();
    let cfg = small_cfg();
    let (x, y) = (ds.x.clone(), ds.y);

    // --- Traced run with an injected 4x straggler on rank 1. ---
    let trace = BenchTrace::enabled("trace_pipeline_test");
    assert!(trace.enabled_now());
    let report = Cluster::new(4, MachineModel::deterministic())
        .with_telemetry(trace.telemetry())
        .with_fault_plan(FaultPlan::new(0).straggler(1, 4.0))
        .run(move |ctx, world| {
            let fit = UoiFitter::new(cfg.clone())
                .mode(ExecMode::Dist(DistOptions {
                    layout: ParallelLayout::admm_only(),
                    ..Default::default()
                }))
                .fit_on(ctx, world, &x, &y);
            ctx.span("checkpoint.save", |ctx| ctx.charge_io(1e-3));
            fit.support.len()
        });

    let run_report = trace.annotate(
        uoi_bench::Table::new("trace pipeline test", &["k"])
            .run_report("trace_pipeline_test")
            .with_summary(report.run_summary()),
    );
    let doc = run_report.to_json();
    let breakdown = doc.get("breakdown").expect("annotate attaches a breakdown");
    let per_rank = breakdown.get("per_rank").and_then(Json::as_arr).unwrap();
    assert_eq!(per_rank.len(), 4);
    assert!(per_rank
        .iter()
        .all(|rk| rk.get("wall").and_then(Json::as_num) > Some(0.0)));
    run_report.write_to_dir(&dir).unwrap();
    let trace_path = dir.join("trace_pipeline_test.trace.jsonl");
    let events = JsonlSink::read_events(&trace_path).unwrap();
    let chrome = uoi_telemetry::to_chrome_trace(&events);
    let chrome_events = chrome.get("traceEvents").and_then(Json::as_arr);
    assert!(chrome_events.map_or(0, <[Json]>::len) > 4);
    let chrome = chrome.to_string_compact();
    std::fs::write(dir.join("trace_pipeline_test.trace.chrome.json"), chrome).unwrap();

    // (a) The gates of `uoi_trace check` pass. The 60-iteration cap
    // leaves a solve unconverged, so the convergence gate is left to
    // the real fig2 artifacts.
    for (gate, outcome) in gates::check(&dir.join("trace_pipeline_test")) {
        if let (false, Err(why)) = (gate == "convergence", outcome) {
            panic!("{gate}: {why}");
        }
    }

    // (b) The straggler's peers idle at collectives; the straggler
    // itself (rank 1) barely waits. Recompute from the raw events so the
    // assertion covers the whole path, not just the serialised numbers.
    let analysis = analyze(&build_timeline(&events));
    assert!(analysis.max_sum_error() < 1e-9);
    let idle_of = |rank: usize| {
        analysis
            .ranks
            .iter()
            .find(|r| r.rank == rank)
            .map(|r| r.idle)
            .unwrap()
    };
    let healthy_idle = [0usize, 2, 3].map(idle_of);
    let straggler_idle = idle_of(1);
    for (i, idle) in healthy_idle.iter().enumerate() {
        assert!(
            *idle > straggler_idle * 10.0,
            "healthy rank {i} idle {idle} should dwarf straggler idle {straggler_idle}"
        );
    }
    assert!(healthy_idle.iter().all(|&i| i > 0.0));

    let _ = std::fs::remove_dir_all(&dir);
}

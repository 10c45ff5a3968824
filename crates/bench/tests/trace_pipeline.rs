//! End-to-end traced-pipeline acceptance: a fig2-style distributed
//! `UoI_LASSO` run under `BenchTrace` must (a) leave a Perfetto-loadable
//! Chrome trace and a JSONL trace on disk, (b) attach a breakdown to
//! the `RunReport` whose per-rank phase sums agree with wall time
//! within 5% (they agree to fp round-off by construction), and (c)
//! expose an injected straggler as collective-wait *idle* on the
//! healthy ranks.

use uoi_bench::BenchTrace;
use uoi_core::{DistOptions, ExecMode, ParallelLayout, UoiFitter, UoiLassoConfig};
use uoi_data::LinearConfig;
use uoi_mpisim::{Cluster, FaultPlan, MachineModel};
use uoi_solvers::AdmmConfig;
use uoi_telemetry::{analyze, build_timeline, Json, JsonlSink, PipelinePhase};

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

    // (a) JSONL trace on disk, parseable, with zero dropped records.
    let trace_path = dir.join("trace_pipeline_test.trace.jsonl");
    let events = JsonlSink::read_events(&trace_path).unwrap();
    assert!(!events.is_empty());
    assert_eq!(
        doc.get("telemetry")
            .and_then(|t| t.get("dropped_records"))
            .and_then(Json::as_num),
        Some(0.0)
    );

    // (b) Breakdown attached, sums within 5% of per-rank wall time.
    let breakdown = doc
        .get("breakdown")
        .expect("annotate must attach a breakdown");
    let per_rank = breakdown.get("per_rank").and_then(Json::as_arr).unwrap();
    assert_eq!(per_rank.len(), 4);
    for rk in per_rank {
        let wall = rk.get("wall").and_then(Json::as_num).unwrap();
        let phases = rk.get("phases").unwrap();
        let sum: f64 = PipelinePhase::ALL
            .iter()
            .filter_map(|ph| phases.get(ph.label()))
            .filter_map(|s| s.get("wall").and_then(Json::as_num))
            .sum();
        assert!(wall > 0.0);
        assert!(
            ((sum - wall) / wall).abs() < 0.05,
            "phase sum {sum} vs wall {wall} off by more than 5%"
        );
    }

    // (c) The straggler's peers idle at collectives; the straggler
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

    // (d) Chrome trace export is valid JSON of the expected shape.
    let chrome = uoi_telemetry::to_chrome_trace(&events);
    let parsed = Json::parse(&chrome.to_string_compact()).unwrap();
    let evs = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(evs.len() > 4, "expected events, got {}", evs.len());
    for ev in evs {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap();
        assert!(
            matches!(ph, "X" | "i" | "C" | "M"),
            "unexpected phase type {ph}"
        );
        if ph == "X" {
            assert!(ev.get("dur").and_then(Json::as_num).unwrap() >= 0.0);
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

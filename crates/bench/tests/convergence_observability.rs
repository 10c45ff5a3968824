//! Convergence & progress observability acceptance (ISSUE 9): a traced
//! fig2-style fit must yield a [`ConvergenceReport`] whose task count
//! equals `B1·|λ-path| + B2`, selection probabilities in `[0, 1]` that
//! are byte-identical across reruns, and a replayed
//! [`ProgressTracker`] whose completion reaches exactly 1.0 at fit end
//! with monotone non-increasing ETA updates along the way.

use std::sync::Arc;

use uoi_core::{DistOptions, ExecMode, ParallelLayout, UoiFitter, UoiLassoConfig};
use uoi_data::LinearConfig;
use uoi_mpisim::{Cluster, MachineModel};
use uoi_solvers::AdmmConfig;
use uoi_telemetry::{
    ConvergenceReport, MemorySink, ProgressPlan, ProgressTracker, Telemetry, TraceEvent,
    CONVERGENCE_SCHEMA,
};

const B1: usize = 4;
const B2: usize = 3;
const Q: usize = 5;

fn dataset() -> uoi_data::LinearDataset {
    LinearConfig {
        n_samples: 90,
        n_features: 20,
        n_nonzero: 4,
        snr: 8.0,
        seed: 5,
        ..Default::default()
    }
    .generate()
}

fn cfg(telemetry: Telemetry) -> UoiLassoConfig {
    UoiLassoConfig::builder()
        .b1(B1)
        .b2(B2)
        .q(Q)
        .seed(13)
        .telemetry(telemetry)
        .build()
        .unwrap()
}

/// One traced serial fit → the raw convergence events.
fn traced_serial_events(ds: &uoi_data::LinearDataset) -> Vec<TraceEvent> {
    let sink = Arc::new(MemorySink::new());
    let _fit = UoiFitter::new(cfg(Telemetry::with_sink(sink.clone())))
        .fit(&ds.x, &ds.y)
        .unwrap();
    sink.snapshot()
}

#[test]
fn convergence_report_counts_tasks_and_is_rerun_stable() {
    let ds = dataset();
    let events = traced_serial_events(&ds);
    let report = ConvergenceReport::from_events(&events);

    // Task census: one selection record per (bootstrap, λ) pair plus
    // one estimation record per estimation bootstrap.
    assert_eq!(report.selection.tasks, B1 * Q);
    assert_eq!(report.estimation.tasks, B2);
    assert_eq!(report.tasks, B1 * Q + B2);

    // Selection-stability block: a probability per feature, all in
    // [0, 1], over exactly the B1 selection bootstraps.
    assert_eq!(report.stability.bootstraps, B1);
    assert_eq!(report.stability.n_features, 20);
    assert_eq!(report.stability.selection_probability.len(), 20);
    for p in &report.stability.selection_probability {
        assert!(
            (0.0..=1.0).contains(p),
            "selection probability {p} outside [0,1]"
        );
    }
    assert!(
        report
            .stability
            .selection_probability
            .iter()
            .any(|&p| p > 0.0),
        "a well-posed fit must select something"
    );
    // Churn is one entry per λ-path step transition.
    assert_eq!(report.stability.support_churn.len(), Q.saturating_sub(1));

    let json = report.to_json();
    assert_eq!(
        json.get("schema").and_then(uoi_telemetry::Json::as_str),
        Some(CONVERGENCE_SCHEMA)
    );

    // Byte-identical across reruns: the report ignores timestamps and
    // sorts tasks deterministically, so a second identical fit must
    // serialize to the same bytes.
    let rerun = ConvergenceReport::from_events(&traced_serial_events(&ds));
    assert_eq!(
        json.to_string_compact(),
        rerun.to_json().to_string_compact(),
        "ConvergenceReport must be byte-identical across reruns"
    );
}

#[test]
fn progress_replay_completes_exactly_with_monotone_eta() {
    let ds = dataset();
    let (x, y) = (ds.x.clone(), ds.y);

    // Distributed fig2-style run: the simulated cluster's virtual clock
    // gives the convergence records real (deterministic) timestamps, so
    // the ETA model has data to work with.
    let sink = Arc::new(MemorySink::new());
    let fit_cfg = UoiLassoConfig {
        b1: B1,
        b2: B2,
        q: Q,
        admm: AdmmConfig::default(),
        seed: 13,
        ..Default::default()
    };
    Cluster::new(4, MachineModel::deterministic())
        .with_telemetry(Telemetry::with_sink(sink.clone()))
        .run(move |ctx, world| {
            UoiFitter::new(fit_cfg.clone())
                .mode(ExecMode::Dist(DistOptions {
                    layout: ParallelLayout::admm_only(),
                    ..Default::default()
                }))
                .fit_on(ctx, world, &x, &y)
                .support
                .len()
        });

    let mut events: Vec<TraceEvent> = sink
        .snapshot()
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::Convergence { .. }))
        .collect();
    assert_eq!(
        events.len(),
        B1 * Q + B2,
        "group leaders must emit exactly one record per task"
    );
    // Replay in completion order, the order a live monitor sees.
    events.sort_by(|a, b| {
        let t = |e: &TraceEvent| match e {
            TraceEvent::Convergence { t, .. } => *t,
            _ => 0.0,
        };
        t(a).total_cmp(&t(b))
    });

    let mut tracker = ProgressTracker::new(ProgressPlan::for_fit(B1, B2, Q));
    assert_eq!(tracker.plan().total(), B1 * Q + B2);
    let mut last_eta = f64::INFINITY;
    let mut last_completion = 0.0;
    for ev in &events {
        tracker.observe(ev);
        let snap = tracker.snapshot();
        assert!(
            snap.completion >= last_completion,
            "completion must be non-decreasing"
        );
        last_completion = snap.completion;
        if let Some(eta) = snap.eta_seconds {
            assert!(
                eta <= last_eta + 1e-12,
                "ETA must be monotone non-increasing, got {eta} after {last_eta}"
            );
            last_eta = eta;
        }
    }

    let end = tracker.snapshot();
    assert_eq!(end.completed, B1 * Q + B2);
    assert_eq!(end.selection_done, B1 * Q);
    assert_eq!(end.estimation_done, B2);
    assert_eq!(
        end.completion, 1.0,
        "completion must be exactly 1.0 at fit end"
    );
    assert_eq!(end.eta_seconds, Some(0.0));
    assert_eq!(end.nonconverged, 0, "fig2-style fit must fully converge");
}

//! Observation must never perturb the statistics: a UoI fit with tracing
//! and metrics attached is bit-identical to the same seeded fit with
//! telemetry disabled, and the instrumentation actually fires.

use std::sync::Arc;
use uoi_core::{UoiFitter, UoiLassoConfig, UoiVarConfig, UoiVarFitter};
use uoi_data::{LinearConfig, VarConfig, VarProcess};
use uoi_telemetry::{MemorySink, MetricsRegistry, Telemetry, TraceEvent};

fn lasso_cfg(telemetry: Telemetry) -> UoiLassoConfig {
    UoiLassoConfig::builder()
        .b1(6)
        .b2(5)
        .q(8)
        .seed(11)
        .telemetry(telemetry)
        .build()
        .unwrap()
}

#[test]
fn lasso_fit_is_bit_identical_with_and_without_telemetry() {
    let ds = LinearConfig {
        n_samples: 90,
        n_features: 24,
        n_nonzero: 5,
        snr: 8.0,
        seed: 17,
        ..Default::default()
    }
    .generate();

    let plain = UoiFitter::new(lasso_cfg(Telemetry::disabled()))
        .fit(&ds.x, &ds.y)
        .unwrap();

    let sink = Arc::new(MemorySink::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let observed = UoiFitter::new(lasso_cfg(Telemetry::new(sink.clone(), metrics.clone())))
        .fit(&ds.x, &ds.y)
        .unwrap();

    // Bit-identical statistics: same support, same coefficients, exactly.
    assert_eq!(plain.support, observed.support);
    assert_eq!(plain.beta.len(), observed.beta.len());
    for (a, b) in plain.beta.iter().zip(&observed.beta) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "beta must not drift under observation"
        );
    }
    assert_eq!(plain.support_family, observed.support_family);

    // ... and the observation actually happened.
    assert!(
        !sink.is_empty(),
        "tracing sink must have received spans/events"
    );
    assert!(
        metrics.counter("admm.solves") > 0,
        "ADMM solve counter must advance"
    );
    assert!(metrics.counter("uoi.estimation.bootstraps") > 0);

    // Convergence records: one per (bootstrap, λ) selection solve plus
    // one per estimation bootstrap, with the solver-health metrics
    // advanced alongside.
    let (mut sel, mut est) = (0usize, 0usize);
    for e in sink.snapshot() {
        if let TraceEvent::Convergence { stage, .. } = e {
            match stage {
                "selection" => sel += 1,
                _ => est += 1,
            }
        }
    }
    assert_eq!(sel, 6 * 8, "one selection record per (bootstrap, λ)");
    assert_eq!(est, 5, "one estimation record per estimation bootstrap");
    assert!(
        !metrics.samples("solver.iterations").is_empty(),
        "solver.iterations histogram must have samples"
    );
}

#[test]
fn var_fit_is_bit_identical_with_and_without_telemetry() {
    let proc = VarProcess::generate(&VarConfig {
        p: 8,
        order: 1,
        density: 0.15,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 23,
    });
    let series = proc.simulate(260, 60, 24);

    let base = |telemetry: Telemetry| UoiVarConfig {
        order: 1,
        block_len: None,
        base: UoiLassoConfig::builder()
            .b1(5)
            .b2(4)
            .q(6)
            .seed(7)
            .telemetry(telemetry)
            .build()
            .unwrap(),
    };

    let plain = UoiVarFitter::new(base(Telemetry::disabled()))
        .fit(&series)
        .unwrap();

    let sink = Arc::new(MemorySink::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let observed = UoiVarFitter::new(base(Telemetry::new(sink.clone(), metrics.clone())))
        .fit(&series)
        .unwrap();

    for (a, b) in plain.vec_beta.iter().zip(&observed.vec_beta) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "vec_beta must not drift under observation"
        );
    }
    assert!(!sink.is_empty());
    assert!(metrics.counter("admm.solves") > 0);

    // VAR aggregates the per-column solves into one convergence record
    // per (bootstrap, λ), plus one per estimation bootstrap.
    let conv = sink
        .snapshot()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Convergence { .. }))
        .count();
    assert_eq!(conv, 5 * 6 + 4);
}

#[test]
fn disabled_telemetry_records_nothing() {
    let t = Telemetry::disabled();
    assert!(!t.tracing_enabled());
    assert!(!t.metrics_enabled());
    assert!(t.metrics().is_none());
    // The hot-path hooks are no-ops and must not panic.
    t.incr("admm.solves", 1);
    t.gauge("uoi.support_size", 4.0);
    t.observe("admm.iterations", 12.0);
}

//! Degraded-mode and checkpoint/resume acceptance tests (ISSUE 3).
//!
//! * A fixed fault seed injecting `k <= B1/2` bootstrap failures lets
//!   the serial `UoiFitter` complete in degraded mode, with a
//!   [`DegradationReport`] that is byte-identical across reruns and
//!   selected supports matching the fault-free reference.
//! * A checkpointed run killed at ~50% of the bootstraps resumes
//!   bit-identically to an uninterrupted run with the same seed.
//! * LASSO and VAR fits sharing one checkpoint directory keep their
//!   stages apart: each rerun replays all of its own checkpoints.

use uoi_core::{
    BootstrapFaultPlan, CheckpointConfig, DegradationConfig, SelectionCounts, UoiError, UoiFitter,
    UoiLassoConfig, UoiVarFitter,
};
use uoi_data::LinearConfig;
use uoi_solvers::AdmmConfig;

const B1: usize = 8;
const B2: usize = 8;

fn lasso_cfg() -> uoi_core::UoiLassoConfigBuilder {
    UoiLassoConfig::builder()
        .b1(B1)
        .b2(B2)
        .q(8)
        .lambda_min_ratio(3e-2)
        .admm(AdmmConfig {
            max_iter: 1500,
            abstol: 1e-8,
            reltol: 1e-7,
            ..Default::default()
        })
        .support_tol(1e-6)
        .seed(13)
}

fn dataset() -> uoi_data::LinearDataset {
    LinearConfig {
        n_samples: 160,
        n_features: 16,
        n_nonzero: 4,
        snr: 16.0,
        seed: 29,
        ..Default::default()
    }
    .generate()
}

fn temp_ckpt_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("uoi_acc_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Acceptance: k = B1/2 failed selection bootstraps plus two failed
/// estimation bootstraps. The fit completes, reports the degradation
/// deterministically (byte-identical JSON across reruns), and still
/// recovers the same support as the fault-free reference.
#[test]
fn degraded_fit_completes_and_matches_fault_free_supports() {
    let ds = dataset();
    let plan = BootstrapFaultPlan::new(77)
        .with_random_selection_failures(B1, B1 / 2)
        .with_random_estimation_failures(B2, 2);
    let degraded_cfg = lasso_cfg()
        .degradation(DegradationConfig {
            plan: Some(plan),
            min_quorum_frac: 0.5,
        })
        .build()
        .unwrap();
    let clean_cfg = lasso_cfg().build().unwrap();

    let degraded = UoiFitter::new(degraded_cfg.clone())
        .fit(&ds.x, &ds.y)
        .expect("quorum holds");
    let clean = UoiFitter::new(clean_cfg).fit(&ds.x, &ds.y).unwrap();

    let report = degraded
        .degradation
        .as_ref()
        .expect("plan given => report attached");
    assert!(report.is_degraded());
    assert_eq!(report.b1_planned, B1);
    assert_eq!(report.b1_effective, B1 - B1 / 2);
    assert_eq!(report.b2_planned, B2);
    assert_eq!(report.b2_effective, B2 - 2);
    assert_eq!(report.failed_selection.len(), B1 / 2);

    // Byte-identical degradation report across reruns.
    let rerun = UoiFitter::new(degraded_cfg).fit(&ds.x, &ds.y).unwrap();
    assert_eq!(
        report.to_json().to_string_compact(),
        rerun.degradation.unwrap().to_json().to_string_compact()
    );
    assert_eq!(
        degraded.beta, rerun.beta,
        "degraded fit must be deterministic"
    );

    // The clean fit carries no report, and half the bootstraps dying must
    // not change which features survive the intersection on this
    // well-conditioned problem.
    assert!(clean.degradation.is_none());
    assert_eq!(
        degraded.support, clean.support,
        "supports must match fault-free run"
    );
    let counts = SelectionCounts::compare(&degraded.support, &ds.support_true, 16);
    assert!(counts.recall() >= 0.75, "recall {}", counts.recall());
}

/// Losing more bootstraps than the quorum allows is a typed error, not a
/// silently wrong fit.
#[test]
fn quorum_loss_is_a_typed_error() {
    let ds = dataset();
    let mut plan = BootstrapFaultPlan::new(0);
    for k in 0..B1 - 1 {
        plan = plan.fail_selection(k);
    }
    let cfg = lasso_cfg()
        .degradation(DegradationConfig {
            plan: Some(plan),
            min_quorum_frac: 0.5,
        })
        .build()
        .unwrap();
    match UoiFitter::new(cfg).fit(&ds.x, &ds.y) {
        Err(UoiError::QuorumLost {
            stage: "selection",
            surviving: 1,
            required: 4,
        }) => {}
        other => panic!("expected QuorumLost, got {other:?}"),
    }
}

/// Acceptance: kill a checkpointed run at ~50% of the bootstrap tasks
/// (via the `abort_after` budget), then resume from the same checkpoint
/// directory. The resumed fit is bit-identical to an uninterrupted run
/// with the same seed.
#[test]
fn interrupted_checkpoint_run_resumes_bit_identical() {
    let ds = dataset();
    let dir = temp_ckpt_dir("lasso_resume");

    // Uninterrupted reference (no checkpointing at all).
    let reference = UoiFitter::new(lasso_cfg().build().unwrap())
        .fit(&ds.x, &ds.y)
        .unwrap();

    // Phase 1: budget of B1/2 freshly computed tasks, then interruption.
    let interrupted_cfg = lasso_cfg()
        .checkpoint(CheckpointConfig {
            abort_after: Some(B1 / 2),
            ..CheckpointConfig::in_dir(&dir)
        })
        .build()
        .unwrap();
    match UoiFitter::new(interrupted_cfg).fit(&ds.x, &ds.y) {
        Err(UoiError::Interrupted { completed }) => {
            assert!(
                completed >= B1 / 2,
                "budget must be spent before interrupting"
            );
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }

    // Phase 2: resume without a budget; checkpointed bootstraps are
    // loaded, the rest computed fresh.
    let resume_cfg = lasso_cfg()
        .checkpoint(CheckpointConfig::in_dir(&dir))
        .build()
        .unwrap();
    let resumed = UoiFitter::new(resume_cfg.clone())
        .fit(&ds.x, &ds.y)
        .unwrap();

    assert_eq!(resumed.beta, reference.beta, "resume must be bit-identical");
    assert_eq!(resumed.support, reference.support);
    assert_eq!(resumed.supports_per_lambda, reference.supports_per_lambda);

    // Third run: everything is checkpointed now; still bit-identical.
    let warm = UoiFitter::new(resume_cfg).fit(&ds.x, &ds.y).unwrap();
    assert_eq!(warm.beta, reference.beta);

    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint directory written for one dataset/config must be ignored
/// (not corrupt the fit) when the data changes: the store fingerprint
/// embeds the data words.
#[test]
fn checkpoints_are_invalidated_by_data_changes() {
    let ds_a = dataset();
    let ds_b = LinearConfig {
        n_samples: 160,
        n_features: 16,
        n_nonzero: 4,
        snr: 16.0,
        seed: 30, // different data, same shape
        ..Default::default()
    }
    .generate();
    let dir = temp_ckpt_dir("lasso_fp");
    let cfg = lasso_cfg()
        .checkpoint(CheckpointConfig::in_dir(&dir))
        .build()
        .unwrap();

    let _ = UoiFitter::new(cfg.clone()).fit(&ds_a.x, &ds_a.y).unwrap();
    let fresh = UoiFitter::new(cfg).fit(&ds_b.x, &ds_b.y).unwrap();
    let clean = UoiFitter::new(lasso_cfg().build().unwrap())
        .fit(&ds_b.x, &ds_b.y)
        .unwrap();
    assert_eq!(
        fresh.beta, clean.beta,
        "stale checkpoints must not leak across datasets"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The VAR pipeline shares the machinery: interrupted checkpoint runs
/// resume bit-identically there too.
#[test]
fn var_checkpoint_resume_bit_identical() {
    use uoi_core::UoiVarConfig;
    let proc = uoi_data::VarProcess::generate(&uoi_data::VarConfig {
        p: 4,
        order: 1,
        density: 0.25,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 5,
    });
    let series = proc.simulate(150, 40, 7);
    let dir = temp_ckpt_dir("var_resume");

    let base = || {
        UoiVarConfig::builder()
            .b1(4)
            .b2(4)
            .q(6)
            .lambda_min_ratio(5e-2)
            .admm(AdmmConfig {
                max_iter: 800,
                abstol: 1e-7,
                reltol: 1e-6,
                ..Default::default()
            })
            .seed(21)
            .block_len(Some(12))
    };
    let reference = UoiVarFitter::new(base().build().unwrap())
        .fit(&series)
        .unwrap();

    let interrupted = base()
        .checkpoint(CheckpointConfig {
            abort_after: Some(2),
            ..CheckpointConfig::in_dir(&dir)
        })
        .build()
        .unwrap();
    match UoiVarFitter::new(interrupted).fit(&series) {
        Err(UoiError::Interrupted { .. }) => {}
        other => panic!("expected Interrupted, got {other:?}"),
    }

    let resumed = UoiVarFitter::new(
        base()
            .checkpoint(CheckpointConfig::in_dir(&dir))
            .build()
            .unwrap(),
    )
    .fit(&series)
    .unwrap();
    assert_eq!(
        resumed.vec_beta, reference.vec_beta,
        "VAR resume must be bit-identical"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// LASSO and VAR fits checkpointing into one shared directory keep their
/// stages apart: each rerun replays every one of its own selection
/// checkpoints and reproduces its first run bit for bit.
#[test]
fn shared_checkpoint_dir_keeps_lasso_and_var_apart() {
    use std::sync::Arc;
    use uoi_core::UoiVarConfig;
    use uoi_telemetry::{MetricsRegistry, Telemetry};
    let ds = dataset();
    let series = uoi_data::VarProcess::generate(&uoi_data::VarConfig {
        p: 4,
        order: 1,
        density: 0.25,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 5,
    })
    .simulate(150, 40, 7);
    let dir = temp_ckpt_dir("shared_lasso_var");
    let var_b1 = 4;

    let lasso = |tel: Telemetry| {
        let cfg = lasso_cfg()
            .checkpoint(CheckpointConfig::in_dir(&dir))
            .telemetry(tel)
            .build()
            .unwrap();
        UoiFitter::new(cfg).fit(&ds.x, &ds.y).unwrap()
    };
    let var = |tel: Telemetry| {
        let cfg = UoiVarConfig::builder()
            .b1(var_b1)
            .b2(4)
            .q(6)
            .lambda_min_ratio(5e-2)
            .seed(21)
            .block_len(Some(12))
            .checkpoint(CheckpointConfig::in_dir(&dir))
            .telemetry(tel)
            .build()
            .unwrap();
        UoiVarFitter::new(cfg).fit(&series).unwrap()
    };

    let lasso_first = lasso(Telemetry::disabled());
    let var_first = var(Telemetry::disabled());

    let lasso_metrics = Arc::new(MetricsRegistry::new());
    let lasso_again = lasso(Telemetry::with_metrics(lasso_metrics.clone()));
    let var_metrics = Arc::new(MetricsRegistry::new());
    let var_again = var(Telemetry::with_metrics(var_metrics.clone()));

    assert_eq!(lasso_metrics.counter("uoi.ckpt.selection_hits"), B1 as u64);
    assert_eq!(
        var_metrics.counter("uoi_var.ckpt.selection_hits"),
        var_b1 as u64
    );
    assert_eq!(lasso_again.support_family, lasso_first.support_family);
    assert_eq!(
        lasso_again.intercept.to_bits(),
        lasso_first.intercept.to_bits()
    );
    for (a, b) in lasso_again.beta.iter().zip(&lasso_first.beta) {
        assert_eq!(a.to_bits(), b.to_bits(), "LASSO rerun beta bits");
    }
    assert_eq!(var_again.support_family, var_first.support_family);
    for (a, b) in var_again.vec_beta.iter().zip(&var_first.vec_beta) {
        assert_eq!(a.to_bits(), b.to_bits(), "VAR rerun vec_beta bits");
    }
    for (a, b) in var_again.mu.iter().zip(&var_first.mu) {
        assert_eq!(a.to_bits(), b.to_bits(), "VAR rerun mu bits");
    }

    std::fs::remove_dir_all(&dir).ok();
}

fn var_series() -> uoi_linalg::Matrix {
    uoi_data::VarProcess::generate(&uoi_data::VarConfig {
        p: 4,
        order: 1,
        density: 0.25,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 5,
    })
    .simulate(150, 40, 7)
}

fn var_cfg(degradation: DegradationConfig) -> uoi_core::UoiVarConfig {
    uoi_core::UoiVarConfig::builder()
        .b1(B1)
        .b2(B2)
        .q(6)
        .lambda_min_ratio(5e-2)
        .admm(AdmmConfig {
            max_iter: 800,
            abstol: 1e-7,
            reltol: 1e-6,
            ..Default::default()
        })
        .seed(21)
        .block_len(Some(12))
        .degradation(degradation)
        .build()
        .unwrap()
}

/// The bootstraps each stage ran, read off the convergence records.
fn traced_bootstraps(
    events: &[uoi_telemetry::TraceEvent],
) -> (
    std::collections::BTreeSet<usize>,
    std::collections::BTreeSet<usize>,
) {
    let (mut sel, mut est) = (Default::default(), std::collections::BTreeSet::new());
    for e in events {
        if let uoi_telemetry::TraceEvent::Convergence {
            stage, bootstrap, ..
        } = e
        {
            match *stage {
                "selection" => &mut sel,
                _ => &mut est,
            }
            .insert(*bootstrap);
        }
    }
    (sel, est)
}

/// A fault plan that keeps quorum degrades the distributed pipelines the
/// way it degrades the serial one: every rank returns the identical fit,
/// its degradation report equals the serial fit's, and a killed
/// bootstrap leaves no convergence record behind while every survivor
/// leaves one per stage.
#[test]
fn dist_fits_under_a_fault_plan_match_serial_accounting() {
    use std::sync::Arc;
    use uoi_core::{DistOptions, ExecMode, ParallelLayout};
    use uoi_mpisim::{Cluster, MachineModel};
    use uoi_telemetry::{MemorySink, Telemetry};
    let plan = BootstrapFaultPlan::new(0)
        .fail_selection(1)
        .fail_selection(6)
        .fail_estimation(2);
    let degradation = DegradationConfig {
        plan: Some(plan.clone()),
        min_quorum_frac: 0.5,
    };
    let survivors = |total: usize, failed: &dyn Fn(usize) -> bool| -> Vec<usize> {
        (0..total).filter(|&k| !failed(k)).collect()
    };
    let want_sel = survivors(B1, &|k| plan.selection_failed(k));
    let want_est = survivors(B2, &|k| plan.estimation_failed(k));
    let check_trace = |sink: &MemorySink, what: &str| {
        let (sel, est) = traced_bootstraps(&sink.snapshot());
        assert_eq!(sel.into_iter().collect::<Vec<_>>(), want_sel, "{what}");
        assert_eq!(est.into_iter().collect::<Vec<_>>(), want_est, "{what}");
    };
    let nested = ParallelLayout {
        p_b: 2,
        p_lambda: 2,
    };

    let ds = dataset();
    let cfg = lasso_cfg()
        .degradation(degradation.clone())
        .build()
        .unwrap();
    let serial = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap();
    assert!(serial.degradation.as_ref().unwrap().is_degraded());
    for layout in [ParallelLayout::admm_only(), nested] {
        let sink = Arc::new(MemorySink::new());
        let fitter = UoiFitter::new(cfg.clone()).mode(ExecMode::Dist(
            DistOptions::default().ranks(4).layout(layout),
        ));
        let fits = Cluster::new(4, MachineModel::deterministic())
            .with_telemetry(Telemetry::with_sink(sink.clone()))
            .run(|ctx, world| fitter.fit_on(ctx, world, &ds.x, &ds.y))
            .results;
        for fit in &fits {
            assert_eq!(fit.degradation, serial.degradation, "{layout:?}");
            assert_eq!(fit.intercept.to_bits(), fits[0].intercept.to_bits());
            assert_eq!(fit.beta, fits[0].beta, "{layout:?}: ranks disagree");
            assert_eq!(fit.supports_per_lambda, fits[0].supports_per_lambda);
        }
        check_trace(&sink, &format!("LASSO {layout:?}"));
    }

    let series = var_series();
    let vcfg = var_cfg(degradation);
    let serial = UoiVarFitter::new(vcfg.clone()).fit(&series).unwrap();
    assert!(serial.degradation.as_ref().unwrap().is_degraded());
    let sink = Arc::new(MemorySink::new());
    let fitter =
        UoiVarFitter::new(vcfg).mode(ExecMode::Dist(DistOptions::default().ranks(4).n_readers(2)));
    let fits = Cluster::new(4, MachineModel::deterministic())
        .with_telemetry(Telemetry::with_sink(sink.clone()))
        .run(|ctx, world| fitter.fit_on(ctx, world, &series).0)
        .results;
    for fit in &fits {
        assert_eq!(fit.degradation, serial.degradation, "VAR");
        assert_eq!(fit.vec_beta, fits[0].vec_beta, "VAR: ranks disagree");
        assert_eq!(fit.mu, fits[0].mu);
        assert_eq!(fit.supports_per_lambda, fits[0].supports_per_lambda);
    }
    check_trace(&sink, "VAR");
}

/// A distributed fit that loses quorum returns the serial fit's typed
/// error instead of panicking inside the cluster.
#[test]
fn dist_quorum_loss_is_the_serial_typed_error() {
    use uoi_core::{DistOptions, ExecMode};
    let mut plan = BootstrapFaultPlan::new(0);
    for k in 0..B1 - 1 {
        plan = plan.fail_selection(k);
    }
    let degradation = DegradationConfig {
        plan: Some(plan),
        min_quorum_frac: 0.5,
    };
    let dist = || ExecMode::Dist(DistOptions::default().ranks(2).n_readers(2));
    let want = UoiError::QuorumLost {
        stage: "selection",
        surviving: 1,
        required: 4,
    };

    let ds = dataset();
    let cfg = lasso_cfg()
        .degradation(degradation.clone())
        .build()
        .unwrap();
    let serial = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap_err();
    assert_eq!(serial, want);
    let got = UoiFitter::new(cfg).mode(dist()).fit(&ds.x, &ds.y);
    assert_eq!(got.unwrap_err(), want, "LASSO");

    let series = var_series();
    let vcfg = var_cfg(degradation);
    let serial = UoiVarFitter::new(vcfg.clone()).fit(&series).unwrap_err();
    assert_eq!(serial, want);
    let got = UoiVarFitter::new(vcfg).mode(dist()).fit(&series);
    assert_eq!(got.unwrap_err(), want, "VAR");
}

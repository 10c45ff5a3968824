//! Shrink-and-recover acceptance tests (ISSUE 5).
//!
//! * Every fault-matrix cell — rank crash mid-exchange, straggler
//!   timeout (hang), transient window-op drop — times {lasso, var}
//!   yields supports and coefficients bit-identical (`f64::to_bits`) to
//!   the fault-free serial fit.
//! * The [`RecoveryReport`] JSON is byte-identical across same-seed
//!   reruns.
//! * `max_recovery_rounds = 0` reproduces the degraded-mode output
//!   exactly (regression against a directly-constructed fallback plan).
//! * A traced recovering run renders the `recovery` pipeline phase.
//! * `recovery_matrix_cell` is the env-driven CI entry point
//!   (`RECOVERY_FAULT_KIND` × `RECOVERY_FAULT_SEED` × `UOI_RECOVERY`).

use std::sync::Arc;
use std::time::Duration;
use uoi_core::{
    degraded_fallback_plan, CheckpointConfig, ExecMode, RecoveryConfig, TaskOwnership, UoiFit,
    UoiFitter, UoiLassoConfig, UoiVarConfig, UoiVarFit, UoiVarFitter,
};
use uoi_data::{LinearConfig, VarConfig, VarProcess};
use uoi_mpisim::FaultPlan;
use uoi_solvers::AdmmConfig;
use uoi_telemetry::{
    analyze, build_timeline, MemorySink, MetricsRegistry, PipelinePhase, Telemetry,
};

const B1: usize = 8;
const B2: usize = 8;
const WORLD: usize = 4;

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

fn var_cfg() -> uoi_core::UoiVarConfigBuilder {
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
}

fn var_series() -> uoi_linalg::Matrix {
    VarProcess::generate(&VarConfig {
        p: 4,
        order: 1,
        density: 0.25,
        target_radius: 0.6,
        noise_std: 1.0,
        seed: 5,
    })
    .simulate(150, 40, 7)
}

/// The victim rank for a fault seed: any rank in `1..WORLD`, derived
/// deterministically so reruns inject the identical fault.
fn victim_of(seed: u64) -> usize {
    1 + (seed as usize % (WORLD - 1))
}

/// One fault-matrix cell. The round's collective steps per rank are
/// `[0] sel window create, [1] sel fence, [2] est create, [3] est
/// fence`, so step 1 is "mid-exchange" — after the victim computed and
/// published its selection tasks, before the glue.
fn fault_cell(kind: &str, seed: u64) -> FaultPlan {
    let v = victim_of(seed);
    match kind {
        "crash" => FaultPlan::new(seed).crash_rank(v, 1),
        "hang" => FaultPlan::new(seed).hang_rank(v, 1),
        "drop" => FaultPlan::new(seed).drop_window_op(v, 0),
        other => panic!("unknown fault kind {other:?}"),
    }
}

fn rcfg(kind: &str, seed: u64) -> RecoveryConfig {
    RecoveryConfig {
        enabled: true,
        world: WORLD,
        max_rounds: 2,
        plan: Some(fault_cell(kind, seed)),
        // Hang resolution is watchdog-bounded: keep it short for that
        // cell, generous elsewhere so debug-mode compute imbalance can
        // never trip a spurious timeout.
        watchdog: if kind == "hang" {
            Duration::from_secs(2)
        } else {
            Duration::from_secs(10)
        },
        get_attempts: 4,
        speculation: Default::default(),
    }
}

fn assert_lasso_bits(fit: &UoiFit, reference: &UoiFit, cell: &str) {
    assert_eq!(fit.beta.len(), reference.beta.len());
    for (a, b) in fit.beta.iter().zip(&reference.beta) {
        assert_eq!(a.to_bits(), b.to_bits(), "[{cell}] beta bits must match");
    }
    assert_eq!(
        fit.intercept.to_bits(),
        reference.intercept.to_bits(),
        "[{cell}] intercept bits must match"
    );
    assert_eq!(fit.support, reference.support, "[{cell}] support");
    assert_eq!(
        fit.supports_per_lambda, reference.supports_per_lambda,
        "[{cell}] per-lambda supports"
    );
    assert_eq!(
        fit.support_family, reference.support_family,
        "[{cell}] support family"
    );
}

fn assert_var_bits(fit: &UoiVarFit, reference: &UoiVarFit, cell: &str) {
    assert_eq!(fit.vec_beta.len(), reference.vec_beta.len());
    for (a, b) in fit.vec_beta.iter().zip(&reference.vec_beta) {
        assert_eq!(a.to_bits(), b.to_bits(), "[{cell}] vec_beta bits");
    }
    for (a, b) in fit.mu.iter().zip(&reference.mu) {
        assert_eq!(a.to_bits(), b.to_bits(), "[{cell}] mu bits");
    }
    assert_eq!(
        fit.supports_per_lambda, reference.supports_per_lambda,
        "[{cell}] per-lambda supports"
    );
}

/// Acceptance: every fault kind recovers to the fault-free serial bits
/// for the lasso pipeline. Crash and hang cost one recovery round;
/// a transient window drop is absorbed by the data plane in round 0.
#[test]
fn lasso_recovery_matrix_is_bit_identical() {
    let ds = dataset();
    let cfg = lasso_cfg().build().unwrap();
    let reference = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap();

    // Fault-free recovering run: one round, nothing failed, same bits.
    let clean_rcfg = RecoveryConfig {
        world: WORLD,
        watchdog: Duration::from_secs(10),
        ..RecoveryConfig::default()
    };
    let clean = UoiFitter::new(cfg.clone())
        .mode(ExecMode::Recovering(clean_rcfg))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_lasso_bits(&clean, &reference, "fault-free");
    let report = clean.recovery.as_ref().unwrap();
    assert_eq!(report.rounds_attempted, 1);
    assert!(report.failed_ranks.is_empty());
    assert!(!report.degraded_fallback);

    let seed = 5;
    for kind in ["crash", "hang", "drop"] {
        let fit = UoiFitter::new(cfg.clone())
            .mode(ExecMode::Recovering(rcfg(kind, seed)))
            .fit(&ds.x, &ds.y)
            .unwrap();
        assert_lasso_bits(&fit, &reference, kind);
        let report = fit.recovery.as_ref().unwrap();
        assert!(!report.degraded_fallback, "[{kind}] no fallback expected");
        if kind == "drop" {
            // Absorbed by checksum-verified retries: no rank ever fails.
            assert_eq!(report.rounds_attempted, 1, "[{kind}]");
            assert!(report.failed_ranks.is_empty(), "[{kind}]");
        } else {
            assert_eq!(report.rounds_attempted, 2, "[{kind}]");
            assert_eq!(report.failed_ranks, vec![victim_of(seed)], "[{kind}]");
            assert!(
                !report.reassigned_selection.is_empty(),
                "[{kind}] the victim owned selection tasks"
            );
        }
    }
}

/// The VAR pipeline shares the recovery machinery: the same matrix, the
/// same bit-identity.
#[test]
fn var_recovery_matrix_is_bit_identical() {
    let series = var_series();
    let cfg = var_cfg().build().unwrap();
    let reference = UoiVarFitter::new(cfg.clone()).fit(&series).unwrap();

    let seed = 9;
    for kind in ["crash", "hang", "drop"] {
        let fit = UoiVarFitter::new(cfg.clone())
            .mode(ExecMode::Recovering(rcfg(kind, seed)))
            .fit(&series)
            .unwrap();
        assert_var_bits(&fit, &reference, kind);
        let report = fit.recovery.as_ref().unwrap();
        assert!(!report.degraded_fallback, "[{kind}]");
        if kind == "drop" {
            assert_eq!(report.rounds_attempted, 1, "[{kind}]");
        } else {
            assert_eq!(report.rounds_attempted, 2, "[{kind}]");
            assert_eq!(report.failed_ranks, vec![victim_of(seed)], "[{kind}]");
        }
    }
}

/// The recovery report is a pure function of `(config, fault plan)`:
/// same-seed reruns render byte-identical JSON (and the same fit bits).
#[test]
fn recovery_report_json_is_byte_identical_across_reruns() {
    let ds = dataset();
    let cfg = lasso_cfg().build().unwrap();
    let a = UoiFitter::new(cfg.clone())
        .mode(ExecMode::Recovering(rcfg("crash", 5)))
        .fit(&ds.x, &ds.y)
        .unwrap();
    let b = UoiFitter::new(cfg)
        .mode(ExecMode::Recovering(rcfg("crash", 5)))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_eq!(
        a.recovery.as_ref().unwrap().to_json().to_string_compact(),
        b.recovery.as_ref().unwrap().to_json().to_string_compact(),
        "report must be byte-identical across reruns"
    );
    assert_lasso_bits(&a, &b, "rerun");
}

/// Regression: a zero recovery budget must reproduce the degraded-mode
/// output exactly — the fallback plan marks precisely the tasks whose
/// round-0 owner died, and the fit equals the directly-constructed
/// degraded serial fit bit for bit.
#[test]
fn max_rounds_zero_reproduces_degraded_mode_exactly() {
    let ds = dataset();
    let cfg = lasso_cfg().build().unwrap();
    let seed = 5;
    let v = victim_of(seed);

    let zero_rounds = RecoveryConfig {
        max_rounds: 0,
        ..rcfg("crash", seed)
    };
    let fit = UoiFitter::new(cfg.clone())
        .mode(ExecMode::Recovering(zero_rounds))
        .fit(&ds.x, &ds.y)
        .unwrap();
    let report = fit.recovery.as_ref().unwrap();
    assert!(report.degraded_fallback, "budget 0 must fall back");
    assert_eq!(report.rounds_attempted, 1);
    assert_eq!(report.failed_ranks, vec![v]);

    // The directly-constructed degraded fit is the ground truth.
    let ownership = TaskOwnership::new(WORLD, cfg.seed);
    let plan = degraded_fallback_plan(&[v], &ownership, B1, B2, cfg.seed);
    let mut degraded_cfg = cfg;
    degraded_cfg.degradation.plan = Some(plan);
    let direct = UoiFitter::new(degraded_cfg).fit(&ds.x, &ds.y).unwrap();

    assert_lasso_bits(&fit, &direct, "fallback");
    assert_eq!(
        fit.degradation
            .as_ref()
            .unwrap()
            .to_json()
            .to_string_compact(),
        direct
            .degradation
            .as_ref()
            .unwrap()
            .to_json()
            .to_string_compact(),
        "fallback must carry the same degradation report"
    );
}

/// A Gram-checkpointed recovering run re-solves from the stored
/// `(X^T W X, X^T W y)` instead of re-accumulating — and stays
/// bit-identical. A second run over the same store hits the cache.
#[test]
fn gram_checkpointed_recovery_is_bit_identical() {
    let ds = dataset();
    let dir = std::env::temp_dir().join(format!("uoi_rec_gram_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let reference = UoiFitter::new(lasso_cfg().build().unwrap())
        .fit(&ds.x, &ds.y)
        .unwrap();

    let ck_cfg = lasso_cfg()
        .checkpoint(CheckpointConfig::in_dir(&dir))
        .build()
        .unwrap();
    let first = UoiFitter::new(ck_cfg)
        .mode(ExecMode::Recovering(rcfg("crash", 5)))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_lasso_bits(&first, &reference, "gram-cold");

    // Warm pass: count the Gram-checkpoint hits through metrics.
    let sink = Arc::new(MemorySink::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let warm_cfg = lasso_cfg()
        .checkpoint(CheckpointConfig::in_dir(&dir))
        .telemetry(Telemetry::new(sink, metrics.clone()))
        .build()
        .unwrap();
    let warm = UoiFitter::new(warm_cfg)
        .mode(ExecMode::Recovering(rcfg("crash", 5)))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_lasso_bits(&warm, &reference, "gram-warm");
    assert!(
        metrics.counter("uoi.recovery.gram_hits") > 0,
        "warm run must re-solve from stored Grams"
    );
    std::fs::remove_dir_all(&dir).ok();

    // The VAR round stores its shared lag Gram plus the p weighted
    // right-hand sides, and re-solves every column from them.
    let series = var_series();
    let dir = std::env::temp_dir().join(format!("uoi_rec_gram_var_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let reference = UoiVarFitter::new(var_cfg().build().unwrap())
        .fit(&series)
        .unwrap();
    let ck_cfg = var_cfg()
        .checkpoint(CheckpointConfig::in_dir(&dir))
        .build()
        .unwrap();
    let first = UoiVarFitter::new(ck_cfg)
        .mode(ExecMode::Recovering(rcfg("crash", 5)))
        .fit(&series)
        .unwrap();
    assert_var_bits(&first, &reference, "var-gram-cold");

    let metrics = Arc::new(MetricsRegistry::new());
    let warm_cfg = var_cfg()
        .checkpoint(CheckpointConfig::in_dir(&dir))
        .telemetry(Telemetry::with_metrics(metrics.clone()))
        .build()
        .unwrap();
    let warm = UoiVarFitter::new(warm_cfg)
        .mode(ExecMode::Recovering(rcfg("crash", 5)))
        .fit(&series)
        .unwrap();
    assert_var_bits(&warm, &reference, "var-gram-warm");
    assert!(
        metrics.counter("uoi_var.recovery.gram_hits") > 0,
        "warm VAR run must re-solve from stored Grams"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A traced recovering run must expose the `recovery` pipeline phase to
/// the timeline analysis (the `uoi-trace` rendering path).
#[test]
fn traced_recovering_run_renders_recovery_phase() {
    let ds = dataset();
    let sink = Arc::new(MemorySink::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let cfg = lasso_cfg()
        .telemetry(Telemetry::new(sink.clone(), metrics))
        .build()
        .unwrap();
    let fit = UoiFitter::new(cfg)
        .mode(ExecMode::Recovering(rcfg("crash", 5)))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_eq!(fit.recovery.as_ref().unwrap().rounds_attempted, 2);

    let events = sink.snapshot();
    assert!(!events.is_empty(), "the traced run must emit events");
    let breakdown = analyze(&build_timeline(&events));
    assert!(
        breakdown.phases.contains_key(&PipelinePhase::Recovery),
        "timeline must attribute work to the recovery phase"
    );
    let rendered = breakdown.render();
    assert!(
        rendered.contains("recovery"),
        "rendered report must show the recovery phase:\n{rendered}"
    );
}

/// CI entry point: one fault-matrix cell driven by the environment.
/// `RECOVERY_FAULT_KIND` ∈ {crash, hang, drop} selects the cell,
/// `RECOVERY_FAULT_SEED` the injection seed, and `UOI_RECOVERY` gates
/// the recovering execution (off → plain serial semantics, no report).
/// Skips silently when the kind is unset so plain `cargo test` runs are
/// unaffected.
#[test]
fn recovery_matrix_cell() {
    let kind = match std::env::var("RECOVERY_FAULT_KIND") {
        Ok(k) if !k.is_empty() => k,
        _ => return, // not a matrix run
    };
    let seed: u64 = std::env::var("RECOVERY_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    let ds = dataset();
    let cfg = lasso_cfg().build().unwrap();
    let reference = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap();

    let rcfg = RecoveryConfig {
        plan: Some(fault_cell(&kind, seed)),
        ..RecoveryConfig {
            world: WORLD,
            max_rounds: 2,
            get_attempts: 4,
            watchdog: if kind == "hang" {
                Duration::from_secs(2)
            } else {
                Duration::from_secs(10)
            },
            ..RecoveryConfig::from_env()
        }
    };
    let fit = UoiFitter::new(cfg)
        .mode(ExecMode::Recovering(rcfg.clone()))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_lasso_bits(&fit, &reference, &format!("cell {kind}/{seed}"));
    if rcfg.enabled {
        let report = fit.recovery.as_ref().expect("recovering run must report");
        assert!(!report.degraded_fallback);
    } else {
        assert!(
            fit.recovery.is_none(),
            "disabled recovery must be the plain serial fit"
        );
    }
}

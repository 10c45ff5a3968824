//! Speculative-execution acceptance tests (ISSUE 8).
//!
//! * Under single- and double-straggler plans the hedged lasso/VAR fits
//!   are bit-identical (`f64::to_bits`) to the fault-free serial fit —
//!   hedging changes the modeled schedule, never the math.
//! * The [`SpeculationReport`] recovers at least half of the
//!   straggler-induced modeled slowdown and its JSON is byte-identical
//!   across same-seed reruns.
//! * `UOI_SPECULATE` off leaves `fit.speculation` empty.
//! * A traced speculating run renders the `speculation` pipeline phase
//!   and the hedge counters.
//! * `straggler_matrix_cell` is the env-driven CI entry point
//!   (`STRAGGLER_PLAN` × `STRAGGLER_SEED` × `UOI_SPECULATE`).

use std::sync::Arc;
use std::time::Duration;
use uoi_core::{
    ExecMode, RecoveryConfig, SpeculationConfig, UoiFit, UoiFitter, UoiLassoConfig, UoiVarConfig,
    UoiVarFit, UoiVarFitter,
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

// `b1 = b2 = 8` over 4 ranks gives every rank two tasks per stage, so a
// flagged straggler's later tasks exercise hedge-at-start acceleration.
fn var_cfg() -> uoi_core::UoiVarConfigBuilder {
    UoiVarConfig::builder()
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

/// The primary straggling rank for a seed: any rank in `1..WORLD`,
/// derived deterministically so reruns inject the identical slowdown.
fn victim_of(seed: u64) -> usize {
    1 + (seed as usize % (WORLD - 1))
}

/// One straggler-plan cell. `single` slows one rank 4x; `double` adds a
/// second, milder straggler so replica placement must dodge it. The
/// second factor stays under the deadline multiplier: a quantile policy
/// cannot flag a fleet where half the observed durations straggle, so a
/// 2x peer keeps the q75 deadline anchored to the healthy ranks.
fn straggler_plan(kind: &str, seed: u64) -> FaultPlan {
    let v = victim_of(seed);
    match kind {
        "single" => FaultPlan::new(seed).straggler(v, 4.0),
        // The 2x peer raises the q75 deadline to 3.5x nominal, so the
        // primary must straggle harder than in `single` for a replica
        // launched at the deadline to still beat the owner.
        "double" => {
            let w = 1 + (v % (WORLD - 1));
            FaultPlan::new(seed).straggler(v, 6.0).straggler(w, 2.0)
        }
        other => panic!("unknown straggler plan {other:?}"),
    }
}

fn rcfg(kind: &str, seed: u64, speculate: bool) -> RecoveryConfig {
    RecoveryConfig {
        enabled: true,
        world: WORLD,
        max_rounds: 2,
        plan: Some(straggler_plan(kind, seed)),
        watchdog: Duration::from_secs(10),
        get_attempts: 4,
        speculation: SpeculationConfig {
            enabled: speculate,
            ..SpeculationConfig::default()
        },
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

/// Acceptance: hedged fits are bit-identical to the fault-free serial
/// fit under both straggler plans, the report accounts real hedges, and
/// the modeled makespan recovers at least half of the slowdown.
#[test]
fn hedged_lasso_fit_is_bit_identical_and_recovers_makespan() {
    let ds = dataset();
    let cfg = lasso_cfg().build().unwrap();
    let reference = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap();

    for kind in ["single", "double"] {
        let fit = UoiFitter::new(cfg.clone())
            .mode(ExecMode::Recovering(rcfg(kind, 5, true)))
            .fit(&ds.x, &ds.y)
            .unwrap();
        assert_lasso_bits(&fit, &reference, kind);
        let report = fit.speculation.as_ref().expect("speculating run reports");
        assert!(report.enabled);
        assert_eq!(report.stages.len(), 2, "[{kind}] sel + est stages");
        assert!(
            report.hedges_spawned() > 0,
            "[{kind}] a 4x straggler must get hedged"
        );
        assert_eq!(
            report.hedges_won() + report.hedges_cancelled(),
            report.hedges_spawned(),
            "[{kind}] every hedge resolves as win or cancellation"
        );
        assert!(report.heartbeats() > 0, "[{kind}] owners must heartbeat");
        let recovered = report
            .recovered_fraction()
            .expect("stragglers induce a slowdown");
        assert!(
            recovered >= 0.5,
            "[{kind}] hedging must recover >= 50% of the modeled slowdown, got {recovered}"
        );
    }
}

/// The VAR pipeline shares the speculation machinery: same bit-identity,
/// same recovery floor.
#[test]
fn hedged_var_fit_is_bit_identical_and_recovers_makespan() {
    let series = var_series();
    let cfg = var_cfg().build().unwrap();
    let reference = UoiVarFitter::new(cfg.clone()).fit(&series).unwrap();

    for kind in ["single", "double"] {
        let fit = UoiVarFitter::new(cfg.clone())
            .mode(ExecMode::Recovering(rcfg(kind, 9, true)))
            .fit(&series)
            .unwrap();
        assert_var_bits(&fit, &reference, kind);
        let report = fit.speculation.as_ref().expect("speculating run reports");
        assert!(report.hedges_spawned() > 0, "[{kind}]");
        let recovered = report.recovered_fraction().unwrap();
        assert!(recovered >= 0.5, "[{kind}] got {recovered}");
    }
}

/// With speculation off the same straggler plan yields the same bits and
/// no report — the hedging layer is fully inert.
#[test]
fn speculation_off_is_inert() {
    let ds = dataset();
    let cfg = lasso_cfg().build().unwrap();
    let reference = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap();
    let fit = UoiFitter::new(cfg)
        .mode(ExecMode::Recovering(rcfg("single", 5, false)))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_lasso_bits(&fit, &reference, "speculation-off");
    assert!(
        fit.speculation.is_none(),
        "disabled speculation must not report"
    );
}

/// The speculation report is a pure function of `(config, fault plan)`:
/// same-seed reruns render byte-identical JSON.
#[test]
fn speculation_report_json_is_byte_identical_across_reruns() {
    let ds = dataset();
    let cfg = lasso_cfg().build().unwrap();
    let a = UoiFitter::new(cfg.clone())
        .mode(ExecMode::Recovering(rcfg("double", 5, true)))
        .fit(&ds.x, &ds.y)
        .unwrap();
    let b = UoiFitter::new(cfg)
        .mode(ExecMode::Recovering(rcfg("double", 5, true)))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_eq!(
        a.speculation
            .as_ref()
            .unwrap()
            .to_json()
            .to_string_compact(),
        b.speculation
            .as_ref()
            .unwrap()
            .to_json()
            .to_string_compact(),
        "report must be byte-identical across reruns"
    );
    assert_lasso_bits(&a, &b, "rerun");
}

/// A traced speculating run must expose the `speculation` pipeline phase
/// and the cluster-wide hedge counters.
#[test]
fn traced_speculating_run_renders_speculation_phase() {
    let ds = dataset();
    let sink = Arc::new(MemorySink::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let cfg = lasso_cfg()
        .telemetry(Telemetry::new(sink.clone(), metrics.clone()))
        .build()
        .unwrap();
    let fit = UoiFitter::new(cfg)
        .mode(ExecMode::Recovering(rcfg("single", 5, true)))
        .fit(&ds.x, &ds.y)
        .unwrap();
    let report = fit.speculation.as_ref().unwrap();
    assert!(report.hedges_spawned() > 0);

    assert_eq!(
        metrics.counter("speculation.spawned"),
        report.hedges_spawned() as u64,
        "counter must match the report"
    );
    assert_eq!(
        metrics.counter("speculation.won"),
        report.hedges_won() as u64
    );
    assert_eq!(
        metrics.counter("speculation.cancelled"),
        report.hedges_cancelled() as u64
    );
    assert!(metrics.counter("speculation.heartbeats") > 0);

    let events = sink.snapshot();
    let breakdown = analyze(&build_timeline(&events));
    assert!(
        breakdown.phases.contains_key(&PipelinePhase::Speculation),
        "timeline must attribute work to the speculation phase"
    );
    let rendered = breakdown.render();
    assert!(
        rendered.contains("speculation"),
        "rendered report must show the speculation phase:\n{rendered}"
    );
}

/// CI entry point: one straggler-matrix cell driven by the environment.
/// `STRAGGLER_PLAN` ∈ {single, double} selects the plan,
/// `STRAGGLER_SEED` the injection seed, and `UOI_SPECULATE` gates the
/// hedging. Whatever the gate, the fit must equal the fault-free serial
/// fit bit for bit. Skips silently when the plan is unset so plain
/// `cargo test` runs are unaffected.
#[test]
fn straggler_matrix_cell() {
    let kind = match std::env::var("STRAGGLER_PLAN") {
        Ok(k) if !k.is_empty() => k,
        _ => return, // not a matrix run
    };
    let seed: u64 = std::env::var("STRAGGLER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let speculation = SpeculationConfig::from_env();
    let speculate = speculation.enabled;

    let ds = dataset();
    let cfg = lasso_cfg().build().unwrap();
    let reference = UoiFitter::new(cfg.clone()).fit(&ds.x, &ds.y).unwrap();

    let rcfg = RecoveryConfig {
        speculation,
        ..rcfg(&kind, seed, speculate)
    };
    let fit = UoiFitter::new(cfg)
        .mode(ExecMode::Recovering(rcfg))
        .fit(&ds.x, &ds.y)
        .unwrap();
    assert_lasso_bits(&fit, &reference, &format!("cell {kind}/{seed}/{speculate}"));
    if speculate {
        let report = fit.speculation.as_ref().expect("speculating run reports");
        assert!(report.hedges_spawned() > 0, "stragglers must get hedged");
        let recovered = report.recovered_fraction().unwrap();
        assert!(
            recovered >= 0.5,
            "cell {kind}/{seed}: recovered only {recovered}"
        );
    } else {
        assert!(fit.speculation.is_none());
    }
}

//! Pipeline-level numerical resilience: the configuration that arms the
//! guarded solver stack, and the per-fit ledger that folds solver- and
//! data-layer health signals into one deterministic
//! [`NumericalHealthReport`].
//!
//! The fallback ladder a task walks under [`NumericalConfig::enabled`]:
//!
//! 1. **Jitter retry** — singular factorisations escalate trace-scaled
//!    diagonal jitter (`uoi_linalg::JitterLadder`), recorded per task;
//! 2. **Rho restart** — diverged ADMM lambdas re-solve cold under a
//!    Boyd-balanced escalated/relaxed penalty
//!    ([`uoi_solvers::restart_tripped`]), bounded by
//!    [`ResilienceConfig::max_rho_restarts`];
//! 3. **Task drop** — a task that exhausts both rungs is dropped into
//!    the existing degraded-mode quorum accounting (serial pipeline) or
//!    degrades to the empty model (pipelines whose exchange protocol
//!    requires a payload per task), and is counted in
//!    `dropped_tasks`.
//!
//! Everything here is inert by default: with `enabled = false` and no
//! validation policy the fit takes the historical unguarded path and is
//! bit-identical to it.

use crate::error::UoiError;
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use uoi_data::{DataIssue, ValidationOutcome, ValidationPolicy};
use uoi_linalg::Matrix;
use uoi_solvers::{FactorHealth, PathHealth, ResilienceConfig};
use uoi_telemetry::{NumericalHealthReport, Telemetry, TraceEvent};

/// Numerical-resilience knobs for a UoI fit. `Default` is fully inert:
/// no guarded solves, no validation pass, no report.
#[derive(Clone)]
pub struct NumericalConfig {
    /// Route selection/estimation solves through the guarded resilient
    /// path (jitter ladder + divergence tripwire + rho restarts) and
    /// emit a [`NumericalHealthReport`] on the fit.
    pub enabled: bool,
    /// Solver-level policy: divergence cap and restart budget.
    pub resilience: ResilienceConfig,
    /// Input-validation pass over the raw `(x, y)` before fitting.
    /// `None` skips the pass (the historical behaviour: non-finite
    /// inputs are rejected without coordinates by the fit's own
    /// checks).
    pub validation: Option<ValidationPolicy>,
    /// The shared per-config event ledger. Fits drain it on completion,
    /// so reusing one config across sequential fits is fine; sharing it
    /// across *concurrent* fits interleaves their reports.
    ledger: Arc<NumericalLedger>,
}

impl Default for NumericalConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            resilience: ResilienceConfig::default(),
            validation: None,
            ledger: Arc::new(NumericalLedger::default()),
        }
    }
}

impl std::fmt::Debug for NumericalConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NumericalConfig")
            .field("enabled", &self.enabled)
            .field("resilience", &self.resilience)
            .field("validation", &self.validation)
            .finish()
    }
}

impl NumericalConfig {
    /// A fully armed configuration: guarded solves plus sanitizing
    /// validation — the "complete the fit no matter what" posture the
    /// adversarial acceptance matrix runs under.
    pub fn guarded() -> Self {
        Self {
            enabled: true,
            validation: Some(ValidationPolicy::Sanitize),
            ..Self::default()
        }
    }

    /// Arm or disarm the guarded solver path (chainable).
    pub fn enabled(mut self, on: bool) -> Self {
        self.enabled = on;
        self
    }

    /// Set the solver-level resilience policy (chainable).
    pub fn resilience(mut self, res: ResilienceConfig) -> Self {
        self.resilience = res;
        self
    }

    /// Set the input-validation policy (chainable).
    pub fn validation(mut self, policy: Option<ValidationPolicy>) -> Self {
        self.validation = policy;
        self
    }

    /// Whether this fit should carry a numerical-health report.
    pub fn active(&self) -> bool {
        self.enabled || self.validation.is_some()
    }

    /// The event ledger fits record into.
    pub(crate) fn ledger(&self) -> &NumericalLedger {
        &self.ledger
    }

    /// Run the configured validation pass over `(x, y)`. Returns the
    /// data to fit — the caller's when nothing changed (zero copies), the
    /// scrubbed copies when `Sanitize` zeroed cells — and the pass's
    /// findings (flag-only ones like constant columns included; `None`
    /// without a policy) for the caller to note on the ledger it reports
    /// from. `Err` when `Reject` found corrupt values; the error names the
    /// first offending coordinate.
    pub(crate) fn scrub<'x, 'y>(
        &self,
        x: &'x Matrix,
        y: &'y [f64],
    ) -> Result<Scrubbed<'x, 'y>, UoiError> {
        // Mismatched lengths skip the pass; the caller's checks report them.
        let Some(policy) = self.validation.filter(|_| y.len() == x.rows()) else {
            return Ok((Cow::Borrowed(x), Cow::Borrowed(y), None));
        };
        let (mut xs, mut ys) = (x.clone(), y.to_vec());
        let outcome = uoi_data::validate_xy(&mut xs, &mut ys, policy)?;
        if outcome.sanitized_cells == 0 {
            return Ok((Cow::Borrowed(x), Cow::Borrowed(y), Some(outcome)));
        }
        Ok((Cow::Owned(xs), Cow::Owned(ys), Some(outcome)))
    }
}

/// The data a fit reads after the validation pass, and the pass's
/// findings.
pub(crate) type Scrubbed<'x, 'y> = (Cow<'x, Matrix>, Cow<'y, [f64]>, Option<ValidationOutcome>);

/// Thread-safe accumulator of [`TraceEvent::Numerical`] records for one
/// fit. Events are pushed from rayon workers in nondeterministic order;
/// the report aggregation sorts, so the drained report is a pure
/// function of the event *set* and stays byte-identical across reruns.
#[derive(Default)]
pub struct NumericalLedger {
    events: Mutex<Vec<TraceEvent>>,
}

impl NumericalLedger {
    /// Record one numerical event: stored for the fit's report, forwarded
    /// to the trace sink, and counted under the `numerical.*` metrics.
    pub(crate) fn record(&self, tel: &Telemetry, ev: TraceEvent) {
        if let TraceEvent::Numerical {
            action,
            attempts,
            detail,
            ..
        } = &ev
        {
            match action.as_str() {
                "jitter" => {
                    tel.incr("numerical.jitter_events", 1);
                    tel.incr("numerical.jitter_attempts", *attempts as u64);
                }
                "rho_restart" => tel.incr("numerical.rho_restarts", *attempts as u64),
                "divergence" => {
                    tel.incr("numerical.divergences", 1);
                    if detail == "recovered" {
                        tel.incr("numerical.recovered", 1);
                    }
                }
                "task_dropped" => tel.incr("numerical.dropped_tasks", 1),
                "data_issue" => tel.incr("numerical.data_issues", *attempts as u64),
                "sanitize" => tel.incr("numerical.sanitized_cells", *attempts as u64),
                _ => {}
            }
        }
        tel.record_with(|| ev.clone());
        self.events.lock().expect("ledger poisoned").push(ev);
    }

    /// Record a constructor's factorisation health: a `jitter` event
    /// when the ladder had to escalate (exhaustion is marked by
    /// `attempts == u32::MAX` and recorded with `detail = "exhausted"`).
    pub(crate) fn note_factor(
        &self,
        tel: &Telemetry,
        stage: &'static str,
        bootstrap: usize,
        health: &FactorHealth,
    ) {
        self.note_candidate_factor(tel, stage, bootstrap, 0, health);
    }

    /// [`Self::note_factor`] with a candidate index (estimation scores
    /// one factorisation per candidate support; the index lands in the
    /// event's `lambda_idx` slot so per-candidate events stay distinct).
    pub(crate) fn note_candidate_factor(
        &self,
        tel: &Telemetry,
        stage: &'static str,
        bootstrap: usize,
        candidate: usize,
        health: &FactorHealth,
    ) {
        if health.attempts == u32::MAX {
            self.record(
                tel,
                numerical_event(
                    stage,
                    "jitter",
                    bootstrap,
                    candidate,
                    uoi_linalg::JITTER_MAX_ATTEMPTS as usize,
                    health.jitter,
                    "exhausted",
                ),
            );
        } else if health.attempts > 0 {
            self.record(
                tel,
                numerical_event(
                    stage,
                    "jitter",
                    bootstrap,
                    candidate,
                    health.attempts as usize,
                    health.jitter,
                    "",
                ),
            );
        }
    }

    /// Record a guarded path's full health ledger: factorisation, rho
    /// restarts, and per-lambda divergence outcomes.
    pub(crate) fn note_path(
        &self,
        tel: &Telemetry,
        stage: &'static str,
        bootstrap: usize,
        health: &PathHealth,
    ) {
        self.note_factor(
            tel,
            stage,
            bootstrap,
            &FactorHealth {
                attempts: health.factor_attempts,
                jitter: health.factor_jitter,
            },
        );
        if health.rho_restarts > 0 {
            self.record(
                tel,
                numerical_event(
                    stage,
                    "rho_restart",
                    bootstrap,
                    0,
                    health.rho_restarts as usize,
                    0.0,
                    "",
                ),
            );
        }
        for &idx in &health.recovered {
            self.record(
                tel,
                numerical_event(stage, "divergence", bootstrap, idx, 0, 0.0, "recovered"),
            );
        }
        for &idx in &health.diverged {
            self.record(
                tel,
                numerical_event(stage, "divergence", bootstrap, idx, 0, 0.0, "dropped"),
            );
        }
    }

    /// Record a task falling off the end of the fallback ladder.
    pub(crate) fn note_task_dropped(
        &self,
        tel: &Telemetry,
        stage: &'static str,
        bootstrap: usize,
        why: &str,
    ) {
        self.record(
            tel,
            numerical_event(stage, "task_dropped", bootstrap, 0, 0, 0.0, why),
        );
    }

    /// Record a validation pass: one `data_issue` event per issue kind
    /// (carrying the occurrence count) and a `sanitize` event when cells
    /// were scrubbed.
    pub(crate) fn note_validation(&self, tel: &Telemetry, outcome: &ValidationOutcome) {
        let mut by_kind: std::collections::BTreeMap<&'static str, usize> =
            std::collections::BTreeMap::new();
        for issue in &outcome.issues {
            *by_kind.entry(issue.kind()).or_insert(0) += 1;
        }
        for (kind, count) in by_kind {
            self.record(
                tel,
                numerical_event("validation", "data_issue", 0, 0, count, 0.0, kind),
            );
        }
        if outcome.sanitized_cells > 0 {
            self.record(
                tel,
                numerical_event(
                    "validation",
                    "sanitize",
                    0,
                    0,
                    outcome.sanitized_cells,
                    0.0,
                    "",
                ),
            );
        }
    }

    /// Record one degenerate-resample diagnostic.
    pub(crate) fn note_resample_issue(
        &self,
        tel: &Telemetry,
        stage: &'static str,
        bootstrap: usize,
        issue: &DataIssue,
    ) {
        self.record(
            tel,
            numerical_event(stage, "data_issue", bootstrap, 0, 1, 0.0, issue.kind()),
        );
    }

    /// Drain every accumulated event into a deterministic report.
    pub(crate) fn drain_report(&self) -> NumericalHealthReport {
        let events = std::mem::take(&mut *self.events.lock().expect("ledger poisoned"));
        NumericalHealthReport::from_events(&events)
    }
}

#[allow(clippy::too_many_arguments)]
fn numerical_event(
    stage: &'static str,
    action: &str,
    bootstrap: usize,
    lambda_idx: usize,
    attempts: usize,
    value: f64,
    detail: &str,
) -> TraceEvent {
    TraceEvent::Numerical {
        rank: 0,
        stage,
        action: action.to_string(),
        bootstrap,
        lambda_idx,
        attempts,
        value,
        detail: detail.to_string(),
        t: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let cfg = NumericalConfig::default();
        assert!(!cfg.enabled && cfg.validation.is_none() && !cfg.active());
    }

    #[test]
    fn guarded_arms_everything() {
        let cfg = NumericalConfig::guarded();
        assert!(cfg.enabled && cfg.active());
        assert_eq!(cfg.validation, Some(ValidationPolicy::Sanitize));
    }

    #[test]
    fn ledger_folds_path_health_into_report() {
        let cfg = NumericalConfig::guarded();
        let tel = Telemetry::disabled();
        cfg.ledger().note_path(
            &tel,
            "selection",
            3,
            &PathHealth {
                factor_attempts: 2,
                factor_jitter: 1e-11,
                rho_restarts: 1,
                recovered: vec![4],
                diverged: vec![],
            },
        );
        let report = cfg.ledger().drain_report();
        assert_eq!(report.jitter_events, 1);
        assert_eq!(report.jitter_attempts_total, 2);
        assert_eq!(report.rho_restarts, 1);
        assert_eq!(report.divergences, 1);
        assert_eq!(report.recovered, 1);
        assert!(!report.is_clean());
        // Drained: a second report is empty.
        assert_eq!(cfg.ledger().drain_report().events, 0);
    }

    #[test]
    fn exhausted_factor_marks_jitter_exhausted() {
        let cfg = NumericalConfig::guarded();
        let tel = Telemetry::disabled();
        cfg.ledger().note_factor(
            &tel,
            "estimation",
            1,
            &FactorHealth {
                attempts: u32::MAX,
                jitter: 1e-2,
            },
        );
        let report = cfg.ledger().drain_report();
        assert_eq!(report.jitter_events, 1);
        assert_eq!(
            report.jitter_attempts_total,
            uoi_linalg::JITTER_MAX_ATTEMPTS as usize
        );
    }

    #[test]
    fn validation_outcome_recorded_by_kind() {
        let cfg = NumericalConfig::guarded();
        let tel = Telemetry::disabled();
        let outcome = ValidationOutcome {
            issues: vec![
                DataIssue::ConstantColumn { col: 1, value: 0.0 },
                DataIssue::DuplicateColumns { a: 0, b: 2 },
                DataIssue::DuplicateColumns { a: 3, b: 4 },
            ],
            sanitized_cells: 5,
        };
        cfg.ledger().note_validation(&tel, &outcome);
        let report = cfg.ledger().drain_report();
        assert_eq!(report.data_issues.get("constant_column"), Some(&1));
        assert_eq!(report.data_issues.get("duplicate_columns"), Some(&2));
        assert_eq!(report.sanitized_cells, 5);
        // Data findings alone leave the run numerically clean.
        assert!(report.is_clean());
    }

    #[test]
    fn counters_reach_the_registry() {
        let metrics = std::sync::Arc::new(uoi_telemetry::MetricsRegistry::new());
        let tel = Telemetry::with_metrics(metrics.clone());
        let cfg = NumericalConfig::guarded();
        cfg.ledger().note_path(
            &tel,
            "selection",
            0,
            &PathHealth {
                factor_attempts: 1,
                factor_jitter: 1e-12,
                rho_restarts: 2,
                recovered: vec![0],
                diverged: vec![1],
            },
        );
        assert_eq!(metrics.counter("numerical.jitter_events"), 1);
        assert_eq!(metrics.counter("numerical.jitter_attempts"), 1);
        assert_eq!(metrics.counter("numerical.rho_restarts"), 2);
        assert_eq!(metrics.counter("numerical.divergences"), 2);
        assert_eq!(metrics.counter("numerical.recovered"), 1);
    }
}

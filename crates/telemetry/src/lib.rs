//! # uoi-telemetry
//!
//! Observability layer for the UoI workspace: tracing, metrics, and a
//! uniform bench run-report format. Sits below `uoi-mpisim` in the
//! dependency graph and deliberately depends on nothing but `std`
//! (JSON is hand-rolled in [`json`]) so telemetry can never be the
//! reason a build fails.
//!
//! * [`trace`] — [`TraceEvent`] stream + [`TraceSink`] implementations
//!   ([`MemorySink`], [`JsonlSink`]);
//! * [`metrics`] — [`MetricsRegistry`] counters/gauges/histograms
//!   (histograms preserve insertion order, doubling as residual
//!   curves);
//! * [`report`] — the `uoi.run_report/v1` JSON schema every bench
//!   binary writes under `results/`;
//! * [`timeline`] / [`analysis`] — the profiling layer: replay a
//!   trace into per-rank interval timelines tagged with the pipeline
//!   phase taxonomy (`read_t1`, `shuffle_t2`, `gram_build`,
//!   `admm_local`, `admm_consensus`, `ols_estimation`, `scoring`,
//!   `checkpoint`), then compute per-phase breakdowns, collective
//!   idle time, load-imbalance ratios, and a critical-path estimate;
//! * [`chrome`] — Chrome trace-format export (Perfetto-loadable),
//!   including counter tracks (active tasks, non-converged count,
//!   ETA) derived from convergence records;
//! * [`convergence`] — solver-quality layer: per-(bootstrap, λ)
//!   [`TraceEvent::Convergence`] records folded into a
//!   schema-versioned [`ConvergenceReport`] with per-λ iteration
//!   histograms, non-converged fraction and selection stability;
//! * [`numerical`] — numerical-resilience layer:
//!   [`TraceEvent::Numerical`] records (jitter escalations, rho
//!   restarts, divergence recoveries, data-validation findings)
//!   folded into a deterministic [`NumericalHealthReport`];
//! * [`live`] — bounded [`RingSink`] subscriber plus
//!   [`ProgressTracker`]/[`ProgressSnapshot`] with an α–β
//!   cost-model ETA, and [`replay_progress`] of a completed trace;
//! * [`openmetrics`] — OpenMetrics/Prometheus text exporter over
//!   [`MetricsSnapshot`] and progress gauges;
//! * [`Telemetry`] — the cheap, cloneable handle threaded through the
//!   simulator and fitters. A default handle is *disabled*: recording
//!   through it is a branch on a `None` and nothing more, so
//!   uninstrumented runs pay near-zero overhead.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod chrome;
pub mod convergence;
pub mod json;
pub mod live;
pub mod metrics;
pub mod numerical;
pub mod openmetrics;
pub mod report;
pub mod timeline;
pub mod trace;

pub use analysis::{analyze, Breakdown, PhaseAggregate, PhaseSlice, BREAKDOWN_SCHEMA};
pub use chrome::{to_chrome_trace, validate_chrome_trace};
pub use convergence::{
    ConvergenceReport, LambdaStats, StabilityStats, StageStats, CONVERGENCE_SCHEMA,
};
pub use json::{Json, JsonError};
pub use live::{replay_progress, ProgressPlan, ProgressSnapshot, ProgressTracker, RingSink};
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use numerical::{NumericalHealthReport, CONDEST_EDGES, NUMERICAL_SCHEMA};
pub use openmetrics::{
    parse_openmetrics, render_openmetrics, replay_openmetrics, write_openmetrics,
    OpenMetricsDigest, OpenMetricsExporter,
};
pub use report::{PhaseTotals, RunReport, RunSummary, RUN_REPORT_SCHEMA};
pub use timeline::{build_timeline, PipelinePhase, Timeline};
pub use trace::{JsonlSink, MemorySink, TeeSink, TraceEvent, TraceSink};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global span-id allocator: ids are unique across all handles in a
/// process, so traces from several clusters can be merged safely.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// The handle instrumented code holds. `Clone` is two `Arc` bumps;
/// the `Default` handle is disabled and records nothing.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("tracing", &self.sink.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl Telemetry {
    /// A disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A handle that traces into `sink`.
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Self {
        Telemetry {
            sink: Some(sink),
            metrics: None,
        }
    }

    /// A handle that only records metrics.
    pub fn with_metrics(metrics: Arc<MetricsRegistry>) -> Self {
        Telemetry {
            sink: None,
            metrics: Some(metrics),
        }
    }

    /// A handle that traces and records metrics.
    pub fn new(sink: Arc<dyn TraceSink>, metrics: Arc<MetricsRegistry>) -> Self {
        Telemetry {
            sink: Some(sink),
            metrics: Some(metrics),
        }
    }

    /// Whether any tracing sink is installed.
    pub fn tracing_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Whether a metrics registry is installed.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// The installed registry, if any (solvers grab an `Arc` clone).
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.clone()
    }

    /// Record a trace event (no-op when no sink is installed).
    #[inline]
    pub fn record(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
    }

    /// Record lazily: `make` runs only when a sink is installed, so
    /// hot paths don't build event payloads for disabled telemetry.
    #[inline]
    pub fn record_with(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&make());
        }
    }

    /// Increment a counter if a registry is installed.
    #[inline]
    pub fn incr(&self, name: &str, delta: u64) {
        if let Some(m) = &self.metrics {
            m.incr(name, delta);
        }
    }

    /// Set a gauge if a registry is installed.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(m) = &self.metrics {
            m.gauge(name, value);
        }
    }

    /// Observe a histogram sample if a registry is installed.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(m) = &self.metrics {
            m.observe(name, value);
        }
    }

    /// Allocate a process-unique span id. Returns 0 when tracing is
    /// disabled so callers can skip the matching `SpanEnd`.
    pub fn next_span_id(&self) -> u64 {
        if self.sink.is_some() {
            NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Flush the sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_allocates_no_ids() {
        let t = Telemetry::disabled();
        assert!(!t.tracing_enabled());
        assert!(!t.metrics_enabled());
        assert_eq!(t.next_span_id(), 0);
        // These must all be harmless no-ops.
        t.record(TraceEvent::Io {
            rank: 0,
            seconds: 1.0,
            t: 1.0,
        });
        t.incr("x", 1);
        t.gauge("g", 1.0);
        t.observe("h", 1.0);
        t.flush();
    }

    #[test]
    fn record_with_is_lazy() {
        let t = Telemetry::disabled();
        let mut called = false;
        t.record_with(|| {
            called = true;
            TraceEvent::Io {
                rank: 0,
                seconds: 0.0,
                t: 0.0,
            }
        });
        assert!(!called, "payload closure must not run when disabled");
    }

    #[test]
    fn enabled_handle_reaches_sink_and_registry() {
        let sink = Arc::new(MemorySink::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let t = Telemetry::new(sink.clone(), metrics.clone());
        assert!(t.tracing_enabled() && t.metrics_enabled());
        t.record(TraceEvent::Io {
            rank: 2,
            seconds: 0.5,
            t: 0.5,
        });
        t.incr("reads", 1);
        assert_eq!(sink.len(), 1);
        assert_eq!(metrics.counter("reads"), 1);
        let a = t.next_span_id();
        let b = t.next_span_id();
        assert!(b > a && a > 0);
    }
}

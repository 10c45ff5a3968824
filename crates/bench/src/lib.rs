//! # uoi-bench
//!
//! Shared infrastructure for the experiment harnesses: result tables
//! (printed and saved as CSV under `results/`), scale-factor handling,
//! and the standard machine/experiment configurations keyed to the
//! paper's Table I.
//!
//! Every table and figure of the paper has a binary in `src/bin/`
//! (`cargo run -p uoi-bench --release --bin fig4_lasso_weak`, ...). Paper
//! sizes are *modeled* through `uoi-mpisim`'s virtual clock at the
//! paper's core counts while the executed working sets are scaled by
//! `UOI_SCALE` (bytes divisor, default 1024: "GB" becomes "MB").

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use uoi_telemetry::{
    analyze, build_timeline, ConvergenceReport, JsonlSink, MemorySink, MetricsRegistry,
    OpenMetricsExporter, ProgressPlan, ProgressTracker, TeeSink, Telemetry, TraceEvent,
};
pub use uoi_telemetry::{RunReport, RunSummary, RUN_REPORT_SCHEMA};

pub mod setups;
pub mod straggler;
pub mod workload;

/// Executed rank count for the harnesses (`UOI_EXEC_RANKS`, default 8).
pub fn exec_ranks() -> usize {
    std::env::var("UOI_EXEC_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// The dataset scale divisor (`UOI_SCALE`, default 1024): executed
/// problems are `paper_bytes / scale`.
pub fn scale_divisor() -> u64 {
    std::env::var("UOI_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

/// Quick mode trims bootstrap counts for CI-speed runs
/// (`UOI_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::var("UOI_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Format a byte count the way the paper labels its x-axes.
pub fn fmt_bytes(bytes: f64) -> String {
    const KB: f64 = 1024.0;
    if bytes >= KB * KB * KB * KB {
        format!("{:.0}TB", bytes / (KB * KB * KB * KB))
    } else if bytes >= KB * KB * KB {
        format!("{:.0}GB", bytes / (KB * KB * KB))
    } else if bytes >= KB * KB {
        format!("{:.0}MB", bytes / (KB * KB))
    } else if bytes >= KB {
        format!("{:.0}KB", bytes / KB)
    } else {
        format!("{bytes:.0}B")
    }
}

/// A result table that prints aligned to stdout and saves as CSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut s = String::new();
        let _ = writeln!(s, "=== {} ===", self.title);
        let line: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        let _ = writeln!(s, "{}", line.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(s, "{}", line.join("  "));
        }
        s
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Stringified rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Start a `RunReport` carrying this table (schema
    /// `uoi.run_report/v1`) plus the standard harness knobs. Callers
    /// chain `.param(..)`, `.with_summary(..)`, `.with_metrics(..)`
    /// and hand the result to [`emit_run_report`].
    pub fn run_report(&self, bench: &str) -> RunReport {
        RunReport::new(bench, self.title.clone())
            .param("exec_ranks", exec_ranks())
            .param("scale_divisor", scale_divisor())
            .param("quick", quick_mode())
            .with_table(&self.headers, &self.rows)
    }

    /// Print to stdout and save `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = results_dir();
        std::fs::create_dir_all(&dir).ok();
        let mut csv = self.headers.join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let path = dir.join(format!("{name}.csv"));
        if std::fs::write(&path, csv).is_ok() {
            println!("[saved {}]", path.display());
        }
    }
}

/// `results/` at the workspace root (overridable via `UOI_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(d) = std::env::var("UOI_RESULTS_DIR") {
        return PathBuf::from(d);
    }
    // Walk up from the executable's cwd to find the workspace root.
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for _ in 0..4 {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from("results")
}

/// Write a `RunReport` as `results/<bench>.json` (schema
/// `uoi.run_report/v1`), announcing the path like `Table::emit`.
pub fn emit_run_report(report: &RunReport) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    match report.write_to_dir(&dir) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[run report not saved: {e}]"),
    }
}

/// Opt-in tracing for a harness run (`UOI_TRACE=1`).
///
/// When enabled, every rank's trace events are tee'd into two sinks: a
/// `results/<bench>.trace.jsonl` file (the `uoi-trace` CLI converts it
/// to a Perfetto-loadable Chrome trace) and an in-memory sink replayed
/// after the run into the per-phase/per-rank breakdown attached to the
/// `RunReport`. Disabled (the default) this is a no-op handle: spans
/// and trace events cost one branch.
pub struct BenchTrace {
    telemetry: Telemetry,
    metrics: Option<Arc<MetricsRegistry>>,
    memory: Option<Arc<MemorySink>>,
    jsonl: Option<Arc<JsonlSink>>,
    trace_path: Option<PathBuf>,
    prom_path: Option<PathBuf>,
    exporter: Option<OpenMetricsExporter>,
}

impl BenchTrace {
    /// Build from the environment: tracing on iff `UOI_TRACE=1`.
    pub fn from_env(bench: &str) -> Self {
        if std::env::var("UOI_TRACE")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Self::enabled(bench)
        } else {
            Self {
                telemetry: Telemetry::disabled(),
                metrics: None,
                memory: None,
                jsonl: None,
                trace_path: None,
                prom_path: None,
                exporter: None,
            }
        }
    }

    /// Build with tracing forced on (tests; `from_env` for harnesses).
    ///
    /// Alongside the JSONL trace, a shared [`MetricsRegistry`] collects
    /// the solver counters and a background [`OpenMetricsExporter`]
    /// rewrites `results/<bench>.metrics.prom` periodically (interval
    /// from `UOI_METRICS_INTERVAL_MS`, default 1000), with a final
    /// snapshot on shutdown — a Prometheus scrape target for the run.
    pub fn enabled(bench: &str) -> Self {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(format!("{bench}.trace.jsonl"));
        let prom_path = dir.join(format!("{bench}.metrics.prom"));
        let metrics = Arc::new(MetricsRegistry::new());
        let interval = std::env::var("UOI_METRICS_INTERVAL_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1000u64);
        let exporter = OpenMetricsExporter::spawn(
            prom_path.clone(),
            metrics.clone(),
            std::time::Duration::from_millis(interval.max(10)),
        );
        let memory = Arc::new(MemorySink::new());
        match JsonlSink::create(&path) {
            Ok(file) => {
                let file = Arc::new(file.with_metrics(metrics.clone()));
                let tee = Arc::new(TeeSink::new(vec![memory.clone() as _, file.clone() as _]));
                Self {
                    telemetry: Telemetry::new(tee, metrics.clone()),
                    metrics: Some(metrics),
                    memory: Some(memory),
                    jsonl: Some(file),
                    trace_path: Some(path),
                    prom_path: Some(prom_path),
                    exporter: Some(exporter),
                }
            }
            Err(e) => {
                eprintln!(
                    "[trace file {} not writable: {e}; tracing to memory only]",
                    path.display()
                );
                Self {
                    telemetry: Telemetry::new(memory.clone() as _, metrics.clone()),
                    metrics: Some(metrics),
                    memory: Some(memory),
                    jsonl: None,
                    trace_path: None,
                    prom_path: Some(prom_path),
                    exporter: Some(exporter),
                }
            }
        }
    }

    /// Whether tracing is live.
    pub fn enabled_now(&self) -> bool {
        self.memory.is_some()
    }

    /// The handle to pass to `Cluster::with_telemetry` (cheap clone).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// The shared metrics registry, when tracing is live.
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.clone()
    }

    /// Flush sinks and attach the per-phase breakdown, the convergence
    /// report, and the metrics snapshot (plus the dropped-record count,
    /// when a trace file is in play) to `report`. Stops the periodic
    /// exporter after a final snapshot, so the `.prom` file reflects the
    /// completed run. A no-op passthrough when tracing is off.
    pub fn annotate(&self, report: RunReport) -> RunReport {
        let Some(memory) = &self.memory else {
            return report;
        };
        self.telemetry.flush();
        let events = memory.snapshot();
        let breakdown = analyze(&build_timeline(&events));
        let mut report = report.with_breakdown(breakdown.to_json());
        let convergence = ConvergenceReport::from_events(&events);
        if convergence.tasks > 0 {
            report = report.with_convergence(convergence.to_json());
        }
        if let Some(m) = &self.metrics {
            report = report.with_metrics(m.snapshot());
        }
        if let Some(file) = &self.jsonl {
            report = report.with_dropped_records(file.dropped_records());
        }
        if let Some(exporter) = &self.exporter {
            exporter.stop();
            // One more write with the final progress gauges folded in —
            // the periodic exporter only sees the metrics registry.
            if let (Some(path), Some(m)) = (&self.prom_path, &self.metrics) {
                let progress = self.final_progress();
                let _ = uoi_telemetry::write_openmetrics(path, &m.snapshot(), progress.as_ref());
                println!("[saved {}]", path.display());
            }
        }
        if let Some(path) = &self.trace_path {
            println!("[saved {}]", path.display());
        }
        report
    }

    /// Replay the in-memory trace through a [`ProgressTracker`] and
    /// return the final snapshot (`None` when tracing is off or no
    /// convergence records were emitted). The plan is derived from the
    /// observed task census, so completion is exactly 1.0 at fit end.
    pub fn final_progress(&self) -> Option<uoi_telemetry::ProgressSnapshot> {
        let memory = self.memory.as_ref()?;
        let events = memory.snapshot();
        let (mut sel, mut est) = (0usize, 0usize);
        for e in &events {
            if let TraceEvent::Convergence { stage, .. } = e {
                if *stage == "selection" {
                    sel += 1;
                } else {
                    est += 1;
                }
            }
        }
        if sel + est == 0 {
            return None;
        }
        let mut tracker = ProgressTracker::new(ProgressPlan {
            selection_tasks: sel,
            estimation_tasks: est,
        });
        for e in &events {
            tracker.observe(e);
        }
        Some(tracker.snapshot())
    }
}

/// Write an arbitrary text artifact under `results/`.
pub fn save_artifact(name: &str, contents: &str) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(name);
    if std::fs::write(&path, contents).is_ok() {
        println!("[saved {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512.0), "512B");
        assert_eq!(fmt_bytes(16.0 * 1024.0 * 1024.0 * 1024.0), "16GB");
        assert_eq!(fmt_bytes(8.0 * 1024f64.powi(4)), "8TB");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(&["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("=== demo ==="));
        assert!(r.contains("bbbb"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}

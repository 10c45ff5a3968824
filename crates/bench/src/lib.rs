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
    OpenMetricsExporter, TeeSink, Telemetry, TraceSink,
};
pub use uoi_telemetry::{RunReport, RunSummary, RUN_REPORT_SCHEMA};

pub mod gates;
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
    /// The trace file's sink and path.
    jsonl: Option<(Arc<JsonlSink>, PathBuf)>,
    /// The periodic exporter and the `.metrics.prom` it rewrites.
    exporter: Option<(OpenMetricsExporter, PathBuf)>,
}

impl BenchTrace {
    /// Build from the environment: tracing on iff `UOI_TRACE=1`.
    pub fn from_env(bench: &str) -> Self {
        if std::env::var("UOI_TRACE").is_ok_and(|v| v == "1") {
            Self::enabled(bench)
        } else {
            Self {
                telemetry: Telemetry::disabled(),
                metrics: None,
                memory: None,
                jsonl: None,
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
        let jsonl = match JsonlSink::create(&path) {
            Ok(file) => Some((Arc::new(file.with_metrics(metrics.clone())), path)),
            Err(e) => {
                let shown = path.display();
                eprintln!("[trace file {shown} not writable: {e}; tracing to memory only]");
                None
            }
        };
        let sink: Arc<dyn TraceSink> = match &jsonl {
            Some((file, _)) => Arc::new(TeeSink::new(vec![memory.clone() as _, file.clone() as _])),
            None => memory.clone(),
        };
        Self {
            telemetry: Telemetry::new(sink, metrics.clone()),
            metrics: Some(metrics),
            memory: Some(memory),
            jsonl,
            exporter: Some((exporter, prom_path)),
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
        if let Some((file, _)) = &self.jsonl {
            report = report.with_dropped_records(file.dropped_records());
        }
        if let (Some((exporter, path)), Some(m)) = (&self.exporter, &self.metrics) {
            exporter.stop();
            // One more write with the final progress gauges folded in —
            // the periodic exporter only sees the metrics registry.
            let progress = uoi_telemetry::replay_progress(&events);
            let _ = uoi_telemetry::write_openmetrics(path, &m.snapshot(), progress.as_ref());
            println!("[saved {}]", path.display());
        }
        if let Some((_, path)) = &self.jsonl {
            println!("[saved {}]", path.display());
        }
        report
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

//! OpenMetrics/Prometheus text exposition of a [`MetricsSnapshot`]
//! plus optional progress gauges, written next to the JSONL trace so
//! a scraper (or a human with `cat`) can watch solver health without
//! parsing the trace.
//!
//! Counters are exported as `<name>_total`, gauges verbatim, and
//! histograms as Prometheus *summaries* (quantile-labeled samples plus
//! `_count`/`_sum`) — the registry keeps raw samples, so the type-7
//! quantiles are exact, not bucketed approximations. Metric names have
//! their dots flattened to underscores (`admm.solves` →
//! `admm_solves`). The rendering ends with the `# EOF` marker the
//! OpenMetrics spec requires, and [`parse_openmetrics`] is a minimal
//! lint of the same dialect used by tests and CI.

use crate::live::{replay_progress, ProgressSnapshot};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::TraceEvent;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Flatten a registry metric name to the OpenMetrics charset.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn fmt_num(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render `snapshot` (and, when given, progress gauges) as OpenMetrics
/// text ending in `# EOF`.
pub fn render_openmetrics(
    snapshot: &MetricsSnapshot,
    progress: Option<&ProgressSnapshot>,
) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} counter\n"));
        out.push_str(&format!("{name}_total {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} gauge\n"));
        out.push_str(&format!("{name} {}\n", fmt_num(*value)));
    }
    for (name, hist) in &snapshot.histograms {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, v) in [
            ("0.5", hist.p50),
            ("0.9", hist.p90),
            ("0.95", hist.p95),
            ("0.99", hist.p99),
        ] {
            out.push_str(&format!("{name}{{quantile=\"{q}\"}} {}\n", fmt_num(v)));
        }
        out.push_str(&format!(
            "{name}_sum {}\n",
            fmt_num(hist.mean * hist.count as f64)
        ));
        out.push_str(&format!("{name}_count {}\n", hist.count));
    }
    if let Some(p) = progress {
        let gauges: Vec<(&str, f64)> = vec![
            ("uoi_progress_completion", p.completion),
            ("uoi_progress_tasks_completed", p.completed as f64),
            ("uoi_progress_tasks_total", p.total as f64),
            ("uoi_progress_selection_done", p.selection_done as f64),
            ("uoi_progress_estimation_done", p.estimation_done as f64),
            ("uoi_progress_nonconverged", p.nonconverged as f64),
            ("uoi_progress_elapsed_seconds", p.elapsed),
        ];
        for (name, value) in gauges {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {}\n", fmt_num(value)));
        }
        if let Some(eta) = p.eta_seconds {
            out.push_str("# TYPE uoi_progress_eta_seconds gauge\n");
            out.push_str(&format!("uoi_progress_eta_seconds {}\n", fmt_num(eta)));
        }
    }
    out.push_str("# EOF\n");
    out
}

/// The exposition a completed trace implies: the solver-health metrics
/// a live run's registry would hold, rebuilt from the convergence
/// records alone, plus the replayed final progress.
pub fn replay_openmetrics(events: &[TraceEvent]) -> String {
    let registry = MetricsRegistry::new();
    for e in events {
        if let TraceEvent::Convergence {
            stage,
            iterations,
            converged,
            ..
        } = e
        {
            registry.observe("solver.iterations", *iterations as f64);
            registry.incr("solver.nonconverged", u64::from(!converged));
            registry.incr(&format!("uoi.tasks.{stage}"), 1);
        }
    }
    render_openmetrics(&registry.snapshot(), replay_progress(events).as_ref())
}

/// Atomically-ish write `contents` style exposition to `path` (write
/// to a sibling tmp file, then rename) so a scraper never reads a
/// half-written exposition.
pub fn write_openmetrics(
    path: &Path,
    snapshot: &MetricsSnapshot,
    progress: Option<&ProgressSnapshot>,
) -> std::io::Result<()> {
    let text = render_openmetrics(snapshot, progress);
    let tmp = path.with_extension("prom.tmp");
    {
        let mut fh = std::fs::File::create(&tmp)?;
        fh.write_all(text.as_bytes())?;
        fh.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// What [`parse_openmetrics`] found in a valid exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenMetricsDigest {
    pub families: usize,
    pub samples: usize,
}

/// What a sample name may append to its family's name.
const SUFFIXES: [&str; 7] = [
    "", "_total", "_count", "_sum", "_bucket", "_created", "_info",
];

/// Whether `name` is a metric name in the OpenMetrics charset
/// `[A-Za-z_:][A-Za-z0-9_:]*` (no leading digit).
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Minimal OpenMetrics lint: every line must be a `# TYPE`/`# HELP`/
/// `# UNIT` comment or a `name[{labels}] value` sample whose family
/// was declared first; names follow the OpenMetrics charset, a sampled
/// summary carries `_sum` and `_count`, and the exposition ends with
/// `# EOF`.
pub fn parse_openmetrics(text: &str) -> Result<OpenMetricsDigest, String> {
    let mut families: Vec<String> = Vec::new();
    // Per summary family: whether any sample, its `_sum` and its
    // `_count` were seen.
    let mut summaries: Vec<(String, [bool; 3])> = Vec::new();
    let mut samples = 0usize;
    let mut saw_eof = false;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if saw_eof {
            return Err(format!("line {n}: content after # EOF"));
        }
        if line.is_empty() {
            return Err(format!("line {n}: empty line in exposition"));
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            if matches!(keyword, "TYPE" | "HELP" | "UNIT") && !valid_name(name) {
                return Err(format!("line {n}: bad {keyword} line: {line}"));
            }
            match keyword {
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "summary" | "histogram" | "info" | "unknown"
                    ) {
                        return Err(format!("line {n}: bad TYPE line: {line}"));
                    }
                    if kind == "summary" {
                        summaries.push((name.to_string(), [false; 3]));
                    }
                    families.push(name.to_string());
                }
                "HELP" | "UNIT" => {}
                _ => return Err(format!("line {n}: unknown comment keyword: {line}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, value_part) = match line.find([' ', '{']) {
            Some(i) if line.as_bytes()[i] == b'{' => {
                let close = line[i..]
                    .find('}')
                    .map(|j| i + j)
                    .ok_or_else(|| format!("line {n}: unbalanced labels: {line}"))?;
                (&line[..i], line[close + 1..].trim_start())
            }
            Some(i) => (&line[..i], line[i + 1..].trim_start()),
            None => return Err(format!("line {n}: sample without value: {line}")),
        };
        if !valid_name(name_part) {
            return Err(format!("line {n}: bad metric name: {name_part}"));
        }
        let value = value_part.split(' ').next().unwrap_or("");
        if value != "+Inf" && value != "-Inf" && value != "NaN" && value.parse::<f64>().is_err() {
            return Err(format!("line {n}: bad sample value: {value}"));
        }
        let suffix_of = |f: &str| name_part.strip_prefix(f).filter(|s| SUFFIXES.contains(s));
        if !families.iter().any(|f| suffix_of(f).is_some()) {
            return Err(format!(
                "line {n}: sample {name_part} has no preceding TYPE declaration"
            ));
        }
        for (fam, seen) in &mut summaries {
            if let Some(suf) = suffix_of(fam) {
                seen[0] = true;
                seen[1] |= suf == "_sum";
                seen[2] |= suf == "_count";
            }
        }
        samples += 1;
    }
    if !saw_eof {
        return Err("exposition does not end with # EOF".to_string());
    }
    if let Some((fam, _)) = summaries.iter().find(|(_, s)| s[0] && !(s[1] && s[2])) {
        return Err(format!("summary {fam} lacks its _sum or _count sample"));
    }
    Ok(OpenMetricsDigest {
        families: families.len(),
        samples,
    })
}

/// Background exporter: snapshots `registry` every `interval` and
/// rewrites `path`. Stops (after a final write) when dropped or when
/// [`OpenMetricsExporter::stop`] is called.
#[derive(Debug)]
pub struct OpenMetricsExporter {
    stop: Arc<AtomicBool>,
    handle: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
    path: PathBuf,
}

impl OpenMetricsExporter {
    pub fn spawn(path: PathBuf, registry: Arc<MetricsRegistry>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let path2 = path.clone();
        let handle = std::thread::spawn(move || {
            loop {
                let _ = write_openmetrics(&path2, &registry.snapshot(), None);
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                // Sleep in small slices so stop() is prompt.
                let mut slept = Duration::ZERO;
                while slept < interval && !stop2.load(Ordering::Relaxed) {
                    let slice = Duration::from_millis(25).min(interval - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        });
        OpenMetricsExporter {
            stop,
            handle: std::sync::Mutex::new(Some(handle)),
            path,
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Signal the exporter thread and wait for its final write.
    /// Idempotent; takes `&self` so a shared handle can stop it.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let taken = self.handle.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = taken {
            let _ = h.join();
        }
    }
}

impl Drop for OpenMetricsExporter {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{ProgressPlan, ProgressTracker};

    fn sample_registry() -> MetricsRegistry {
        let m = MetricsRegistry::new();
        m.incr("admm.solves", 12);
        m.incr("solver.nonconverged", 0);
        m.gauge("exec.ranks", 4.0);
        for i in 0..10 {
            m.observe("solver.iterations", 10.0 + i as f64);
        }
        m
    }

    #[test]
    fn rendering_parses_and_has_expected_families() {
        let text = render_openmetrics(&sample_registry().snapshot(), None);
        let digest = parse_openmetrics(&text).expect("lint failed");
        assert_eq!(digest.families, 4);
        assert!(text.contains("admm_solves_total 12\n"));
        assert!(text.contains("solver_nonconverged_total 0\n"));
        assert!(text.contains("exec_ranks 4\n"));
        assert!(text.contains("solver_iterations{quantile=\"0.5\"}"));
        assert!(text.contains("solver_iterations_count 10\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    fn conv(stage: &'static str, converged: bool) -> TraceEvent {
        TraceEvent::Convergence {
            rank: 0,
            stage,
            bootstrap: 0,
            lambda_idx: 0,
            lambda: 1.0,
            iterations: 5,
            max_iter: 100,
            converged,
            primal_residual: 0.0,
            dual_residual: 0.0,
            support: Vec::new(),
            curve: Vec::new(),
            t: 1.0,
        }
    }

    #[test]
    fn progress_gauges_included() {
        let mut tr = ProgressTracker::new(ProgressPlan::for_fit(1, 0, 2));
        tr.observe(&conv("selection", true));
        let snap = tr.snapshot();
        let text = render_openmetrics(&sample_registry().snapshot(), Some(&snap));
        parse_openmetrics(&text).expect("lint failed");
        assert!(text.contains("uoi_progress_completion 0.5\n"));
        assert!(text.contains("uoi_progress_tasks_total 2\n"));
        assert!(text.contains("uoi_progress_eta_seconds"));
    }

    #[test]
    fn replayed_exposition_lints_and_counts_tasks() {
        let text = replay_openmetrics(&[conv("selection", false), conv("estimation", true)]);
        parse_openmetrics(&text).expect("lint failed");
        assert!(text.contains("solver_nonconverged_total 1\n"));
        assert!(text.contains("uoi_tasks_selection_total 1\n"));
        assert!(text.contains("uoi_progress_completion 1\n"));
    }

    #[test]
    fn lint_rejects_missing_eof_and_undeclared_samples() {
        assert!(parse_openmetrics("# TYPE x counter\nx_total 1\n").is_err());
        assert!(parse_openmetrics("y 1\n# EOF\n").is_err());
        assert!(parse_openmetrics("# TYPE x counter\nx_total nope\n# EOF\n").is_err());
        assert!(parse_openmetrics("# TYPE x counter\nx_total 1\n# EOF\nmore\n").is_err());
    }

    /// One failing input per rule, next to the passing one.
    #[test]
    fn lint_holds_summaries_types_and_names() {
        let lint = |text: &str| parse_openmetrics(&format!("{text}\n# EOF\n")).is_ok();
        let summary = "# TYPE s summary\ns{quantile=\"0.5\"} 1";
        assert!(lint(&format!("{summary}\ns_sum 0\ns_count 0")));
        assert!(!lint(&format!("{summary}\ns_sum 0")) && !lint(&format!("{summary}\ns_count 0")));
        // A declared summary with no samples has nothing to lack.
        assert!(lint("# TYPE s summary"));
        assert!(lint("# TYPE build info\nbuild_info 1") && !lint("# TYPE build table\nbuild 1"));
        for keyword in ["TYPE", "HELP", "UNIT"] {
            let tail = if keyword == "TYPE" { "gauge" } else { "text" };
            assert!(lint(&format!("# TYPE x gauge\n# {keyword} x {tail}\nx 1")));
            for bad in ["9x", "x.y", "x-y"] {
                let text = format!("# TYPE x gauge\n# {keyword} {bad} {tail}\nx 1");
                assert!(!lint(&text), "{keyword} {bad}");
            }
        }
        assert!(!lint("# TYPE x gauge\n9x 1"));
    }

    #[test]
    fn lint_accepts_inf_and_labels() {
        let text = "# TYPE s summary\ns{quantile=\"0.5\"} +Inf\ns_count 0\ns_sum 0\n# EOF\n";
        let digest = parse_openmetrics(text).unwrap();
        assert_eq!(digest.samples, 3);
    }

    #[test]
    fn sanitize_flattens_dots_and_leading_digits() {
        assert_eq!(sanitize("admm.path.solves"), "admm_path_solves");
        assert_eq!(sanitize("9lives"), "_9lives");
    }

    #[test]
    fn file_writer_round_trips() {
        let dir = std::env::temp_dir().join(format!("uoi_om_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        write_openmetrics(&path, &sample_registry().snapshot(), None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        parse_openmetrics(&text).expect("lint failed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_exporter_writes_and_stops() {
        let dir = std::env::temp_dir().join(format!("uoi_om_bg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.prom");
        let registry = Arc::new(sample_registry());
        let exporter =
            OpenMetricsExporter::spawn(path.clone(), registry.clone(), Duration::from_millis(10));
        registry.incr("admm.solves", 1);
        exporter.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        parse_openmetrics(&text).expect("lint failed");
        assert!(text.contains("admm_solves_total 13\n"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

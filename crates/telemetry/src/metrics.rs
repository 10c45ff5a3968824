//! A process-wide metrics registry: counters, gauges, and histograms.
//!
//! Solvers and fitters record into a shared [`MetricsRegistry`]
//! (`Arc`-cloned into worker threads). Histogram samples keep
//! insertion order, so a histogram doubles as a *series*: the ADMM
//! residual curves (`admm.primal_residual`, `admm.dual_residual`) are
//! plottable directly from the sample vector, while the summary
//! statistics ([`MetricsRegistry::snapshot`]) feed the `RunReport`.
//!
//! Names are dotted paths by convention (`admm.iterations`,
//! `uoi.selection.support_size`). All methods take `&self`; internal
//! locking keeps recording cheap and callers free of guard types.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Vec<f64>>,
}

/// Thread-safe counters/gauges/histograms, keyed by dotted names.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter (creating it at zero).
    pub fn incr(&self, name: &str, delta: u64) {
        update(&mut self.lock().counters, name, |c| *c += delta);
    }

    /// Set a gauge to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        update(&mut self.lock().gauges, name, |g| *g = value);
    }

    /// Append one observation to a histogram/series.
    pub fn observe(&self, name: &str, value: f64) {
        update(&mut self.lock().histograms, name, |h| h.push(value));
    }

    /// Append many observations at once (single lock acquisition).
    pub fn observe_all(&self, name: &str, values: &[f64]) {
        update(&mut self.lock().histograms, name, |h| {
            h.extend_from_slice(values)
        });
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current gauge value.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// The raw samples of a histogram, in insertion order.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.lock()
            .histograms
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Summarise everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.lock();
        MetricsSnapshot {
            counters: g.counters.clone(),
            gauges: g.gauges.clone(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), HistogramSummary::from_samples(v)))
                .collect(),
        }
    }

    /// Forget everything (tests, or reuse across bench repetitions).
    pub fn reset(&self) {
        *self.lock() = Inner::default();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Apply `f` to the value under `name`, inserting the default first if
/// the name is new. Only that first insertion allocates the key, so a
/// repeat recording on a hot path allocates nothing.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_owned()).or_default()),
    }
}

/// Point-in-time summary of a registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Encode as a JSON object with `counters`/`gauges`/`histograms`
    /// sections (the `metrics` block of a `RunReport`).
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Json::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

/// Order statistics of one histogram.
///
/// Percentiles use linear interpolation between closest ranks
/// (Hyndman–Fan type 7, the R/NumPy default): for quantile `q` over
/// `n` sorted samples, `h = (n - 1) q` and the result interpolates
/// between `sorted[floor(h)]` and `sorted[ceil(h)]`. The previous
/// nearest-rank rounding biased small-sample percentiles by up to half
/// a sample spacing (e.g. p50 of `[1, 2, 3, 4]` reported 3.0, not 2.5).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSummary {
    pub count: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
}

/// Type-7 interpolated quantile of an already-sorted, non-empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let n = sorted.len();
    let h = (n as f64 - 1.0) * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    sorted[lo] + (sorted[hi.min(n - 1)] - sorted[lo]) * frac
}

impl HistogramSummary {
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return HistogramSummary {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                p50: 0.0,
                p90: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        HistogramSummary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            p50: quantile_sorted(&sorted, 0.50),
            p90: quantile_sorted(&sorted, 0.90),
            p95: quantile_sorted(&sorted, 0.95),
            p99: quantile_sorted(&sorted, 0.99),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::num(self.count as f64)),
            ("min", Json::num(self.min)),
            ("max", Json::num(self.max)),
            ("mean", Json::num(self.mean)),
            ("p50", Json::num(self.p50)),
            ("p90", Json::num(self.p90)),
            ("p95", Json::num(self.p95)),
            ("p99", Json::num(self.p99)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_and_gauges() {
        let m = MetricsRegistry::new();
        m.incr("admm.solves", 1);
        m.incr("admm.solves", 2);
        m.gauge("uoi.lambda_min", 0.01);
        m.gauge("uoi.lambda_min", 0.02);
        assert_eq!(m.counter("admm.solves"), 3);
        assert_eq!(m.counter("never.touched"), 0);
        assert_eq!(m.gauge_value("uoi.lambda_min"), Some(0.02));
    }

    #[test]
    fn histogram_preserves_order_and_summarises() {
        let m = MetricsRegistry::new();
        // A decreasing residual curve must come back in order.
        for v in [1.0, 0.5, 0.25, 0.125] {
            m.observe("admm.primal_residual", v);
        }
        assert_eq!(
            m.samples("admm.primal_residual"),
            vec![1.0, 0.5, 0.25, 0.125]
        );
        let snap = m.snapshot();
        let h = &snap.histograms["admm.primal_residual"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.125);
        assert_eq!(h.max, 1.0);
        assert!((h.mean - 0.46875).abs() < 1e-12);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let m = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.incr("hits", 1);
                        m.observe("vals", 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter("hits"), 8000);
        assert_eq!(m.samples("vals").len(), 8000);
    }

    #[test]
    fn snapshot_serialises() {
        let m = MetricsRegistry::new();
        m.incr("c", 2);
        m.gauge("g", 1.5);
        m.observe("h", 3.0);
        let j = m.snapshot().to_json();
        assert_eq!(
            j.get("counters").unwrap().get("c").unwrap().as_num(),
            Some(2.0)
        );
        assert_eq!(
            j.get("gauges").unwrap().get("g").unwrap().as_num(),
            Some(1.5)
        );
        assert_eq!(
            j.get("histograms")
                .unwrap()
                .get("h")
                .unwrap()
                .get("count")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = HistogramSummary::from_samples(&[]);
        assert_eq!(h.count, 0);
        assert_eq!(h.max, 0.0);
    }

    /// Exact type-7 values for 1..=100: h = 99 q lands at 49.5, 94.05,
    /// and 98.01, so p50 = 50.5, p95 = 95.05, p99 = 99.01.
    #[test]
    fn percentiles_interpolate_exactly_on_1_to_100() {
        let samples: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let h = HistogramSummary::from_samples(&samples);
        assert!((h.p50 - 50.5).abs() < 1e-12, "p50 = {}", h.p50);
        assert!((h.p90 - 90.1).abs() < 1e-12, "p90 = {}", h.p90);
        assert!((h.p95 - 95.05).abs() < 1e-12, "p95 = {}", h.p95);
        assert!((h.p99 - 99.01).abs() < 1e-12, "p99 = {}", h.p99);
    }

    /// The regression the fix targets: nearest-rank rounding reported
    /// p50 of [1, 2, 3, 4] as 3.0; the median must be 2.5.
    #[test]
    fn median_of_four_is_interpolated() {
        let h = HistogramSummary::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert!((h.p50 - 2.5).abs() < 1e-12, "p50 = {}", h.p50);
    }

    #[test]
    fn percentiles_degenerate_cases() {
        // Single sample: every percentile is that sample.
        let h = HistogramSummary::from_samples(&[7.0]);
        assert_eq!((h.p50, h.p95, h.p99), (7.0, 7.0, 7.0));
        // Two samples: p50 is the midpoint, p99 nearly the max.
        let h = HistogramSummary::from_samples(&[0.0, 10.0]);
        assert!((h.p50 - 5.0).abs() < 1e-12);
        assert!((h.p99 - 9.9).abs() < 1e-12);
        // Percentiles never exceed the observed range.
        assert!(h.p99 <= h.max && h.p50 >= h.min);
    }
}

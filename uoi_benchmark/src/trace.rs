//! In-memory spans recorded by the benchmark around its calls into each
//! crate, and the fold that turns them into per-layer self times.
//!
//! A span carries a name, start and end (seconds since the tracer was
//! created), its parent, and the id of the fit it belongs to. A span's
//! self time is its duration minus the part of that interval its
//! children cover; children may overlap (concurrent rank closures), so
//! the covered part is the union of their intervals.

use std::collections::BTreeMap;
use std::time::Instant;
use uoi_telemetry::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub fit: u32,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    fit: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            fit: 0,
        }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Spans recorded from now on belong to fit `id`.
    pub fn set_fit(&mut self, id: u32) {
        self.fit = id;
    }

    /// Run `body` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            fit: self.fit,
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Record a span measured elsewhere (a rank thread) under the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            fit: self.fit,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("start", Json::num(s.start)),
                        ("end", Json::num(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        ),
                        ("fit", Json::num(s.fit as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
        .collect()
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            fit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("fit", 0.0, 4.0, None),
            span("gram", 0.5, 1.5, Some(0)),
            span("admm", 2.0, 3.5, Some(0)),
            span("factor", 2.0, 2.25, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![1.5, 1.0, 1.25, 0.25]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two rank closures overlap inside one cluster run.
        let spans = vec![
            span("run", 0.0, 2.0, None),
            span("rank", 0.25, 1.5, Some(0)),
            span("rank", 0.5, 1.75, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0.5);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["rank"], 2.5);
        assert_eq!(by_name["run"], 0.5);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("a", 1.0, 2.0, None), span("b", 0.5, 1.5, Some(0))];
        assert_eq!(self_times(&spans)[0], 0.5);
    }

    #[test]
    fn tracer_nests_and_tags_fits() {
        let mut t = Tracer::new();
        t.set_fit(3);
        t.span("outer", |t| t.span("inner", |_| ()));
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|s| s.fit == 3 && s.end >= s.start));
    }
}

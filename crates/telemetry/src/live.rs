//! Live progress layer: a bounded ring-buffer [`TraceSink`] a monitor
//! can subscribe with, plus a [`ProgressTracker`] that replays the
//! event stream against a [`ProgressPlan`] (task totals derived from
//! the fit configuration) and produces [`ProgressSnapshot`]s with an
//! α–β cost-model ETA.
//!
//! ETA model: cumulative elapsed time is modeled as `α + β·n` after
//! `n` completed tasks — `α` (fixed startup cost: data generation,
//! Gram batching) is estimated from the time of the first completed
//! task, `β` (marginal per-task cost) from the spread between the
//! first and the latest completion. The remaining-time estimate
//! `β · remaining` is clamped monotone non-increasing across
//! snapshots so a late straggler never makes the ETA jump upward,
//! and is pinned to exactly 0 once completion reaches 1.0.

use crate::json::Json;
use crate::trace::{TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bounded in-memory subscriber: keeps the most recent `capacity`
/// events, dropping the oldest (and counting the drops) when full.
/// Cheap enough to tee alongside a [`crate::JsonlSink`] — a live
/// monitor drains it periodically without unbounded memory.
#[derive(Debug)]
pub struct RingSink {
    buf: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl RingSink {
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Take every buffered event, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.buf.lock().unwrap().drain(..).collect()
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &TraceEvent) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event.clone());
    }
}

/// Task totals derived from the fit configuration: the denominator a
/// progress stream needs before the first event arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressPlan {
    /// Selection solves: one per (bootstrap, λ) pair — B1·q.
    pub selection_tasks: usize,
    /// Estimation tasks: one per estimation bootstrap — B2.
    pub estimation_tasks: usize,
}

impl ProgressPlan {
    /// Plan for a UoI fit with `b1` selection bootstraps over a
    /// `q`-point λ path and `b2` estimation bootstraps. Holds for the
    /// lasso and VAR pipelines alike (VAR tasks aggregate the
    /// per-column solves into one record per (bootstrap, λ)).
    pub fn for_fit(b1: usize, b2: usize, q: usize) -> Self {
        ProgressPlan {
            selection_tasks: b1 * q,
            estimation_tasks: b2,
        }
    }

    pub fn total(&self) -> usize {
        self.selection_tasks + self.estimation_tasks
    }
}

/// One point-in-time view of fit progress.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    pub selection_done: usize,
    pub selection_total: usize,
    pub estimation_done: usize,
    pub estimation_total: usize,
    pub completed: usize,
    pub total: usize,
    /// completed / total in [0, 1]; exactly 1.0 at fit end.
    pub completion: f64,
    /// Non-converged solves seen so far.
    pub nonconverged: usize,
    /// Latest event timestamp observed (virtual or wall seconds).
    pub elapsed: f64,
    /// Estimated remaining seconds; `None` before the model has data.
    /// Monotone non-increasing across snapshots of one tracker.
    pub eta_seconds: Option<f64>,
}

impl ProgressSnapshot {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("selection_done", Json::num(self.selection_done as f64)),
            ("selection_total", Json::num(self.selection_total as f64)),
            ("estimation_done", Json::num(self.estimation_done as f64)),
            ("estimation_total", Json::num(self.estimation_total as f64)),
            ("completed", Json::num(self.completed as f64)),
            ("total", Json::num(self.total as f64)),
            ("completion", Json::num(self.completion)),
            ("nonconverged", Json::num(self.nonconverged as f64)),
            ("elapsed", Json::num(self.elapsed)),
            (
                "eta_seconds",
                match self.eta_seconds {
                    Some(eta) => Json::num(eta),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// One-line rendering for `uoi_trace progress`.
    pub fn render(&self) -> String {
        let eta = match self.eta_seconds {
            Some(eta) => format!("{eta:.3}s"),
            None => "-".to_string(),
        };
        format!(
            "{:6.1}% ({:3}/{:3})  selection {:3}/{:3}  estimation {:3}/{:3}  nonconv {}  t={:.3}s  eta={}",
            100.0 * self.completion,
            self.completed,
            self.total,
            self.selection_done,
            self.selection_total,
            self.estimation_done,
            self.estimation_total,
            self.nonconverged,
            self.elapsed,
            eta
        )
    }
}

/// Folds [`TraceEvent::Convergence`] records into progress state.
/// Feed it events (live from a [`RingSink::drain`] or replayed from a
/// JSONL trace) and take [`ProgressTracker::snapshot`]s between
/// batches.
#[derive(Debug)]
pub struct ProgressTracker {
    plan: ProgressPlan,
    selection_done: usize,
    estimation_done: usize,
    nonconverged: usize,
    /// Monotonized latest event time.
    elapsed: f64,
    /// (tasks completed, elapsed) at the first completion — the α
    /// anchor of the cost model.
    first: Option<(usize, f64)>,
    /// Monotone clamp state for the ETA.
    prev_eta: Option<f64>,
}

impl ProgressTracker {
    pub fn new(plan: ProgressPlan) -> Self {
        ProgressTracker {
            plan,
            selection_done: 0,
            estimation_done: 0,
            nonconverged: 0,
            elapsed: 0.0,
            first: None,
            prev_eta: None,
        }
    }

    pub fn plan(&self) -> ProgressPlan {
        self.plan
    }

    /// Consume one event. Non-convergence events only advance the
    /// clock; convergence records advance the task counters too.
    pub fn observe(&mut self, ev: &TraceEvent) {
        if let Some(t) = event_time(ev) {
            if t > self.elapsed {
                self.elapsed = t;
            }
        }
        if let TraceEvent::Convergence {
            stage, converged, ..
        } = ev
        {
            if *stage == "selection" {
                self.selection_done += 1;
            } else {
                self.estimation_done += 1;
            }
            if !*converged {
                self.nonconverged += 1;
            }
            if self.first.is_none() {
                self.first = Some((self.completed(), self.elapsed));
            }
        }
    }

    fn completed(&self) -> usize {
        self.selection_done + self.estimation_done
    }

    /// Current snapshot. `&mut` because the monotone-ETA clamp carries
    /// state from one snapshot to the next.
    pub fn snapshot(&mut self) -> ProgressSnapshot {
        let total = self.plan.total();
        let completed = self.completed();
        let completion = if total == 0 {
            1.0
        } else {
            (completed as f64 / total as f64).min(1.0)
        };
        let remaining = total.saturating_sub(completed);

        let mut eta = if remaining == 0 {
            Some(0.0)
        } else {
            // α–β model: β from the spread between first and latest
            // completion; before a second data point, fall back to the
            // crude mean rate (α folded into β).
            self.first.and_then(|(n0, t0)| {
                if completed > n0 && self.elapsed > t0 {
                    let beta = (self.elapsed - t0) / (completed - n0) as f64;
                    Some(beta * remaining as f64)
                } else if completed > 0 && self.elapsed > 0.0 {
                    Some(self.elapsed / completed as f64 * remaining as f64)
                } else {
                    None
                }
            })
        };
        // Monotone non-increasing clamp.
        if let (Some(e), Some(prev)) = (eta, self.prev_eta) {
            eta = Some(e.min(prev));
        }
        if let Some(e) = eta {
            self.prev_eta = Some(e);
        }

        ProgressSnapshot {
            selection_done: self.selection_done,
            selection_total: self.plan.selection_tasks,
            estimation_done: self.estimation_done,
            estimation_total: self.plan.estimation_tasks,
            completed,
            total,
            completion,
            nonconverged: self.nonconverged,
            elapsed: self.elapsed,
            eta_seconds: eta,
        }
    }
}

/// The timestamp carried by an event, if it has one.
fn event_time(ev: &TraceEvent) -> Option<f64> {
    match ev {
        TraceEvent::Convergence { t, .. } => Some(*t),
        TraceEvent::SpanStart { t, .. } | TraceEvent::SpanEnd { t, .. } => Some(*t),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn conv(stage: &'static str, bootstrap: usize, lambda_idx: usize, t: f64) -> TraceEvent {
        TraceEvent::Convergence {
            rank: 0,
            stage,
            bootstrap,
            lambda_idx,
            lambda: 0.5,
            iterations: 10,
            max_iter: 100,
            converged: true,
            primal_residual: 0.0,
            dual_residual: 0.0,
            support: Vec::new(),
            curve: Vec::new(),
            t,
        }
    }

    #[test]
    fn ring_sink_keeps_newest_and_counts_drops() {
        let ring = RingSink::new(3);
        for i in 0..5 {
            ring.record(&conv("selection", i, 0, i as f64));
        }
        assert_eq!(ring.dropped(), 2);
        let evs = ring.drain();
        assert_eq!(evs.len(), 3);
        match &evs[0] {
            TraceEvent::Convergence { bootstrap, .. } => assert_eq!(*bootstrap, 2),
            other => panic!("unexpected event {other:?}"),
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_sink_works_as_a_trace_sink_object() {
        let ring: Arc<RingSink> = Arc::new(RingSink::new(8));
        let sink: Arc<dyn TraceSink> = ring.clone();
        sink.record(&conv("selection", 0, 0, 0.0));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn plan_totals() {
        let plan = ProgressPlan::for_fit(5, 4, 8);
        assert_eq!(plan.selection_tasks, 40);
        assert_eq!(plan.estimation_tasks, 4);
        assert_eq!(plan.total(), 44);
    }

    #[test]
    fn completion_reaches_exactly_one_and_eta_zero() {
        let plan = ProgressPlan::for_fit(2, 2, 2);
        let mut tr = ProgressTracker::new(plan);
        for k in 0..2 {
            for j in 0..2 {
                tr.observe(&conv("selection", k, j, (k * 2 + j + 1) as f64));
            }
        }
        for k in 0..2 {
            tr.observe(&conv("estimation", k, 0, (5 + k) as f64));
        }
        let snap = tr.snapshot();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.completion, 1.0);
        assert_eq!(snap.eta_seconds, Some(0.0));
    }

    #[test]
    fn eta_is_monotone_non_increasing() {
        let plan = ProgressPlan::for_fit(3, 0, 2);
        let mut tr = ProgressTracker::new(plan);
        // Uneven arrival times, including a straggler gap that would
        // push a naive rate-based ETA back up.
        let times = [1.0, 1.5, 2.0, 9.0, 9.1, 9.2];
        let mut last_eta = f64::INFINITY;
        for (i, &t) in times.iter().enumerate() {
            tr.observe(&conv("selection", i / 2, i % 2, t));
            let snap = tr.snapshot();
            if let Some(eta) = snap.eta_seconds {
                assert!(
                    eta <= last_eta + 1e-12,
                    "eta went up: {eta} after {last_eta}"
                );
                last_eta = eta;
            }
        }
        assert_eq!(tr.snapshot().eta_seconds, Some(0.0));
    }

    #[test]
    fn no_eta_before_any_completion() {
        let mut tr = ProgressTracker::new(ProgressPlan::for_fit(1, 1, 1));
        let snap = tr.snapshot();
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.eta_seconds, None);
        assert_eq!(snap.completion, 0.0);
    }

    #[test]
    fn nonconverged_counted() {
        let mut tr = ProgressTracker::new(ProgressPlan::for_fit(1, 0, 1));
        let mut ev = conv("selection", 0, 0, 1.0);
        if let TraceEvent::Convergence { converged, .. } = &mut ev {
            *converged = false;
        }
        tr.observe(&ev);
        let snap = tr.snapshot();
        assert_eq!(snap.nonconverged, 1);
        assert_eq!(snap.completion, 1.0);
    }

    #[test]
    fn snapshot_json_has_null_eta_when_unknown() {
        let mut tr = ProgressTracker::new(ProgressPlan::for_fit(1, 0, 1));
        let j = tr.snapshot().to_json();
        assert!(matches!(j.get("eta_seconds"), Some(Json::Null)));
        let text = tr.snapshot().render();
        assert!(text.contains("eta=-"));
    }
}

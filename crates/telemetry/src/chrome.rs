//! Chrome trace-format export: turns a [`TraceEvent`] stream into the
//! JSON object format `chrome://tracing` and [Perfetto] load natively.
//!
//! Layout: one Chrome *process* (pid 0) models the simulated cluster;
//! each rank owns three *threads* so its tracks never overlap:
//!
//! | tid          | track                                        |
//! |--------------|----------------------------------------------|
//! | `3*rank`     | `rank N spans` — instrumentation spans       |
//! | `3*rank + 1` | `rank N phases` — taxonomy-tagged charges    |
//! | `3*rank + 2` | `rank N comm` — collective idle + window ops |
//!
//! A separate process (pid 1, tid 0) carries the op-level collective
//! summaries. All events are `"X"` (complete) events except faults
//! and modeled I/O reads, which are `"i"` (instant) marks. Timestamps
//! are virtual seconds scaled to microseconds, the unit the trace
//! format specifies.
//!
//! [Perfetto]: https://ui.perfetto.dev

use crate::json::Json;
use crate::live::{ProgressPlan, ProgressTracker};
use crate::timeline::{build_timeline, Timeline};
use crate::trace::TraceEvent;

const US: f64 = 1e6;

fn counter_event(name: &str, pid: u64, ts: f64, args: Json) -> Json {
    Json::obj(vec![
        ("name", Json::str(name)),
        ("cat", Json::str("counter")),
        ("ph", Json::str("C")),
        ("ts", Json::num(ts * US)),
        ("pid", Json::num(pid as f64)),
        ("tid", Json::num(0.0)),
        ("args", args),
    ])
}

fn x_event(name: &str, cat: &str, pid: u64, tid: u64, ts: f64, dur: f64, args: Json) -> Json {
    Json::obj(vec![
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("X")),
        ("ts", Json::num(ts * US)),
        ("dur", Json::num((dur * US).max(0.0))),
        ("pid", Json::num(pid as f64)),
        ("tid", Json::num(tid as f64)),
        ("args", args),
    ])
}

fn instant_event(name: &str, cat: &str, pid: u64, tid: u64, ts: f64, args: Json) -> Json {
    Json::obj(vec![
        ("name", Json::str(name)),
        ("cat", Json::str(cat)),
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("ts", Json::num(ts * US)),
        ("pid", Json::num(pid as f64)),
        ("tid", Json::num(tid as f64)),
        ("args", args),
    ])
}

fn metadata(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Json {
    let mut fields = vec![
        ("name", Json::str(name)),
        ("ph", Json::str("M")),
        ("pid", Json::num(pid as f64)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid", Json::num(tid as f64)));
    }
    fields.push(("args", Json::obj(vec![("name", Json::str(value))])));
    Json::obj(fields)
}

/// Convert a raw event stream into a Chrome trace JSON document.
///
/// The stream is replayed through [`build_timeline`] first, so span
/// intervals arrive pre-matched and every charge carries its taxonomy
/// phase; the raw stream is consulted again only for the per-event
/// marks (faults, I/O, window transfers, collective summaries).
pub fn to_chrome_trace(events: &[TraceEvent]) -> Json {
    let tl = build_timeline(events);
    let mut out: Vec<Json> = Vec::new();

    out.push(metadata("process_name", 0, None, "uoi simulated cluster"));
    out.push(metadata("process_name", 1, None, "collectives"));
    out.push(metadata("thread_name", 1, Some(0), "collective ops"));
    for &rank in tl.ranks.keys() {
        let base = 3 * rank as u64;
        out.push(metadata(
            "thread_name",
            0,
            Some(base),
            &format!("rank {rank} spans"),
        ));
        out.push(metadata(
            "thread_name",
            0,
            Some(base + 1),
            &format!("rank {rank} phases"),
        ));
        out.push(metadata(
            "thread_name",
            0,
            Some(base + 2),
            &format!("rank {rank} comm"),
        ));
    }

    emit_timeline_events(&tl, &mut out);

    // Per-event marks straight off the raw stream.
    for ev in events {
        match ev {
            TraceEvent::Collective {
                op,
                comm_size,
                modeled_size,
                bytes,
                t_start,
                t_end,
                t_min,
                t_max,
                t_mean,
            } => {
                let args = Json::obj(vec![
                    ("comm_size", Json::num(*comm_size as f64)),
                    ("modeled_size", Json::num(*modeled_size as f64)),
                    ("bytes", Json::num(*bytes as f64)),
                    ("t_min", Json::num(*t_min)),
                    ("t_max", Json::num(*t_max)),
                    ("t_mean", Json::num(*t_mean)),
                ]);
                out.push(x_event(
                    op,
                    "collective",
                    1,
                    0,
                    *t_start,
                    t_end - t_start,
                    args,
                ));
            }
            TraceEvent::WindowTransfer {
                rank,
                kind,
                target,
                bytes,
                t_start,
                t_end,
            } => {
                let args = Json::obj(vec![
                    ("target", Json::num(*target as f64)),
                    ("bytes", Json::num(*bytes as f64)),
                ]);
                out.push(x_event(
                    &format!("win:{kind}"),
                    "window",
                    0,
                    3 * *rank as u64 + 2,
                    *t_start,
                    t_end - t_start,
                    args,
                ));
            }
            TraceEvent::Io { rank, seconds, t } => {
                let args = Json::obj(vec![("seconds", Json::num(*seconds))]);
                out.push(instant_event("io", "io", 0, 3 * *rank as u64 + 1, *t, args));
            }
            TraceEvent::Fault {
                rank,
                kind,
                detail,
                t,
            } => {
                let args = Json::obj(vec![("detail", Json::str(detail.clone()))]);
                out.push(instant_event(
                    &format!("fault:{kind}"),
                    "fault",
                    0,
                    3 * *rank as u64,
                    *t,
                    args,
                ));
            }
            TraceEvent::Hedge {
                rank,
                action,
                task,
                owner,
                replica,
                t,
            } => {
                let args = Json::obj(vec![
                    ("task", Json::num(*task as f64)),
                    ("owner", Json::num(*owner as f64)),
                    ("replica", Json::num(*replica as f64)),
                ]);
                out.push(instant_event(
                    &format!("hedge:{action}"),
                    "speculation",
                    0,
                    3 * *rank as u64,
                    *t,
                    args,
                ));
            }
            TraceEvent::Numerical {
                rank,
                stage,
                action,
                bootstrap,
                lambda_idx,
                attempts,
                value,
                detail,
                t,
            } => {
                let args = Json::obj(vec![
                    ("stage", Json::str(*stage)),
                    ("bootstrap", Json::num(*bootstrap as f64)),
                    ("lambda_idx", Json::num(*lambda_idx as f64)),
                    ("attempts", Json::num(*attempts as f64)),
                    ("value", Json::num(*value)),
                    ("detail", Json::str(detail.clone())),
                ]);
                out.push(instant_event(
                    &format!("numerical:{action}"),
                    "numerical",
                    0,
                    3 * *rank as u64,
                    *t,
                    args,
                ));
            }
            // Replayed through the timeline above; convergence records
            // surface through the counter tracks below.
            TraceEvent::SpanStart { .. }
            | TraceEvent::SpanEnd { .. }
            | TraceEvent::PhaseCharge { .. }
            | TraceEvent::CollectiveWait { .. }
            | TraceEvent::Convergence { .. } => {}
        }
    }

    emit_counter_tracks(events, &mut out);

    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj(vec![
                ("source", Json::str("uoi-trace")),
                ("ranks", Json::num(tl.ranks.len() as f64)),
                ("world_size", Json::num(tl.world_size as f64)),
            ]),
        ),
    ])
}

/// Check `doc` against the Chrome trace-format subset
/// [`to_chrome_trace`] emits, which Perfetto and `chrome://tracing`
/// load: an object whose required `traceEvents` array holds `"X"`,
/// `"i"`, `"C"` and `"M"` events. Every event carries `name`, `ph` and
/// `pid`; `"X"` also needs `ts`, `dur`, `tid`, `cat` and `args`, `"i"`
/// needs `ts`, `tid` and a scope `s` of `t`, `p` or `g`, `"C"` needs
/// `ts`, `tid`, `cat` and `args`, and `"M"` needs `args`. `name` and
/// `cat` are strings, `ts`, `dur`, `pid` and `tid` non-negative
/// numbers, and `args` an object. An optional `displayTimeUnit` is `ms`
/// or `ns`; an optional `otherData` object has a string `source` and
/// non-negative `ranks` and `world_size`. Returns the event count, or
/// the first violation.
pub fn validate_chrome_trace(doc: &Json) -> Result<usize, String> {
    let is_obj = |v: &Json| matches!(v, Json::Obj(_));
    let fields = |at: &str, obj: &Json| {
        let text = |k| obj.get(k).is_some_and(|v: &Json| v.as_str().is_none());
        let count = |k| {
            obj.get(k)
                .is_some_and(|v: &Json| !v.as_num().is_some_and(|x| x >= 0.0))
        };
        if !is_obj(obj) {
            return Err(format!("{at}: must be an object"));
        }
        if let Some(key) = ["name", "cat", "source"].into_iter().find(|&k| text(k)) {
            return Err(format!("{at}.{key}: must be a string"));
        }
        let numbers = ["ts", "dur", "pid", "tid", "ranks", "world_size"];
        match numbers.into_iter().find(|&k| count(k)) {
            Some(key) => Err(format!("{at}.{key}: must be a number >= 0")),
            None => Ok(()),
        }
    };
    let events = doc.get("traceEvents").and_then(Json::as_arr);
    let events = events.ok_or("$: needs a traceEvents array")?;
    let unit = doc.get("displayTimeUnit").map(Json::as_str);
    if unit.is_some_and(|u| !matches!(u, Some("ms" | "ns"))) {
        return Err("$.displayTimeUnit: must be \"ms\" or \"ns\"".to_string());
    }
    (doc.get("otherData")).map_or(Ok(()), |other| fields("$.otherData", other))?;
    for (i, ev) in events.iter().enumerate() {
        let at = format!("$.traceEvents[{i}]");
        fields(&at, ev)?;
        let extra: &[&str] = match ev.get("ph").map(Json::as_str) {
            None => &[],
            Some(Some("X")) => &["ts", "dur", "tid", "cat", "args"],
            Some(Some("i")) => &["ts", "tid", "s"],
            Some(Some("C")) => &["ts", "tid", "cat", "args"],
            Some(Some("M")) => &["args"],
            Some(_) => return Err(format!("{at}.ph: must be \"X\", \"i\", \"C\" or \"M\"")),
        };
        let required = ["name", "ph", "pid"].iter().chain(extra);
        if let Some(key) = required.into_iter().find(|k| ev.get(k).is_none()) {
            return Err(format!("{at}: missing required key {key}"));
        }
        let scope = ev.get("s").map(Json::as_str);
        if scope.is_some_and(|s| !matches!(s, Some("t" | "p" | "g"))) {
            return Err(format!("{at}.s: must be \"t\", \"p\" or \"g\""));
        }
        if ev.get("args").is_some_and(|a| !is_obj(a)) {
            return Err(format!("{at}.args: must be an object"));
        }
    }
    Ok(events.len())
}

/// Counter tracks (Chrome `"C"` events, pid 2) replaying the
/// convergence record stream through a [`ProgressTracker`]: tasks in
/// flight vs done, the cumulative non-converged count, and the α–β
/// ETA — Perfetto draws each as a stacked area chart next to the
/// rank timelines.
fn emit_counter_tracks(events: &[TraceEvent], out: &mut Vec<Json>) {
    // The trace is complete, so the plan is just the observed totals.
    let Some(plan) = ProgressPlan::observed(events) else {
        return;
    };
    let mut convs: Vec<(f64, &TraceEvent)> = (events.iter())
        .filter_map(|ev| match ev {
            TraceEvent::Convergence { t, .. } => Some((*t, ev)),
            _ => None,
        })
        .collect();
    convs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    out.push(metadata("process_name", 2, None, "solver health"));
    let mut tracker = ProgressTracker::new(plan);
    for (_, ev) in convs {
        tracker.observe(ev);
        let snap = tracker.snapshot();
        out.push(counter_event(
            "uoi tasks",
            2,
            snap.elapsed,
            Json::obj(vec![
                ("completed", Json::num(snap.completed as f64)),
                ("pending", Json::num((snap.total - snap.completed) as f64)),
            ]),
        ));
        out.push(counter_event(
            "uoi nonconverged",
            2,
            snap.elapsed,
            Json::obj(vec![("count", Json::num(snap.nonconverged as f64))]),
        ));
        if let Some(eta) = snap.eta_seconds {
            out.push(counter_event(
                "uoi eta",
                2,
                snap.elapsed,
                Json::obj(vec![("seconds", Json::num(eta))]),
            ));
        }
    }
}

fn emit_timeline_events(tl: &Timeline, out: &mut Vec<Json>) {
    for (&rank, rtl) in &tl.ranks {
        let base = 3 * rank as u64;
        for sp in &rtl.spans {
            let args = Json::obj(vec![("depth", Json::num(sp.depth as f64))]);
            out.push(x_event(
                &sp.name,
                "span",
                0,
                base,
                sp.start,
                sp.end - sp.start,
                args,
            ));
        }
        for iv in &rtl.intervals {
            let args = Json::obj(vec![("ledger", Json::str(format!("{:?}", iv.ledger)))]);
            out.push(x_event(
                iv.phase.label(),
                "phase",
                0,
                base + 1,
                iv.start,
                iv.seconds(),
                args,
            ));
        }
        for idle in &rtl.idles {
            let args = Json::obj(vec![
                ("wait", Json::num(idle.wait)),
                ("cost", Json::num(idle.cost)),
                ("phase", Json::str(idle.phase.label())),
            ]);
            out.push(x_event(
                &format!("idle:{}", idle.op),
                "idle",
                0,
                base + 2,
                idle.start,
                idle.wait,
                args,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SpanStart {
                id: 1,
                parent: None,
                name: "read_t1".into(),
                rank: 0,
                t: 0.0,
            },
            TraceEvent::PhaseCharge {
                rank: 0,
                phase: "Data I/O",
                seconds: 0.5,
                t: 0.5,
            },
            TraceEvent::Io {
                rank: 0,
                seconds: 0.5,
                t: 0.5,
            },
            TraceEvent::SpanEnd {
                id: 1,
                rank: 0,
                t: 0.5,
            },
            TraceEvent::CollectiveWait {
                rank: 0,
                op: "barrier".into(),
                wait: 0.25,
                cost: 0.0,
                t: 0.5,
            },
            TraceEvent::PhaseCharge {
                rank: 0,
                phase: "Communication",
                seconds: 0.25,
                t: 0.75,
            },
            TraceEvent::Collective {
                op: "barrier".into(),
                comm_size: 2,
                modeled_size: 2,
                bytes: 0,
                t_start: 0.75,
                t_end: 0.75,
                t_min: 0.0,
                t_max: 0.0,
                t_mean: 0.0,
            },
            TraceEvent::WindowTransfer {
                rank: 0,
                kind: "get",
                target: 1,
                bytes: 64,
                t_start: 0.75,
                t_end: 0.8,
            },
            TraceEvent::Fault {
                rank: 0,
                kind: "io_retry".into(),
                detail: "attempt=1".into(),
                t: 0.8,
            },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_tracks() {
        let doc = to_chrome_trace(&events());
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        let evs = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!evs.is_empty());
        assert_eq!(validate_chrome_trace(&parsed), Ok(evs.len()));
        // The span, its taxonomy phase, the idle block, the collective
        // summary, and the window transfer all surface by name.
        let names: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        for expected in [
            "read_t1",
            "idle:barrier",
            "barrier",
            "win:get",
            "fault:io_retry",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // Microsecond scaling: the 0.5 s charge is 500000 µs long.
        let phase_ev = evs
            .iter()
            .find(|e| {
                e.get("cat").and_then(Json::as_str) == Some("phase")
                    && e.get("name").and_then(Json::as_str) == Some("read_t1")
            })
            .unwrap();
        assert!((phase_ev.get("dur").unwrap().as_num().unwrap() - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn convergence_records_become_counter_tracks() {
        let mut evs = events();
        for (i, t) in [0.2, 0.4, 0.6].iter().enumerate() {
            evs.push(TraceEvent::Convergence {
                rank: 0,
                stage: if i < 2 { "selection" } else { "estimation" },
                bootstrap: i,
                lambda_idx: 0,
                lambda: 0.5,
                iterations: 10,
                max_iter: 100,
                converged: i != 1,
                primal_residual: 1e-8,
                dual_residual: 1e-8,
                support: vec![0],
                curve: Vec::new(),
                t: *t,
            });
        }
        let doc = to_chrome_trace(&evs);
        assert!(validate_chrome_trace(&doc).is_ok());
        let out = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<&Json> = out
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        // Three task samples, three nonconverged samples, plus ETA
        // samples once the model has data.
        assert!(counters.len() >= 6, "got {} counter events", counters.len());
        let last_tasks = counters
            .iter()
            .rev()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("uoi tasks"))
            .unwrap();
        assert_eq!(
            last_tasks
                .get("args")
                .unwrap()
                .get("completed")
                .unwrap()
                .as_num(),
            Some(3.0)
        );
        assert_eq!(
            last_tasks
                .get("args")
                .unwrap()
                .get("pending")
                .unwrap()
                .as_num(),
            Some(0.0)
        );
        let last_nonconv = counters
            .iter()
            .rev()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("uoi nonconverged"))
            .unwrap();
        assert_eq!(
            last_nonconv
                .get("args")
                .unwrap()
                .get("count")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
        // Counter-free traces don't grow a solver-health process.
        let plain = to_chrome_trace(&events());
        assert!(plain
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) != Some("C")));
    }

    /// One failing input per constraint the validator holds.
    #[test]
    fn validator_enforces_every_constraint() {
        let x = r#""name": "a", "cat": "c", "ph": "X", "ts": 0, "dur": 1, "pid": 0, "tid": 0"#;
        let i = r#""name": "io", "ph": "i", "pid": 0, "ts": 0, "tid": 0"#;
        let c = r#""name": "c", "ph": "C", "pid": 2, "ts": 0, "tid": 0, "cat": "counter""#;
        let m = r#""name": "process_name", "ph": "M", "pid": 0"#;
        let doc = |ev: &str| format!(r#"{{"traceEvents": [{{{ev}}}], "otherData": {{}}}}"#);
        let check = |doc: &str| validate_chrome_trace(&Json::parse(doc).unwrap());
        for ok in [format!("{x}, \"args\": {{}}"), format!("{i}, \"s\": \"t\"")] {
            assert_eq!(check(&doc(&ok)), Ok(1));
        }
        for ok in [c, m] {
            assert_eq!(check(&doc(&format!("{ok}, \"args\": {{}}"))), Ok(1));
        }
        let mut bad: Vec<String> = [x, i, c, m, r#""name": "a", "pid": 0"#].map(doc).into();
        for ev in [
            format!("{x}, \"args\": []"),
            format!("{i}, \"s\": \"x\""),
            format!("{m}, \"args\": {{}}").replace("\"M\"", "\"B\""),
        ] {
            bad.push(doc(&ev));
        }
        for key in ["ts", "dur", "tid", "cat", "name", "pid"] {
            let args = format!("{x}, \"args\": {{}}");
            bad.push(doc(&args.replace(&format!("\"{key}\": "), "\"gone\": ")));
            let typed = format!("\"{key}\": null, \"was\": ");
            bad.push(doc(&args.replace(&format!("\"{key}\": "), &typed)));
        }
        bad.push(doc(x).replace(r#""otherData": {}"#, r#""otherData": []"#));
        for other in [r#""ranks": -1"#, r#""world_size": "4""#, r#""source": 1"#] {
            bad.push(doc(x).replace(r#""otherData": {}"#, &format!("\"otherData\": {{{other}}}")));
        }
        bad.extend(
            [r#"[]"#, r#"{"traceEvents": {}}"#, r#"{"traceEvents": [1]}"#].map(String::from),
        );
        bad.push(r#"{"traceEvents": [], "displayTimeUnit": "s"}"#.to_string());
        for doc in bad {
            assert!(check(&doc).is_err(), "{doc} passed");
        }
    }

    #[test]
    fn thread_names_cover_every_rank_track() {
        let doc = to_chrome_trace(&events());
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let thread_names: Vec<String> = evs
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str().map(String::from))
            .collect();
        for expected in [
            "rank 0 spans",
            "rank 0 phases",
            "rank 0 comm",
            "collective ops",
        ] {
            assert!(
                thread_names.iter().any(|n| n == expected),
                "missing thread {expected} in {thread_names:?}"
            );
        }
    }
}

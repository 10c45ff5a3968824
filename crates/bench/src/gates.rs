//! The pipeline gates behind `uoi_trace snapshot`, `compare` and
//! `check`. `scripts/bench_snapshot.sh` runs the Fig 2 LASSO and Fig 7
//! VAR pipelines and leaves their run reports in a trace directory (a
//! `rep<i>/` per traced rep, a `straggler/` and a `numerical/` rep);
//! [`snapshot`] folds them into `BENCH_PIPELINE.json`, [`compare`]
//! diffs two snapshots, and [`check`] gates one traced run's artifacts.
//!
//! # Snapshot schema (`schema_version` 7)
//!
//! Each pipeline holds the minimum untraced wall-clock over the reps
//! and the per-phase minima of the modeled max-over-ranks seconds over
//! the traced reps: a phase's modeled time varies with thread
//! scheduling (one-sided serving order), and the minimum is the stable
//! best case.
//!
//! - Schema 3 added the run parameters that shape the modeled
//!   `admm_local` time (in-rank `threads`; fig2's `admm_schedule` until
//!   the Fused schedule was removed), and schema 4 the Gram kernel
//!   variant (`gram_kernel`).
//! - Schema 5 added the `straggler` block of one rep with
//!   `UOI_STRAGGLER=4.0 UOI_SPECULATE=1` ([`crate::straggler`]) and its
//!   `watchdog_ms`. The snapshot fails when the hedges recover less
//!   than [`RECOVERY_FLOOR`] of the straggler-induced slowdown.
//! - Schema 6 added the traced reps' `convergence` block.
//! - Schema 7 added the `numerical` block of one guarded rep
//!   (`UOI_NUMERICAL=1`). The figure datasets are clean, so a missing
//!   block fails the snapshot and a guard that fires fails [`compare`].
//!
//! The straggler and guarded reps never touch the walls.

use std::path::{Path, PathBuf};

use uoi_telemetry::{
    analyze, build_timeline, parse_openmetrics, replay_openmetrics, validate_chrome_trace,
    Breakdown, ConvergenceReport, Json, JsonlSink, OpenMetricsDigest, TraceEvent,
};

/// The `schema_version` [`snapshot`] writes.
pub const SCHEMA_VERSION: u32 = 7;
/// The `generated_by` stamp of a snapshot.
pub const GENERATED_BY: &str = "scripts/bench_snapshot.sh";
/// The hedging study must recover at least this fraction of the
/// straggler-induced modeled slowdown.
pub const RECOVERY_FLOOR: f64 = 0.5;
/// [`compare`] fails a phase that slowed down by more than this.
pub const THRESHOLD: f64 = 0.15;
/// [`compare`] ignores phases under this fraction of the baseline
/// makespan, except [`ALWAYS_GATED`] ones.
pub const FLOOR: f64 = 0.01;
/// Gated whatever their share of the makespan: the solver inner loop
/// and the batched Gram engine, the two phases the kernel work targets.
pub const ALWAYS_GATED: [&str; 2] = ["admm_local", "gram_build"];
/// [`check`] fails a rank whose phase walls miss its wall by more.
pub const PHASE_SUM_TOL: f64 = 0.05;

/// The value at a dotted `path` of nested objects.
fn at<'j>(v: &'j Json, path: &str) -> Option<&'j Json> {
    path.split('.').try_fold(v, |v, key| v.get(key))
}

fn num(v: &Json, path: &str) -> Option<f64> {
    at(v, path)?.as_num()
}

/// The object at `key`, unless it is missing or empty.
fn block<'j>(v: &'j Json, key: &str) -> Option<&'j Json> {
    at(v, key).filter(|b| matches!(b, Json::Obj(pairs) if !pairs.is_empty()))
}

/// The pairs of the object at `key` (none when it is not an object).
fn pairs<'j>(v: &'j Json, key: &str) -> &'j [(String, Json)] {
    match v.get(key) {
        Some(Json::Obj(pairs)) => pairs,
        _ => &[],
    }
}

fn name_of(entry: &Json) -> &str {
    entry.get("name").and_then(Json::as_str).unwrap_or("?")
}

/// A snapshot's entry for the pipeline `name`.
fn pipeline<'j>(snapshot: &'j Json, name: &str) -> Option<&'j Json> {
    let entries = snapshot.get("pipelines").and_then(Json::as_arr);
    entries.unwrap_or(&[]).iter().find(|e| name_of(e) == name)
}

/// A snapshot block: each `(key, path)` field's run-report value at
/// `path` under `key`, `null` when the report lacks it.
fn pick(report: &Json, fields: &[(&str, &str)]) -> Json {
    let value = |path| at(report, path).cloned().unwrap_or(Json::Null);
    let pairs = fields.iter().map(|&(key, path)| (key, value(path)));
    Json::obj(pairs.collect())
}

/// The `convergence` block (schema 6) as `(key, run-report path)`
/// pairs, from the first traced rep whose run report has one.
const CONVERGENCE: [(&str, &str); 4] = [
    ("tasks", "tasks"),
    ("nonconverged_fraction", "nonconverged_fraction"),
    ("cap_hits", "cap_hits"),
    ("median_admm_iterations", "stages.selection.iterations.p50"),
];

/// The `numerical` block (schema 7), from the guarded rep.
const NUMERICAL: [(&str, &str); 7] = [
    ("clean", "clean"),
    ("jitter_events", "jitter.events"),
    ("jitter_attempts_total", "jitter.attempts_total"),
    ("rho_restarts", "rho_restarts"),
    ("divergences", "divergence.trips"),
    ("dropped_tasks", "dropped_tasks"),
    ("sanitized_cells", "sanitized_cells"),
];

/// The `straggler` block (schema 5), from the straggler rep's `params`.
const STRAGGLER: [(&str, &str); 8] = [
    ("factor", "straggler_factor"),
    ("hedges_spawned", "hedges_spawned"),
    ("hedges_won", "hedges_won"),
    ("hedges_cancelled", "hedges_cancelled"),
    ("makespan_healthy_s", "speculation_makespan_healthy"),
    ("makespan_unhedged_s", "speculation_makespan_unhedged"),
    ("makespan_hedged_s", "speculation_makespan_hedged"),
    ("recovered", "speculation_recovered"),
];

/// Fold one pipeline's run reports, the traced `reps` that parsed and
/// the guarded and straggler reps, into its `BENCH_PIPELINE.json`
/// entry; `baseline` is its entry in the baseline snapshot. The
/// `convergence`, `numerical` and `straggler` blocks are the
/// [`CONVERGENCE`], [`NUMERICAL`] and [`STRAGGLER`] picks.
fn fold(
    name: &str,
    min_wall_ms: u64,
    reps: &[Json],
    numerical: Option<&Json>,
    straggler: Option<&Json>,
    baseline: Option<&Json>,
) -> Json {
    let (mut threads, mut kernel, mut conv, mut makespan) = (None, None, None, None);
    let mut phases: Vec<(String, f64)> = Vec::new();
    for report in reps {
        let param = |path| at(report, path).filter(|v| **v != Json::Null).cloned();
        threads = param("params.threads").or(threads);
        kernel = param("params.gram_kernel").or(kernel);
        // Deterministic across reps: the first block suffices.
        conv = conv.or_else(|| block(report, "convergence").map(|c| pick(c, &CONVERGENCE)));
        let breakdown = block(report, "breakdown");
        let Some((breakdown, m)) = breakdown.and_then(|b| Some((b, num(b, "makespan")?))) else {
            continue;
        };
        makespan = Some(makespan.map_or(m, |best: f64| best.min(m)));
        let maxima = pairs(breakdown, "aggregate").iter();
        for (phase, t) in maxima.filter_map(|(p, a)| Some((p, num(a, "max")?))) {
            match phases.iter_mut().find(|(p, _)| p == phase) {
                Some((_, min)) => *min = min.min(t),
                None => phases.push((phase.clone(), t)),
            }
        }
    }
    let phases = phases.into_iter().map(|(p, t)| (p, Json::num(t))).collect();
    let numerical = numerical.and_then(|r| block(r, "numerical"));
    let params = straggler.and_then(|r| r.get("params"));
    let study = params.filter(|p| p.get("speculation_recovered").is_some());
    let watchdog = study.map(|s| at(s, "watchdog_ms").cloned().unwrap_or(Json::Null));
    let mut entry = vec![
        ("name", Json::str(name)),
        ("min_wall_ms", Json::num(min_wall_ms as f64)),
    ];
    let mut push = |key, value: Option<Json>| entry.extend(value.map(|v| (key, v)));
    push("threads", threads);
    push("gram_kernel", kernel);
    push("convergence", conv);
    push("makespan_model_s", makespan.map(Json::num));
    push("phases_model_s", makespan.map(|_| Json::Obj(phases)));
    push("numerical", numerical.map(|n| pick(n, &NUMERICAL)));
    push("watchdog_ms", watchdog);
    push("straggler", study.map(|s| pick(s, &STRAGGLER)));
    let base_ms = baseline.and_then(|b| num(b, "min_wall_ms"));
    if let Some(base) = base_ms.filter(|&ms| ms > 0.0) {
        // Two decimals, rounded half to even on the exact binary
        // value, as the snapshot has always been written.
        let speedup = format!("{:.2}", base / min_wall_ms.max(1) as f64);
        push("baseline_wall_ms", Some(Json::num(base)));
        push("speedup", speedup.parse().ok().map(Json::num));
    }
    Json::obj(entry)
}

/// The snapshot's own gates on one `fold`ed entry, which need no
/// baseline: the guarded rep left a numerical block, and the straggler
/// rep a hedging study that recovered at least [`RECOVERY_FLOOR`].
fn snapshot_gates(entry: &Json) -> Vec<String> {
    let name = name_of(entry);
    let mut failures = Vec::new();
    if block(entry, "numerical").is_none() {
        failures.push(format!("{name} guarded rep produced no numerical block"));
    }
    match entry.get("straggler").map(|s| num(s, "recovered")) {
        None => failures.push(format!("{name} straggler rep produced no hedging account")),
        Some(Some(r)) if r >= RECOVERY_FLOOR => {}
        Some(r) => failures.push(format!(
            "{name} hedging recovered {:.0}% < {:.0}% of the straggler slowdown",
            100.0 * r.unwrap_or(f64::NAN),
            100.0 * RECOVERY_FLOOR
        )),
    }
    failures
}

/// Fold the run reports under `trace_dir` into the `BENCH_PIPELINE.json`
/// document of the pipelines `specs` (`(name, min_wall_ms)`), with
/// speedups against the `baseline` snapshot. The traced reps are the
/// consecutive `rep1/`, `rep2/`, … directories. Also returns the
/// snapshot's own gate failures.
pub fn snapshot(
    trace_dir: &Path,
    specs: &[(String, u64)],
    baseline: Option<&Json>,
) -> (Json, Vec<String>) {
    let reps = (1..)
        .take_while(|i| trace_dir.join(format!("rep{i}")).is_dir())
        .count();
    let read = |dir: &str, name: &str| read_json(&trace_dir.join(dir).join(format!("{name}.json")));
    let mut failures = Vec::new();
    let pipelines = (specs.iter())
        .map(|(name, ms)| {
            let traced: Vec<Json> = (1..=reps)
                .filter_map(|i| read(&format!("rep{i}"), name).ok())
                .collect();
            let (num, strag) = (read("numerical", name).ok(), read("straggler", name).ok());
            let base = baseline.and_then(|b| pipeline(b, name));
            let entry = fold(name, *ms, &traced, num.as_ref(), strag.as_ref(), base);
            if entry.get("makespan_model_s").is_none() {
                eprintln!("warning: no breakdown for {name}; phases omitted");
            }
            failures.extend(snapshot_gates(&entry));
            entry
        })
        .collect();
    let doc = Json::obj(vec![
        ("schema_version", Json::num(f64::from(SCHEMA_VERSION))),
        ("reps", Json::num(reps as f64)),
        ("generated_by", Json::str(GENERATED_BY)),
        ("pipelines", Json::Arr(pipelines)),
    ]);
    (doc, failures)
}

/// Gate the snapshot `new` against the baseline `old`: the report
/// lines, and whether a gate failed. A pipeline fails when its
/// non-converged fraction grew, when a guard fired on its clean guarded
/// rep, or when a phase slowed down by more than [`THRESHOLD`]: any of
/// the [`ALWAYS_GATED`] phases, or another that took at least [`FLOOR`]
/// of the baseline makespan. A gated phase whose baseline is 0 s fails
/// when it now takes any time. A baseline entry without phase data
/// skips the phase comparison.
pub fn compare(old: &Json, new: &Json) -> (Vec<String>, bool) {
    let (mut lines, mut failed) = (Vec::new(), false);
    let mut line = |text: String, failure: Option<&str>| {
        failed |= failure.is_some();
        lines.push(match failure {
            Some(why) => format!("{text}  REGRESSION ({why})"),
            None => text,
        });
    };
    let over = format!("> {:.0}%", 100.0 * THRESHOLD);
    let entries = new.get("pipelines").and_then(Json::as_arr).unwrap_or(&[]);
    for entry in entries {
        let name = name_of(entry);
        let Some(base) = pipeline(old, name) else {
            line(format!("{name}: not in baseline, skipped"), None);
            continue;
        };
        if let Some(was) = num(base, "min_wall_ms").filter(|&ms| ms > 0.0) {
            let now = num(entry, "min_wall_ms").unwrap_or(0.0);
            let delta = 100.0 * (now / was - 1.0);
            line(
                format!("{name}: wall {was} ms -> {now} ms ({delta:+.1}%)"),
                None,
            );
        }
        let convergence = [base, entry].map(|e| block(e, "convergence"));
        if let [Some(was), Some(now)] = convergence {
            let percent = |c| 100.0 * num(c, "nonconverged_fraction").unwrap_or(0.0);
            let (f_was, f_now) = (percent(was), percent(now));
            let text = format!("  nonconverged     {f_was:>11.4}%  -> {f_now:>11.4}%");
            line(
                text,
                (f_now > f_was + 1e-10).then_some("non-converged fraction grew"),
            );
            let iterations = [was, now].map(|c| num(c, "median_admm_iterations"));
            if let [Some(i_was), Some(i_now)] = iterations {
                line(
                    format!("  admm iter p50    {i_was:12.1}  -> {i_now:12.1}"),
                    None,
                );
            }
        }
        if let Some(health) = block(entry, "numerical") {
            let [jitter, restarts, dropped] = ["jitter_events", "rho_restarts", "dropped_tasks"]
                .map(|key| num(health, key).unwrap_or(0.0));
            let text = format!(
                "  numerical        jitter {jitter}, restarts {restarts}, dropped {dropped}"
            );
            let fired = jitter + restarts + dropped > 0.0;
            line(text, fired.then_some("guards fired on clean input"));
        }
        let old_phases = pairs(base, "phases_model_s");
        if old_phases.is_empty() {
            let skip = "baseline has no phase data (schema v1?); phase comparison skipped";
            line(format!("{name}: {skip}"), None);
            continue;
        }
        let floor = FLOOR * num(base, "makespan_model_s").unwrap_or(0.0);
        let mut old_phases: Vec<_> = (old_phases.iter())
            .filter_map(|(p, t)| Some((p, t.as_num()?)))
            .collect();
        old_phases.sort_by(|a, b| a.0.cmp(b.0));
        let new_phases = entry.get("phases_model_s");
        for (phase, was) in old_phases {
            let Some(now) = new_phases.and_then(|p| p.get(phase)?.as_num()) else {
                continue;
            };
            if was < floor && !ALWAYS_GATED.contains(&phase.as_str()) {
                continue;
            }
            let text = format!("  {phase:16} {was:12.6}s -> {now:12.6}s");
            if was <= 0.0 {
                line(text + " (from 0 s)", (now > 0.0).then_some("grew from 0 s"));
            } else {
                let delta = now / was - 1.0;
                let text = text + &format!(" ({:+.1}%)", 100.0 * delta);
                line(text, (delta > THRESHOLD).then_some(over.as_str()));
            }
        }
    }
    (lines, failed)
}

/// One gate's outcome: what it saw, or why it failed.
pub type Gate = Result<String, String>;

/// The run report counts no dropped trace records, so the timeline and
/// every per-phase sum are complete.
pub fn dropped_records_gate(report: &Json) -> Gate {
    match num(report, "telemetry.dropped_records") {
        Some(0.0) => Ok("0 dropped trace records".to_string()),
        Some(n) => Err(format!(
            "{n} dropped trace record(s): the timeline is incomplete and per-phase sums undercount"
        )),
        None => Err("the run report has no telemetry.dropped_records count".to_string()),
    }
}

/// Every rank ran for a positive wall, and its phase walls sum to that
/// wall within [`PHASE_SUM_TOL`].
fn phase_sum_gate(breakdown: &Breakdown) -> Gate {
    let (ranks, err) = (breakdown.ranks.len(), breakdown.max_sum_error());
    let seen = format!("{ranks} ranks, phase sums within {err:.2e} of wall");
    let stalled = (breakdown.ranks.iter()).find(|r| r.wall <= 0.0 || r.wall.is_nan());
    if let Some(rank) = stalled {
        return Err(format!("rank {} has wall {} s", rank.rank, rank.wall));
    }
    match (ranks, err < PHASE_SUM_TOL) {
        (0, _) => Err("the breakdown has no ranks".to_string()),
        (_, true) => Ok(seen),
        (_, false) => Err(format!("{seen}, past {:.0}%", 100.0 * PHASE_SUM_TOL)),
    }
}

/// Every solve converged, every selection probability is in [0, 1],
/// and the run report's `convergence` block counts the trace's tasks.
fn convergence_gate(conv: &ConvergenceReport, report: &Json) -> Gate {
    let (tasks, stuck) = (conv.tasks, conv.nonconverged);
    let probs = &conv.stability.selection_probability;
    if tasks == 0 {
        Err("no convergence records".to_string())
    } else if stuck > 0 {
        Err(format!("{stuck} of {tasks} tasks did not converge"))
    } else if let Some(p) = probs.iter().find(|p| !(0.0..=1.0).contains(*p)) {
        Err(format!("selection probability {p} outside [0, 1]"))
    } else if num(report, "convergence.tasks") != Some(tasks as f64) {
        Err(format!("the run report does not count {tasks} tasks"))
    } else {
        Ok(format!("{tasks} tasks, all converged"))
    }
}

/// The exposition passes [`parse_openmetrics`].
pub fn openmetrics_gate(text: &str) -> Gate {
    let OpenMetricsDigest { families, samples } = parse_openmetrics(text)?;
    Ok(format!("{families} families, {samples} samples"))
}

/// The Chrome export passes [`validate_chrome_trace`] and holds events.
fn chrome_gate(doc: &Json) -> Gate {
    match validate_chrome_trace(doc)? {
        0 => Err("the Chrome export holds no events".to_string()),
        n => Ok(format!("{n} events")),
    }
}

/// The events of a JSONL trace; an error when it cannot be read or
/// holds none.
pub fn load_events(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let shown = path.display();
    match JsonlSink::read_events(path) {
        Err(e) => Err(format!("cannot read {shown}: {e}")),
        Ok(ev) if ev.is_empty() => Err(format!(
            "{shown} holds no trace events (was the run started with UOI_TRACE=1?)"
        )),
        Ok(ev) => Ok(ev),
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Read and parse a JSON file.
pub fn read_json(path: &Path) -> Result<Json, String> {
    Json::parse(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// Gate the artifacts of one traced run, `<prefix>.json` (the run
/// report), `<prefix>.trace.jsonl`, `<prefix>.metrics.prom` and the
/// Chrome export `<prefix>.trace.chrome.json`: each gate's name and
/// outcome.
pub fn check(prefix: &Path) -> Vec<(&'static str, Gate)> {
    let path = |suffix: &str| {
        let mut path = prefix.as_os_str().to_owned();
        path.push(suffix);
        PathBuf::from(path)
    };
    let events = load_events(&path(".trace.jsonl"));
    let events = events.as_deref().map_err(String::clone);
    let report = read_json(&path(".json"));
    let report = report.as_ref().map_err(String::clone);
    let conv =
        |ev: &[TraceEvent]| convergence_gate(&ConvergenceReport::from_events(ev), report.clone()?);
    let phase_sums = |ev: &[TraceEvent]| phase_sum_gate(&analyze(&build_timeline(ev)));
    let replayed = |ev: &[TraceEvent]| openmetrics_gate(&replay_openmetrics(ev));
    let dropped = report.clone().and_then(dropped_records_gate);
    let periodic = read(&path(".metrics.prom")).and_then(|t| openmetrics_gate(&t));
    let chrome = read_json(&path(".trace.chrome.json"));
    vec![
        ("dropped records", dropped),
        ("phase sums", events.clone().and_then(phase_sums)),
        ("convergence", events.clone().and_then(conv)),
        ("periodic openmetrics", periodic),
        ("replayed openmetrics", events.and_then(replayed)),
        ("chrome trace", chrome.and_then(|d| chrome_gate(&d))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use uoi_telemetry::analysis::RankBreakdown;
    use uoi_telemetry::{PhaseSlice, PipelinePhase};

    fn json(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    /// A fig2 snapshot: makespan 10 s, one `scoring`-style phase, a
    /// non-converged fraction and a guarded rep's rho restarts.
    fn snap(phase: &str, t: f64, nonconverged: f64, restarts: f64) -> Json {
        json(&format!(
            r#"{{"pipelines": [{{"name": "fig2", "min_wall_ms": 500, "makespan_model_s": 10,
                "convergence": {{"nonconverged_fraction": {nonconverged}}},
                "phases_model_s": {{"{phase}": {t}}}, "numerical": {{"rho_restarts": {restarts}}}}}]}}"#
        ))
    }

    /// Whether `phase` taking `new` s fails against a baseline of `old` s.
    fn fails(phase: &str, old: f64, new: f64) -> bool {
        compare(&snap(phase, old, 0.0, 0.0), &snap(phase, new, 0.0, 0.0)).1
    }

    #[test]
    fn a_phase_fails_past_fifteen_percent() {
        assert!(fails("scoring", 1.0, 1.16) && !fails("scoring", 1.0, 1.14));
        let (lines, _) = compare(&snap("x", 1.0, 0.0, 0.0), &snap("x", 1.16, 0.0, 0.0));
        assert!(lines.last().unwrap().ends_with("REGRESSION (> 15%)"));
    }

    #[test]
    fn phases_under_the_floor_are_exempt_unless_always_gated() {
        // 0.05 s is 0.5 % of the 10 s makespan.
        assert!(!fails("scoring", 0.05, 0.5) && fails("scoring", 0.1, 0.5));
        for phase in ALWAYS_GATED {
            assert!(fails(phase, 0.05, 0.06) && !fails(phase, 0.05, 0.055));
        }
    }

    #[test]
    fn an_always_gated_phase_fails_growing_from_zero() {
        for phase in ALWAYS_GATED {
            assert!(fails(phase, 0.0, 0.01) && !fails(phase, 0.0, 0.0));
        }
        assert!(!fails("scoring", 0.0, 0.01));
        let gram = |t| snap("gram_build", t, 0.0, 0.0);
        let last = compare(&gram(0.0), &gram(0.5)).0.pop().unwrap();
        assert!(last.ends_with("(from 0 s)  REGRESSION (grew from 0 s)"));
    }

    #[test]
    fn nonconverged_growth_and_guards_firing_on_clean_input_fail() {
        let clean = snap("x", 1.0, 0.0, 0.0);
        assert!(!compare(&clean, &clean).1);
        assert!(compare(&clean, &snap("x", 1.0, 0.02, 0.0)).1);
        let both = snap("x", 1.0, 0.02, 0.0);
        assert!(!compare(&both, &both).1);
        assert!(compare(&clean, &snap("x", 1.0, 0.0, 1.0)).1);
    }

    #[test]
    fn a_baseline_without_phase_data_skips_the_phase_comparison() {
        let old = json(r#"{"pipelines": [{"name": "fig2", "min_wall_ms": 400}]}"#);
        let (lines, failed) = compare(&old, &snap("x", 9.0, 0.0, 0.0));
        assert!(!failed && lines.last().unwrap().ends_with("phase comparison skipped"));
        let (fresh, _) = compare(&json("{}"), &snap("x", 1.0, 0.0, 0.0));
        assert_eq!(fresh, ["fig2: not in baseline, skipped"]);
    }

    /// A traced rep's run report.
    fn rep(makespan: f64, admm_local: f64, threads: usize) -> Json {
        json(&format!(
            r#"{{"params": {{"threads": {threads}, "gram_kernel": "v4"}},
                "convergence": {{"stages": {{"selection": {{"iterations": {{"p50": {threads}}}}}}}}},
                "breakdown": {{"makespan": {makespan},
                    "aggregate": {{"gram_build": {{"max": 2}}, "admm_local": {{"max": {admm_local}}}}}}}}}"#
        ))
    }

    /// fig2 folded from two reps, a guarded rep (or none) and a
    /// straggler rep recovering `recovered` (or none).
    fn fold_fig2(recovered: Option<f64>, guarded: bool, baseline_ms: u64) -> Json {
        let study = r#"{"params": {"watchdog_ms": 10000, "speculation_recovered": R}}"#;
        let study = recovered.map(|r| json(&study.replace('R', &r.to_string())));
        let health = r#"{"numerical": {"clean": true, "jitter": {"events": 0}}}"#;
        let health = guarded.then(|| json(health));
        let base = json(&format!(r#"{{"min_wall_ms": {baseline_ms}}}"#));
        let reps = [rep(3.0, 0.5, 2), rep(2.5, 0.7, 4)];
        let (health, study) = (health.as_ref(), study.as_ref());
        fold("fig2", 8000, &reps, health, study, Some(&base))
    }

    #[test]
    fn fold_takes_minima_and_picks_the_blocks() {
        let entry = fold_fig2(Some(0.6), true, 1000);
        let text = |key| entry.get(key).unwrap().to_string_compact();
        assert_eq!(num(&entry, "makespan_model_s"), Some(2.5));
        assert_eq!(
            text("phases_model_s"),
            r#"{"gram_build":2,"admm_local":0.5}"#
        );
        // Parameters from the last rep, convergence from the first.
        assert_eq!(
            (text("threads"), text("gram_kernel")),
            ("4".into(), r#""v4""#.into())
        );
        assert!(text("convergence").ends_with(r#""cap_hits":null,"median_admm_iterations":2}"#));
        let head = r#"{"clean":true,"jitter_events":0,"jitter_attempts_total":null"#;
        assert!(text("numerical").starts_with(head));
        assert_eq!(num(&entry, "watchdog_ms"), Some(10000.0));
        // 1000 / 8000 = 0.125 rounds half to even.
        assert_eq!(num(&entry, "speedup"), Some(0.12));
        assert_eq!(fold_fig2(Some(0.6), true, 0).get("baseline_wall_ms"), None);
    }

    /// The committed snapshot is at the schema this module writes,
    /// passes its own gates and compares clean against itself.
    #[test]
    fn committed_snapshot_is_at_the_written_schema() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PIPELINE.json");
        let committed = read_json(&path).unwrap();
        assert_eq!(
            num(&committed, "schema_version"),
            Some(SCHEMA_VERSION.into())
        );
        let entries = committed.get("pipelines").and_then(Json::as_arr).unwrap();
        assert!(entries.iter().all(|e| snapshot_gates(e).is_empty()));
        assert!(!compare(&committed, &committed).1);
    }

    #[test]
    fn hedging_below_half_and_missing_reps_fail_the_snapshot() {
        let gates = |recovered, guarded| snapshot_gates(&fold_fig2(recovered, guarded, 0));
        assert!(gates(Some(0.5), true).is_empty());
        let low = gates(Some(0.4), true);
        let why = "fig2 hedging recovered 40% < 50% of the straggler slowdown";
        assert_eq!(low, [why]);
        assert!(gates(None, true)[0].ends_with("no hedging account"));
        assert!(gates(Some(0.9), false)[0].ends_with("no numerical block"));
    }

    #[test]
    fn a_dropped_record_fails() {
        let report = |n: u32| json(&format!(r#"{{"telemetry": {{"dropped_records": {n}}}}}"#));
        assert!(dropped_records_gate(&report(0)).is_ok());
        assert!(dropped_records_gate(&report(1)).is_err());
        assert!(dropped_records_gate(&json("{}")).is_err());
    }

    #[test]
    fn a_phase_sum_off_by_more_than_five_percent_or_a_zero_wall_fails() {
        let gate = |wall, other| {
            let phases = [
                (PipelinePhase::GramBuild, 0.5),
                (PipelinePhase::Other, other),
            ];
            let slice = |wall| PhaseSlice {
                wall,
                ..Default::default()
            };
            let phases = phases.into_iter().map(|(p, t)| (p, slice(t))).collect();
            let ranks = vec![RankBreakdown {
                wall,
                phases,
                ..Default::default()
            }];
            phase_sum_gate(&Breakdown {
                ranks,
                ..Default::default()
            })
        };
        assert!(gate(1.0, 0.5).is_ok() && gate(1.0, 0.46).is_ok());
        assert!(gate(1.0, 0.44).is_err() && gate(1.0, 0.56).is_err());
        // The relative sum error skips a rank without wall; the gate does not.
        assert_eq!(gate(0.0, 0.0), Err("rank 0 has wall 0 s".to_string()));
    }

    #[test]
    fn an_empty_chrome_export_fails() {
        assert!(chrome_gate(&json(r#"{"traceEvents": []}"#)).is_err());
        let one = r#"{"traceEvents": [{"name": "rank 0", "ph": "M", "pid": 1, "args": {}}]}"#;
        assert_eq!(chrome_gate(&json(one)), Ok("1 events".to_string()));
    }

    #[test]
    fn convergence_gate_needs_converged_tasks_the_report_agrees_on() {
        let conv = |tasks, nonconverged, p| {
            let mut conv = ConvergenceReport {
                tasks,
                nonconverged,
                ..Default::default()
            };
            conv.stability.selection_probability = vec![0.0, p];
            conv
        };
        let report = |tasks: usize| json(&format!(r#"{{"convergence": {{"tasks": {tasks}}}}}"#));
        let gate = |conv: ConvergenceReport, tasks| convergence_gate(&conv, &report(tasks));
        assert!(gate(conv(2, 0, 1.0), 2).is_ok() && gate(conv(2, 0, 1.0), 3).is_err());
        assert!(gate(conv(2, 1, 1.0), 2).is_err() && gate(conv(0, 0, 1.0), 0).is_err());
        assert!(gate(conv(2, 0, 1.5), 2).is_err());
    }
}

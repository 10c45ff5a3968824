//! `uoi-trace` — inspect a JSONL trace captured with `UOI_TRACE=1`, and
//! run the pipeline gates.
//!
//! ```text
//! uoi-trace results/fig2_lasso_single_node.trace.jsonl   # legacy: chrome + report
//! uoi-trace breakdown run.trace.jsonl                    # per-phase report
//! uoi-trace convergence run.trace.jsonl [--json]         # solver-quality report
//! uoi-trace numerical run.trace.jsonl [--json]           # numerical-health report
//! uoi-trace progress run.trace.jsonl [--json]            # replayed progress/ETA
//! uoi-trace export-metrics run.trace.jsonl [--out m.prom]
//! uoi-trace snapshot <trace-dir> [old.json] <name=min_wall_ms>...
//! uoi-trace compare old.json BENCH_PIPELINE.json
//! uoi-trace check results/fig2_lasso_single_node
//! ```
//!
//! The legacy single-argument form converts the trace into a Chrome
//! trace-format JSON (load it at <https://ui.perfetto.dev> or
//! `chrome://tracing`) and prints the per-rank / per-phase breakdown.
//! By default the Chrome trace lands next to the input
//! (`<stem>.chrome.json`). It warns when the sibling run report
//! (`<bench>.json` for a `<bench>.trace.jsonl`) counts dropped records.
//!
//! `snapshot`, `compare` and `check` are the gates of
//! [`uoi_bench::gates`]. `snapshot` folds the run reports
//! `scripts/bench_snapshot.sh` leaves in its trace directory into
//! `BENCH_PIPELINE.json` in the working directory; `compare` diffs two
//! snapshots; `check` gates the artifacts of one traced run, the Chrome
//! export of the legacy form included. Each exits 1 when a gate fails.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use uoi_bench::gates::{self, load_events, read_json};
use uoi_telemetry::{
    analyze, build_timeline, replay_openmetrics, replay_progress, to_chrome_trace,
    ConvergenceReport, NumericalHealthReport,
};

fn usage() -> ! {
    eprintln!(
        "usage: uoi-trace <trace.jsonl> [--chrome <out.json>] [--no-report]\n\
         \x20      uoi-trace breakdown <trace.jsonl>\n\
         \x20      uoi-trace convergence <trace.jsonl> [--json]\n\
         \x20      uoi-trace numerical <trace.jsonl> [--json]\n\
         \x20      uoi-trace progress <trace.jsonl> [--json]\n\
         \x20      uoi-trace export-metrics <trace.jsonl> [--out <metrics.prom>]\n\
         \x20      uoi-trace snapshot <trace-dir> [<baseline.json>] <name=min_wall_ms>...\n\
         \x20      uoi-trace compare <old.json> <new.json>\n\
         \x20      uoi-trace check <results-dir>/<bench>"
    );
    std::process::exit(2)
}

fn fail(why: impl std::fmt::Display) -> ExitCode {
    eprintln!("uoi-trace: {why}");
    ExitCode::FAILURE
}

fn exit(ok: bool) -> ExitCode {
    ExitCode::from(u8::from(!ok))
}

/// A trace subcommand's options, as `(name, path)` pairs (an empty
/// path for a switch).
type Given = Vec<(String, PathBuf)>;

/// `argv` as one trace path plus the `switches` and the `valued`
/// options, each followed by a path; usage otherwise.
fn parse(argv: &[String], switches: &[&str], valued: &[&str]) -> (PathBuf, Given) {
    let (mut input, mut given) = (None, Vec::new());
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            s if switches.contains(&s) => given.push((a.clone(), PathBuf::new())),
            v if valued.contains(&v) => {
                let value = it.next().unwrap_or_else(|| usage());
                given.push((a.clone(), PathBuf::from(value)));
            }
            _ if input.is_none() && !a.starts_with('-') => input = Some(PathBuf::from(a)),
            _ => usage(),
        }
    }
    (input.unwrap_or_else(|| usage()), given)
}

fn option<'g>(given: &'g Given, name: &str) -> Option<&'g PathBuf> {
    given.iter().find(|(n, _)| n == name).map(|(_, path)| path)
}

/// `convergence`, `numerical`, `progress` and `breakdown`: one report
/// of the trace, rendered, or with `--json` as its JSON document.
fn cmd_report(name: &str, argv: &[String]) -> ExitCode {
    // Every report but the breakdown also prints as JSON.
    let switches = &["--json"][..usize::from(name != "breakdown")];
    let (input, given) = parse(argv, switches, &[]);
    let events = match load_events(&input) {
        Ok(ev) => ev,
        Err(e) => return fail(e),
    };
    let report = match name {
        "convergence" => Some(ConvergenceReport::from_events(&events))
            .filter(|r| r.tasks > 0)
            .map(|r| (r.to_json(), r.render())),
        "numerical" => Some(NumericalHealthReport::from_events(&events))
            .filter(|r| r.events > 0)
            .map(|r| (r.to_json(), r.render())),
        "progress" => replay_progress(&events).map(|s| (s.to_json(), s.render() + "\n")),
        _ => {
            let breakdown = analyze(&build_timeline(&events));
            Some((breakdown.to_json(), breakdown.render()))
        }
    };
    match report {
        None => fail(format!("{} holds no records for `{name}`", input.display())),
        Some((json, _)) if option(&given, "--json").is_some() => {
            println!("{}", json.to_string_pretty());
            ExitCode::SUCCESS
        }
        Some((_, text)) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
    }
}

fn cmd_export_metrics(argv: &[String]) -> ExitCode {
    let (input, given) = parse(argv, &[], &["--out"]);
    let events = match load_events(&input) {
        Ok(ev) => ev,
        Err(e) => return fail(e),
    };
    let text = replay_openmetrics(&events);
    if let Err(e) = gates::openmetrics_gate(&text) {
        return fail(format!(
            "internal error: the exposition fails the lint: {e}"
        ));
    }
    match option(&given, "--out") {
        Some(path) => match std::fs::write(path, &text) {
            Ok(()) => {
                println!("[saved {}]", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => fail(format!("cannot write {}: {e}", path.display())),
        },
        None => {
            print!("{text}");
            ExitCode::SUCCESS
        }
    }
}

/// `snapshot <trace-dir> [<baseline.json>] <name=min_wall_ms>...`: an
/// argument `name=<integer>` is a pipeline, any other after the trace
/// directory the baseline.
fn cmd_snapshot(argv: &[String]) -> ExitCode {
    let Some((trace_dir, rest)) = argv.split_first() else {
        usage()
    };
    let (mut specs, mut baseline) = (Vec::new(), None);
    for a in rest {
        match a.rsplit_once('=').map(|(n, ms)| (n, ms.parse::<u64>())) {
            Some((name, Ok(ms))) => specs.push((name.to_string(), ms)),
            _ if baseline.is_none() => baseline = Some(Path::new(a)),
            _ => usage(),
        }
    }
    let baseline = match baseline.map(read_json).transpose() {
        Ok(b) => b,
        Err(e) => return fail(e),
    };
    let (snapshot, failures) = gates::snapshot(Path::new(trace_dir), &specs, baseline.as_ref());
    if let Err(e) = std::fs::write("BENCH_PIPELINE.json", snapshot.to_string_pretty()) {
        return fail(format!("cannot write BENCH_PIPELINE.json: {e}"));
    }
    for f in &failures {
        eprintln!("GATE: {f}");
    }
    exit(failures.is_empty())
}

fn cmd_compare(argv: &[String]) -> ExitCode {
    let [old, new] = argv else { usage() };
    let [old, new] = [old, new].map(|path| read_json(Path::new(path)));
    match (old, new) {
        (Ok(old), Ok(new)) => {
            let (lines, failed) = gates::compare(&old, &new);
            lines.iter().for_each(|line| println!("{line}"));
            exit(!failed)
        }
        (Err(e), _) | (_, Err(e)) => fail(e),
    }
}

fn cmd_check(argv: &[String]) -> ExitCode {
    let [prefix] = argv else { usage() };
    let mut ok = true;
    for (gate, outcome) in gates::check(Path::new(prefix)) {
        match &outcome {
            Ok(seen) => println!("ok    {gate}: {seen}"),
            Err(why) => println!("FAIL  {gate}: {why}"),
        }
        ok &= outcome.is_ok();
    }
    exit(ok)
}

fn legacy_main(argv: &[String]) -> ExitCode {
    let (input, given) = parse(argv, &["--no-report"], &["--chrome"]);
    let events = match load_events(&input) {
        Ok(ev) => ev,
        Err(e) => return fail(e),
    };
    let name = input.file_name().and_then(|n| n.to_str());
    let stem = name.map_or("trace", |n| n.strip_suffix(".jsonl").unwrap_or(n));
    // Dropped records in the sibling run report of a
    // `<bench>.trace.jsonl` leave the timeline incomplete.
    let report = stem.strip_suffix(".trace").map(|b| format!("{b}.json"));
    if let Some(Ok(report)) = report.map(|r| read_json(&input.with_file_name(r))) {
        if let Err(why) = gates::dropped_records_gate(&report) {
            eprintln!("uoi-trace: WARNING: {why}");
        }
    }
    let default = input.with_file_name(format!("{stem}.chrome.json"));
    let chrome_path = option(&given, "--chrome").unwrap_or(&default);
    if let Err(e) = std::fs::write(chrome_path, to_chrome_trace(&events).to_string_compact()) {
        return fail(format!("cannot write {}: {e}", chrome_path.display()));
    }
    println!(
        "[saved {} — open it at https://ui.perfetto.dev or chrome://tracing]",
        chrome_path.display()
    );
    if option(&given, "--no-report").is_none() {
        println!();
        print!("{}", analyze(&build_timeline(&events)).render());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or(&[]);
    match argv.first().map(|s| s.as_str()) {
        Some(name @ ("convergence" | "numerical" | "progress" | "breakdown")) => {
            cmd_report(name, rest)
        }
        Some("export-metrics") => cmd_export_metrics(rest),
        Some("snapshot") => cmd_snapshot(rest),
        Some("compare") => cmd_compare(rest),
        Some("check") => cmd_check(rest),
        _ => legacy_main(&argv),
    }
}

//! The repository benchmark: UoI_LASSO and UoI_VAR fits timed end to end
//! through the public entry points, a traced run that splits a fit's
//! time by layer, and a paired-run comparison of two checkouts. See
//! README.md for the workloads, the metrics and how to run it.

mod compare;
mod probe;
mod replay;
mod run;
mod speed;
mod stats;
mod trace;
mod traced;
mod workload;

use run::Report;
use std::path::Path;
use std::process::ExitCode;
use uoi_telemetry::Json;
use workload::{Shape, Workload, WORKLOADS};

const USAGE: &str = "usage:
  uoi_benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
  uoi_benchmark --smoke
  uoi_benchmark --compare DIR_A DIR_B [--pairs N] [--workload <name|all>] [--seed N]
workloads: lasso_gram lasso_path lasso_dist var_dist";

/// Default measured seconds per run (the `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 24.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
    pairs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        smoke: false,
        compare: None,
        pairs: 10,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--json" => args.json = Some(value()?),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--pairs" => args.pairs = value()?.parse().map_err(|_| "--pairs needs an integer")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be >= 0".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for name in probe::uoi_env_vars() {
        eprintln!("warning: ignoring {name}; the benchmark sets every configuration value itself");
    }
    let outcome = if let Some((a, b)) = &args.compare {
        compare::compare(
            Path::new(a),
            Path::new(b),
            args.pairs,
            args.workload.as_deref(),
            args.seed,
        )
    } else if args.smoke {
        smoke()
    } else {
        match args.workload.as_deref() {
            None => Err(format!("--workload is required\n{USAGE}")),
            Some("all") => run_all(&args),
            Some(name) => Workload::find(name)
                .ok_or(format!("unknown workload `{name}`\n{USAGE}"))
                .and_then(|w| run_one(&w, &args)),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in this process and print its report. A report is
/// printed even when checks fail; its `correct` field says so.
fn run_one(w: &Workload, args: &Args) -> Result<bool, String> {
    // Every fit computes on one thread: the calling thread, or the one
    // rank thread of a distributed fit's cluster.
    let nproc = probe::nproc();
    if workload::EXEC_RANKS > nproc {
        return Err(format!(
            "{} needs {} threads but only {nproc} cores are available",
            w.name,
            workload::EXEC_RANKS
        ));
    }
    let cpu = probe::pin_to_current_cpu();
    if cpu.is_none() {
        eprintln!("warning: could not pin the run to one CPU; it runs unpinned");
    }
    let report = if args.trace {
        traced::run_traced(w, args.seed, args.seconds, false)?
    } else {
        run::run_untraced(w, args.seed, args.seconds)?
    };
    if let Some(path) = &args.json {
        write_json(path, w, args, (nproc, cpu), &report)?;
    }
    report.print();
    Ok(true)
}

/// The full record of a run: configuration, host, metrics, and the
/// per-fit times (untraced) or spans (traced). `host` is the core count
/// before pinning and the CPU the run was pinned to.
fn write_json(
    path: &str,
    w: &Workload,
    args: &Args,
    (nproc, cpu): (usize, Option<usize>),
    report: &Report,
) -> Result<(), String> {
    let mut fields = vec![
        ("schema", Json::str("uoi_benchmark/v1")),
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_revision", Json::str(probe::git_revision())),
        ("nproc", Json::num(nproc as f64)),
        (
            "pinned_cpu",
            cpu.map_or(Json::Null, |c| Json::num(c as f64)),
        ),
        (
            "llc_bytes",
            probe::llc_bytes().map_or(Json::Null, |b| Json::num(b as f64)),
        ),
        (
            "ignored_env",
            Json::Arr(probe::uoi_env_vars().into_iter().map(Json::Str).collect()),
        ),
        (
            "config",
            Json::obj(vec![
                ("workload", Json::str(format!("{w:?}"))),
                (
                    "uoi",
                    Json::str(match w.shape {
                        Shape::Lasso { .. } => format!("{:?}", w.lasso_config(args.seed)),
                        Shape::Var { .. } => format!("{:?}", w.var_config(args.seed)),
                    }),
                ),
                ("dist", Json::str(format!("{:?}", w.dist_options()))),
            ]),
        ),
        ("result", report.result_line()),
        ("info", run::metrics_json(&report.info)),
    ];
    fields.extend(report.detail.iter().map(|(k, v)| (*k, v.clone())));
    std::fs::write(path, Json::obj(fields).to_string_pretty()).map_err(|e| format!("{path}: {e}"))
}

/// `--workload all`: each workload in its own process, so peak memory is
/// per workload; the last line pools the results.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(path) = &args.json {
            let stem = path.strip_suffix(".json").unwrap_or(path);
            cmd.args(["--json", &format!("{stem}-{}.json", w.name)]);
        }
        let out = cmd.output().map_err(|e| format!("{}: {e}", w.name))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let line = lines
            .pop()
            .and_then(|l| Json::parse(l).ok())
            .ok_or(format!("{} printed no result ({})", w.name, out.status))?;
        for l in lines {
            println!("{l}");
        }
        correct &= line.get("correct") == Some(&Json::Bool(true));
        attempted += line.get("attempted").and_then(Json::as_num).unwrap_or(0.0);
        failed += line.get("failed").and_then(Json::as_num).unwrap_or(0.0);
        if let Some(Json::Obj(pairs)) = line.get("metrics") {
            metrics.extend(
                pairs
                    .iter()
                    .map(|(k, v)| (format!("{}.{k}", w.name), v.clone())),
            );
        }
    }
    let pooled = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted)),
        ("failed", Json::num(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", pooled.to_string_compact());
    Ok(true)
}

/// `--smoke`: every workload at a tiny shape, untraced and traced, in
/// one process. Succeeds only when every check passes.
fn smoke() -> Result<bool, String> {
    let mut ok = true;
    for w in WORKLOADS.map(Workload::smoke) {
        for report in smoke_reports(&w)? {
            report.print();
            ok &= report.correct();
        }
    }
    Ok(ok)
}

fn smoke_reports(w: &Workload) -> Result<[Report; 2], String> {
    Ok([
        run::run_untraced(w, 1, 0.0)?,
        traced::run_traced(w, 1, 0.0, true)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_check() {
        for w in WORKLOADS.map(Workload::smoke) {
            for report in smoke_reports(&w).unwrap() {
                assert!(
                    report.correct(),
                    "{}: {} of {} fits failed",
                    w.name,
                    report.failed,
                    report.attempted
                );
                for m in &report.metrics {
                    assert!(m.value.is_finite(), "{}: {} = {}", w.name, m.name, m.value);
                }
            }
        }
    }

    #[test]
    fn arguments_follow_the_contract() {
        let argv: Vec<String> = [
            "--workload",
            "lasso_gram",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("lasso_gram"), 7, 20.0, true)
        );
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_args(&["--bogus".to_string()]).is_err());
    }
}

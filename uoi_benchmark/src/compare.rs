//! `--compare <dirA> <dirB>`: paired runs of a parent checkout (A) and a
//! change (B), judged per (workload, end-to-end metric) by the bounds in
//! A's `BENCHMARK.json`.
//!
//! Pairs alternate which side runs first and share a seed. A side's
//! median and quartiles are reported; the change "wins" a pair when it
//! reads strictly better (ties count for neither side). The verdict:
//!
//! * improved — the change wins at least 9 of 10 pairs and the medians
//!   differ by more than the parent's interquartile range;
//! * unresolved — otherwise, when the parent's interquartile range is
//!   wider than the bound (unless every change run beats every parent
//!   run);
//! * regressed — the change's median is worse than the parent's by more
//!   than the bound;
//! * unchanged — everything else.

use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use uoi_telemetry::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub command: Vec<String>,
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
}

/// Read the parts of `BENCHMARK.json` the comparison uses.
pub fn parse_spec(text: &str) -> Result<BenchSpec, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let arr = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: `{key}` must be an array"))
    };
    let strings = |items: &[Json], what: &str| -> Result<Vec<String>, String> {
        items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: bad {what}"))
            })
            .collect()
    };
    let command = strings(arr("command")?, "command")?;
    let workloads = arr("workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: workload without a name")?;
    let end_to_end = arr("end_to_end")?
        .iter()
        .map(|m| {
            Some(MetricSpec {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_num()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: end_to_end metric needs name, better and bound")?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_num)
        .ok_or("BENCHMARK.json: `run_seconds` must be a number")?;
    if command.is_empty() {
        return Err("BENCHMARK.json: empty command".into());
    }
    Ok(BenchSpec {
        command,
        run_seconds,
        workloads,
        end_to_end,
    })
}

pub fn verdict(parent: &[f64], change: &[f64], spec: &MetricSpec) -> Verdict {
    let better = |c: f64, p: f64| if spec.lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (ma, mb) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = (if spec.lower_is_better {
        mb - ma
    } else {
        ma - mb
    }) / scale;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if pairs > 0 && better(mb, ma) && wins * 10 >= pairs * 9 && (mb - ma).abs() > q3 - q1 {
        Verdict::Improved
    } else if (q3 - q1) / scale > spec.bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > spec.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// One side's run: its result line, or why there is none.
struct SideRun {
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_side(
    dir: &Path,
    spec: &BenchSpec,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<SideRun, String> {
    let out = Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .current_dir(dir)
        .output()
        .map_err(|e| format!("{}: cannot start {}: {e}", dir.display(), spec.command[0]))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line = Json::parse(last).map_err(|_| {
        format!(
            "{}: {workload} seed {seed} printed no result (exit {})",
            dir.display(),
            out.status
        )
    })?;
    let failed = line.get("failed").and_then(Json::as_num).unwrap_or(1.0) as u64;
    let correct = line.get("correct") == Some(&Json::Bool(true));
    let metrics = match line.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    Ok(SideRun {
        // A run that reports itself incorrect counts as at least one failure.
        failed: if correct { failed } else { failed.max(1) },
        metrics,
    })
}

/// Run `pairs` alternating pairs per workload and print one verdict per
/// (workload, metric). Returns `Ok(true)` when nothing regressed and the
/// change fails no more operations than the parent.
pub fn compare(
    dir_a: &Path,
    dir_b: &Path,
    pairs: usize,
    only: Option<&str>,
    seed0: u64,
) -> Result<bool, String> {
    if pairs < 10 {
        return Err("--compare needs at least 10 pairs".into());
    }
    let read = |d: &Path| {
        std::fs::read_to_string(d.join("BENCHMARK.json"))
            .map_err(|e| format!("{}: {e}", d.display()))
            .and_then(|t| parse_spec(&t))
    };
    let (spec_a, spec_b) = (read(dir_a)?, read(dir_b)?);
    let workloads: Vec<String> = match only {
        Some(w) if w != "all" => vec![w.to_string()],
        _ => spec_a.workloads.clone(),
    };
    let mut ok = true;
    for workload in &workloads {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let (mut failed_a, mut failed_b) = (0, 0);
        for i in 0..pairs {
            let seed = seed0 + i as u64;
            let side = |first_a: bool| {
                let (dir, spec) = if first_a {
                    (dir_a, &spec_a)
                } else {
                    (dir_b, &spec_b)
                };
                run_side(dir, spec, workload, seed, spec_a.run_seconds)
            };
            let (ra, rb) = if i % 2 == 0 {
                let ra = side(true);
                (ra, side(false))
            } else {
                let rb = side(false);
                (side(true), rb)
            };
            let (ra, rb) = (ra?, rb?);
            failed_a += ra.failed;
            failed_b += rb.failed;
            a.push(ra.metrics);
            b.push(rb.metrics);
        }
        println!("compare {workload} failed A={failed_a} B={failed_b}");
        ok &= failed_b <= failed_a;
        for m in &spec_a.end_to_end {
            let col = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (col(&a), col(&b));
            if va.len() != pairs || vb.len() != pairs {
                println!("compare {workload} {} missing from some runs", m.name);
                ok = false;
                continue;
            }
            let v = verdict(&va, &vb, m);
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|(p, c)| if m.lower_is_better { c < p } else { c > p })
                .count();
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            println!(
                "compare {workload} {} A median={} q1={} q3={} B median={} q1={} q3={} wins={wins}/{pairs} {:?}",
                m.name,
                median(&va),
                qa.0,
                qa.1,
                median(&vb),
                qb.0,
                qb.1,
                v
            );
            ok &= v != Verdict::Regressed;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "fit_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn around(center: f64) -> Vec<f64> {
        (0..10).map(|i| center + 0.01 * i as f64).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        assert_eq!(
            verdict(&around(1.0), &around(0.8), &lower(0.1)),
            Verdict::Improved
        );
    }

    #[test]
    fn same_distribution_is_unchanged() {
        assert_eq!(
            verdict(&around(1.0), &around(1.0), &lower(0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn slowdown_past_the_bound_is_regressed() {
        assert_eq!(
            verdict(&around(1.0), &around(1.2), &lower(0.1)),
            Verdict::Regressed
        );
        // Within the bound it is not.
        assert_eq!(
            verdict(&around(1.0), &around(1.05), &lower(0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn noisy_parent_is_unresolved() {
        let parent = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1];
        assert_eq!(
            verdict(&parent, &around(1.2), &lower(0.1)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        // Eight wins and two ties out of ten: below nine tenths.
        let parent = around(1.0);
        let mut change: Vec<f64> = parent.iter().map(|v| v - 0.5).collect();
        change[0] = parent[0];
        change[1] = parent[1];
        assert_eq!(verdict(&parent, &change, &lower(0.1)), Verdict::Unchanged);
    }

    #[test]
    fn higher_is_better_metrics_flip() {
        let spec = MetricSpec {
            name: "selection_f1".into(),
            lower_is_better: false,
            bound: 0.1,
        };
        assert_eq!(
            verdict(&around(0.9), &around(0.7), &spec),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&around(0.7), &around(0.9), &spec),
            Verdict::Improved
        );
    }

    #[test]
    fn spec_parses() {
        let spec = parse_spec(
            r#"{"command": ["cargo", "run"], "paths": ["x"], "run_seconds": 20,
                "workloads": [{"name": "a", "why": "w"}],
                "end_to_end": [{"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap();
        assert_eq!(spec.command, vec!["cargo", "run"]);
        assert_eq!(spec.workloads, vec!["a"]);
        assert_eq!(spec.end_to_end, vec![lower(0.1)]);
        assert_eq!(spec.run_seconds, 20.0);
        assert!(parse_spec("{}").is_err());
    }
}

//! One benchmark run of one workload: set-up, the closed loop of timed
//! fits through the public entry points, the output checks, and the
//! report.

use crate::probe;
use crate::speed::{around, Reference};
use crate::stats::{median, tail_percentile};
use crate::workload::{Data, Exec, FitOut, Quality, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use uoi_telemetry::Json;

/// Set-up regenerates and revalidates every dataset, one round at a
/// time, for at least [`SETUP_MIN_ROUNDS`] rounds and [`SETUP_MIN_S`]
/// seconds (no longer than the run measures); `setup_s` is the median
/// over all of them. A small workload's set-up takes milliseconds, and
/// its median holds still from run to run only over many repeats.
const SETUP_MIN_ROUNDS: usize = 2;
const SETUP_MIN_S: f64 = 1.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What a run prints: the metrics in the final JSON line, plus
/// `info` lines (sample counts, percentiles, failure share) that are
/// printed in the same `workload name value unit` form but are not
/// gated metrics.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<Metric>,
    /// Raw material written only to `--json`: the per-fit times of an
    /// untraced run, the spans of a traced one.
    pub detail: Vec<(&'static str, Json)>,
}

impl Report {
    /// No fit failed, and every metric is a number (JSON has no NaN).
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.info) {
            println!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        println!("{}", self.result_line().to_string_compact());
    }

    /// The final line the benchmark contract reads.
    pub fn result_line(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::obj(vec![
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

pub struct Setup {
    pub data: Vec<Data>,
    pub generate_s: Vec<f64>,
    pub validate_s: Vec<f64>,
    /// Host slowdown around the round each sample was taken in.
    slowdown: Vec<f64>,
}

impl Setup {
    fn totals(&self) -> impl Iterator<Item = f64> + '_ {
        self.generate_s
            .iter()
            .zip(&self.validate_s)
            .map(|(g, v)| g + v)
    }

    /// Median generate + validate time of one dataset, normalised to the
    /// reference host speed.
    pub fn setup_s(&self) -> f64 {
        let normalised: Vec<f64> = self
            .totals()
            .zip(&self.slowdown)
            .map(|(t, s)| t / s)
            .collect();
        median(&normalised)
    }

    /// The same median in wall seconds.
    pub fn setup_wall_s(&self) -> f64 {
        median(&self.totals().collect::<Vec<_>>())
    }
}

/// Generate and validate every dataset of a run that measures for
/// `seconds`, repeatedly, keeping the first copy; the second copy must
/// match it bit for bit. `reference` is timed around every round.
pub fn setup(
    w: &Workload,
    seed: u64,
    seconds: f64,
    reference: &mut Reference,
) -> Result<Setup, String> {
    let mut out = Setup {
        data: Vec::with_capacity(w.datasets),
        generate_s: Vec::new(),
        validate_s: Vec::new(),
        slowdown: Vec::new(),
    };
    let min_s = SETUP_MIN_S.min(seconds);
    let start = Instant::now();
    let mut before = reference.slowdown();
    for round in 0.. {
        if round >= SETUP_MIN_ROUNDS && start.elapsed().as_secs_f64() >= min_s {
            break;
        }
        for j in 0..w.datasets {
            let t = Instant::now();
            let mut data = w.generate(seed, j);
            out.generate_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            data.validate()?;
            out.validate_s.push(t.elapsed().as_secs_f64());
            if round == 0 {
                out.data.push(data);
            } else if round == 1 && data.bits() != out.data[j].bits() {
                return Err(format!("dataset {j} is not reproducible from its seed"));
            }
        }
        let after = reference.slowdown();
        out.slowdown
            .resize(out.generate_s.len(), around(before, after));
        before = after;
    }
    Ok(out)
}

/// A fit through the public entry point; a panic counts as an error.
pub fn guarded_fit(w: &Workload, data: &Data, seed: u64, exec: Exec) -> Result<FitOut, String> {
    catch_unwind(AssertUnwindSafe(|| w.fit(data, seed, exec)))
        .unwrap_or_else(|_| Err("fit panicked".to_string()))
}

/// Per-fit outcomes of a run, folded into failures once every dataset's
/// checks are known.
pub struct Checks {
    /// First successful output per dataset: what later fits must match.
    pub refs: Vec<Option<FitOut>>,
    /// `(dataset, passed so far)` per attempted fit.
    attempts: Vec<(usize, bool)>,
}

impl Checks {
    pub fn new(datasets: usize) -> Self {
        Self {
            refs: vec![None; datasets],
            attempts: Vec::new(),
        }
    }

    /// Record one fit: it fails when it errs or is not bit-identical to
    /// the first fit of the same dataset.
    pub fn record(&mut self, d: usize, out: Result<FitOut, String>) {
        let pass = match out {
            Err(e) => {
                eprintln!("fit on dataset {d} failed: {e}");
                false
            }
            Ok(out) => match &self.refs[d] {
                None => {
                    self.refs[d] = Some(out);
                    true
                }
                Some(first) => first.bit_identical(&out),
            },
        };
        self.attempts.push((d, pass));
    }

    /// `(attempted, failed)`, where a fit also fails when its dataset
    /// failed a dataset-level check (`dataset_ok[d] == false`).
    pub fn tally(&self, dataset_ok: &[bool]) -> (u64, u64) {
        let failed = self
            .attempts
            .iter()
            .filter(|&&(d, pass)| !pass || !dataset_ok[d])
            .count();
        (self.attempts.len() as u64, failed as u64)
    }
}

/// The dataset-level checks on each dataset's reference fit: its
/// `selection_f1` reaches the workload's floor and, for a distributed
/// workload, it agrees with a serial fit made after the timed loop.
/// Returns the per-dataset verdicts, the pooled quality, and the lowest
/// per-dataset `selection_f1`.
pub fn dataset_checks(
    w: &Workload,
    data: &[Data],
    seed: u64,
    refs: &[Option<FitOut>],
) -> (Vec<bool>, Quality, f64) {
    let mut pooled = Quality::default();
    let mut min_f1 = f64::INFINITY;
    let ok = data
        .iter()
        .zip(refs)
        .enumerate()
        .map(|(d, (data, fit))| {
            let Some(fit) = fit else { return false };
            let q = Quality::of(data, fit);
            pooled.add(q);
            min_f1 = min_f1.min(q.f1());
            if q.f1() < w.f1_floor {
                eprintln!(
                    "dataset {d}: selection_f1 {} below floor {}",
                    q.f1(),
                    w.f1_floor
                );
                return false;
            }
            if w.exec == Exec::Dist {
                let agrees =
                    guarded_fit(w, data, seed, Exec::Serial).is_ok_and(|s| fit.agrees_with(&s));
                if !agrees {
                    eprintln!("dataset {d}: distributed fit disagrees with the serial reference");
                }
                return agrees;
            }
            true
        })
        .collect();
    (ok, pooled, min_f1)
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut reference = Reference::new();
    let setup = setup(w, seed, seconds, &mut reference)?;
    let k = setup.data.len();
    let mut checks = Checks::new(k);

    // Warm-up on dataset 0, excluded from fit_s.
    let t = Instant::now();
    checks.record(0, guarded_fit(w, &setup.data[0], seed, w.exec));
    let cold_s = t.elapsed().as_secs_f64();

    // Closed loop: each fit starts when the previous returns and the
    // reference between them is timed, cycling through the datasets;
    // every dataset is fitted at least once.
    let mut times = Vec::new();
    let mut normalised = Vec::new();
    let mut slowdowns = vec![reference.slowdown()];
    let start = Instant::now();
    while times.is_empty() || times.len() + 1 < k || start.elapsed().as_secs_f64() < seconds {
        let d = (times.len() + 1) % k;
        let t = Instant::now();
        let out = guarded_fit(w, &setup.data[d], seed, w.exec);
        let wall = t.elapsed().as_secs_f64();
        let before = slowdowns[slowdowns.len() - 1];
        let after = reference.slowdown();
        times.push(wall);
        normalised.push(wall / around(before, after));
        slowdowns.push(after);
        checks.record(d, out);
    }

    let (dataset_ok, quality, min_f1) = dataset_checks(w, &setup.data, seed, &checks.refs);
    let (attempted, failed) = checks.tally(&dataset_ok);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let mut info = vec![
        metric("fit_s.samples", times.len() as f64, "count"),
        metric("fit_wall_s", mean(&times), "s"),
        metric("fit_wall_s.median", median(&times), "s"),
        metric("setup_wall_s", setup.setup_wall_s(), "s"),
        metric("host_slowdown", median(&slowdowns), "ratio"),
        metric("cold_fit_s", cold_s, "s"),
        metric("failed_frac", failed as f64 / attempted as f64, "ratio"),
        metric("selection_f1.min_dataset", min_f1, "ratio"),
        metric("coef_rel_err", quality.coef_rel_err(), "ratio"),
    ];
    if let Some((pct, v)) = tail_percentile(&times, 10) {
        info.push(metric(&format!("fit_wall_s.p{pct}"), v, "s"));
    }
    let samples = |xs: &[f64]| Json::Arr(xs.iter().map(|&t| Json::num(t)).collect());
    Ok(Report {
        workload: w.name,
        attempted,
        failed,
        metrics: vec![
            // Normalised seconds per fit over the whole timed loop (the
            // inverse of the closed loop's throughput). The host switches
            // between speed states for seconds at a time; the mean moves
            // with the share of time spent in each, where the median jumps
            // from one state to the other.
            metric("fit_s", mean(&normalised), "s"),
            metric("setup_s", setup.setup_s(), "s"),
            metric("peak_rss_mb", probe::peak_rss_mb(), "MiB"),
            metric("selection_f1", quality.f1(), "ratio"),
            metric("coef_err_vs_oracle", quality.coef_err_vs_oracle(), "ratio"),
        ],
        info,
        detail: vec![
            ("fit_wall_s_samples", samples(&times)),
            ("fit_s_samples", samples(&normalised)),
            ("host_slowdown_samples", samples(&slowdowns)),
        ],
    })
}

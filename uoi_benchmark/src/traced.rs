//! The traced run: per-layer metrics. It exercises every layer on the
//! workload's own inputs — a traced replay of the serial fit (data,
//! linalg, solvers, core) alternating with untraced public fits, then
//! traced cluster fits (mpisim) — and folds the spans into
//! per-fit self times. For the serial workloads the cluster fits are
//! extra work done only here; for the distributed ones the replay is
//! the serial reference.

use crate::probe::{self, MachineProbe};
use crate::replay::{replay_lasso, replay_var, ReplayStats};
use crate::run::{guarded_fit, metric, setup, Metric, Report};
use crate::speed::Reference;
use crate::stats::median;
use crate::trace::{self_time_by_name, Span, Tracer};
use crate::workload::{Data, Exec, FitOut, Quality, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use uoi_core::KronStats;
use uoi_mpisim::Cluster;

/// One traced cluster fit.
struct ClusterStats {
    run_s: f64,
    /// Wall seconds of the slowest rank closure.
    busy_max: f64,
    collectives: usize,
    collective_bytes: usize,
    makespan: f64,
    modeled: uoi_mpisim::PhaseLedger,
    /// `KronStats` of the VAR fit: row pulls summed over ranks, and the
    /// slowest rank's modeled Kronecker seconds (both 0 for LASSO).
    kron_rows_pulled: usize,
    kron_modeled_s: f64,
    threads_max: usize,
}

/// Run the workload's distributed fit on a cluster the benchmark drives
/// itself, with a span around the run and one per rank closure.
fn cluster_fit(w: &Workload, data: &Data, seed: u64, t: &mut Tracer) -> (FitOut, ClusterStats) {
    let opts = w.dist_options();
    let cluster =
        Cluster::new(opts.exec_ranks, opts.machine.clone()).modeled_ranks(opts.modeled_ranks);
    t.span("mpisim.run", |t| {
        let t0 = Instant::now();
        let origin = t.now();
        let report = cluster.run(|ctx, world| {
            let start = t0.elapsed().as_secs_f64();
            let threads = probe::threads_now();
            let (out, kron) = match data {
                Data::Lasso(ds) => {
                    let fit = w
                        .lasso_fitter(seed, Exec::Dist)
                        .fit_on(ctx, world, &ds.x, &ds.y);
                    (FitOut::from(fit), KronStats::default())
                }
                Data::Var { series, .. } => {
                    let (fit, kron) = w.var_fitter(seed, Exec::Dist).fit_on(ctx, world, series);
                    (FitOut::from(fit), kron)
                }
            };
            (out, kron, start, t0.elapsed().as_secs_f64(), threads)
        });
        let run_s = t0.elapsed().as_secs_f64();
        let mut busy: Vec<f64> = Vec::new();
        let mut threads_max = 0;
        let (mut kron_rows_pulled, mut kron_modeled_s) = (0, 0.0_f64);
        for (_, kron, start, end, threads) in &report.results {
            t.record("mpisim.rank", origin + start, origin + end);
            busy.push(end - start);
            threads_max = threads_max.max(*threads);
            kron_rows_pulled += kron.rows_pulled;
            kron_modeled_s = kron_modeled_s.max(kron.kron_seconds);
        }
        let stats = ClusterStats {
            run_s,
            busy_max: busy.iter().copied().fold(0.0, f64::max),
            collectives: report.events.len(),
            collective_bytes: report.events.iter().map(|e| e.bytes).sum(),
            makespan: report.makespan(),
            modeled: report.phase_max(),
            kron_rows_pulled,
            kron_modeled_s,
            threads_max,
        };
        let out = report.results.into_iter().next().expect("rank 0 result").0;
        (out, stats)
    })
}

fn replay(w: &Workload, data: &Data, seed: u64, t: &mut Tracer) -> (FitOut, ReplayStats) {
    match data {
        Data::Lasso(ds) => replay_lasso(&w.lasso_config(seed), &ds.x, &ds.y, t),
        Data::Var { series, .. } => replay_var(&w.var_config(seed), series, t),
    }
}

/// Bytes in each triad array: at least four times the last-level cache.
fn triad_array_bytes(smoke: bool) -> u64 {
    if smoke {
        return 8 << 20;
    }
    4 * probe::llc_bytes().unwrap_or(32 << 20)
}

pub fn run_traced(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Report, String> {
    let setup = setup(w, seed, seconds, &mut Reference::new())?;
    let k = setup.data.len();
    let machine = probe::probe(triad_array_bytes(smoke));
    let mut tracer = Tracer::new();
    // One verdict per attempted fit.
    let mut passes: Vec<bool> = Vec::new();

    let t = Instant::now();
    let cold = guarded_fit(w, &setup.data[0], seed, w.exec);
    let cold_s = t.elapsed().as_secs_f64();

    // Half the run: an untraced serial fit, then its traced replay, which
    // must match it bit for bit.
    let mut serial_s = Vec::new();
    let mut replay_s = Vec::new();
    let mut replay_cpu_s = 0.0;
    let mut stats = Vec::new();
    let mut serial_refs: Vec<Option<FitOut>> = vec![None; k];
    let start = Instant::now();
    while replay_s.is_empty() || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let d = replay_s.len() % k;
        let t = Instant::now();
        let serial = guarded_fit(w, &setup.data[d], seed, Exec::Serial);
        serial_s.push(t.elapsed().as_secs_f64());
        tracer.set_fit(replay_s.len() as u32);
        let (cpu0, t) = (probe::thread_cpu_s(), Instant::now());
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            replay(w, &setup.data[d], seed, &mut tracer)
        }));
        replay_s.push(t.elapsed().as_secs_f64());
        replay_cpu_s += probe::thread_cpu_s() - cpu0;
        passes.push(match (serial, replayed) {
            (Ok(serial), Ok((out, st))) => {
                stats.push(st);
                let same = out.bit_identical(&serial);
                if !same {
                    eprintln!("dataset {d}: traced replay differs from the serial fit");
                }
                serial_refs[d].get_or_insert(serial);
                same
            }
            _ => false,
        });
    }

    // The other half: traced cluster fits, each checked against its
    // dataset's serial reference (and, for a distributed workload, bit
    // for bit against the untraced distributed fit of dataset 0).
    let covered = replay_s.len().min(k);
    let mut clusters = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        if i > 0 && start.elapsed().as_secs_f64() >= seconds / 2.0 {
            break;
        }
        let d = i % covered;
        tracer.set_fit((replay_s.len() + i) as u32);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            cluster_fit(w, &setup.data[d], seed, &mut tracer)
        }));
        let Ok((out, st)) = outcome else {
            passes.push(false);
            continue;
        };
        let mut pass = serial_refs[d].as_ref().is_some_and(|s| out.agrees_with(s));
        if w.exec == Exec::Dist && d == 0 {
            pass &= cold.as_ref().is_ok_and(|c| c.bit_identical(&out));
        }
        if !pass {
            eprintln!("dataset {d}: cluster fit disagrees with the reference fits");
        }
        passes.push(pass);
        clusters.push(st);
    }

    // The warm-up fit and the selection floor, on dataset 0.
    let reference = serial_refs[0].as_ref();
    passes.push(match (&cold, reference) {
        (Ok(c), Some(r)) if w.exec == Exec::Serial => c.bit_identical(r),
        (Ok(c), Some(r)) => c.agrees_with(r),
        _ => false,
    });
    passes.push(reference.is_some_and(|r| Quality::of(&setup.data[0], r).f1() >= w.f1_floor));
    let threads_max = clusters.iter().map(|c| c.threads_max).max().unwrap_or(0);
    if stats.is_empty() || clusters.is_empty() {
        return Err("no traced replay or cluster fit succeeded".into());
    }

    let layers = LayerInput {
        spans: tracer.spans(),
        stats: &stats,
        machine: &machine,
        clusters: &clusters,
        replay_s: &replay_s,
        serial_s: &serial_s,
        replay_cpu_s,
        cold_s,
        generate_s: median(&setup.generate_s),
        validate_s: median(&setup.validate_s),
    };
    Ok(Report {
        workload: w.name,
        attempted: passes.len() as u64,
        failed: passes.iter().filter(|p| !**p).count() as u64,
        metrics: layers.metrics(),
        info: vec![
            metric(
                "machine.triad_array_bytes",
                machine.triad_array_bytes as f64,
                "B",
            ),
            metric(
                "machine.llc_bytes",
                probe::llc_bytes().unwrap_or(0) as f64,
                "B",
            ),
            metric("trace.replays", replay_s.len() as f64, "count"),
            metric("trace.cluster_fits", clusters.len() as f64, "count"),
            metric("mpisim.threads_max", threads_max as f64, "count"),
            metric(
                "tieredio.modeled_kron_s",
                clusters[0].kron_modeled_s,
                "model_s",
            ),
        ],
        detail: vec![("spans", tracer.to_json())],
    })
}

struct LayerInput<'a> {
    spans: &'a [Span],
    stats: &'a [ReplayStats],
    machine: &'a MachineProbe,
    clusters: &'a [ClusterStats],
    replay_s: &'a [f64],
    serial_s: &'a [f64],
    replay_cpu_s: f64,
    cold_s: f64,
    generate_s: f64,
    validate_s: f64,
}

impl LayerInput<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let replays = self.replay_s.len() as f64;
        let self_s = self_time_by_name(self.spans);
        let per_fit = |name: &str| self_s.get(name).copied().unwrap_or(0.0) / replays;
        let sum = |f: fn(&ReplayStats) -> f64| self.stats.iter().map(f).sum::<f64>();
        let fit_total: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == "fit")
            .map(|s| s.end - s.start)
            .sum();

        let gram_s = per_fit("linalg.gram");
        let gram_gflops = sum(|s| s.gram_flops) / (gram_s * replays) * 1e-9;
        let gram_fpb = sum(|s| s.gram_flops) / sum(|s| s.gram_bytes);
        let gram_roof = self
            .machine
            .peak_gflops
            .min(self.machine.triad_gbps * gram_fpb);
        let admm_s = per_fit("solvers.admm_path");
        let admm_gbps = sum(|s| s.admm_bytes) / (admm_s * replays) * 1e-9;
        let iters = sum(|s| s.admm_iters as f64);

        let cl =
            |f: fn(&ClusterStats) -> f64| median(&self.clusters.iter().map(f).collect::<Vec<_>>());
        let busy_max = cl(|c| c.busy_max);

        vec![
            metric("data.generate_s", self.generate_s, "s"),
            metric("data.validate_s", self.validate_s, "s"),
            metric("data.resample_s", per_fit("data.resample"), "s"),
            metric("linalg.gram_s", gram_s, "s"),
            metric("linalg.gram_gflops", gram_gflops, "GFLOP/s"),
            metric("linalg.gram_flop_per_byte", gram_fpb, "flop/B"),
            metric(
                "linalg.gram_roofline_frac",
                gram_gflops / gram_roof,
                "ratio",
            ),
            metric("solvers.lambda_path_s", per_fit("solvers.lambda_path"), "s"),
            metric("solvers.factor_s", per_fit("solvers.factor"), "s"),
            metric("solvers.admm_path_s", admm_s, "s"),
            metric(
                "solvers.admm_iters",
                self.stats[0].admm_iters as f64,
                "count",
            ),
            metric("solvers.admm_iter_us", admm_s * replays / iters * 1e6, "us"),
            metric("solvers.admm_gbps_computed", admm_gbps, "GB/s"),
            metric(
                "solvers.admm_roofline_frac",
                admm_gbps / self.machine.triad_gbps,
                "ratio",
            ),
            metric(
                "solvers.nonconverged",
                self.stats[0].nonconverged as f64,
                "count",
            ),
            metric(
                "solvers.kkt_rel_max",
                self.stats.iter().map(|s| s.kkt_rel_max).fold(0.0, f64::max),
                "ratio",
            ),
            metric("solvers.ols_s", per_fit("solvers.ols"), "s"),
            metric("solvers.ols_calls", self.stats[0].ols_calls as f64, "count"),
            metric("core.centre_s", per_fit("core.centre"), "s"),
            metric("core.intersect_s", per_fit("core.intersect"), "s"),
            metric("core.gather_s", per_fit("core.gather"), "s"),
            metric("core.score_s", per_fit("core.score"), "s"),
            metric("core.average_s", per_fit("core.average"), "s"),
            metric(
                "core.family_size",
                self.stats[0].family_size as f64,
                "count",
            ),
            metric("core.union_size", self.stats[0].union_size as f64, "count"),
            metric("core.cold_fit_s", self.cold_s, "s"),
            metric("core.fit_cpu_s", self.replay_cpu_s / replays, "s"),
            metric(
                "core.unattributed_frac",
                per_fit("fit") * replays / fit_total,
                "ratio",
            ),
            metric("mpisim.run_s", cl(|c| c.run_s), "s"),
            metric("mpisim.rank_busy_max_s", busy_max, "s"),
            metric("mpisim.spawn_join_s", cl(|c| c.run_s - c.busy_max), "s"),
            metric(
                "mpisim.collectives",
                self.clusters[0].collectives as f64,
                "count",
            ),
            metric(
                "mpisim.collective_bytes",
                self.clusters[0].collective_bytes as f64,
                "B",
            ),
            metric("mpisim.modeled_makespan_s", cl(|c| c.makespan), "model_s"),
            metric(
                "mpisim.modeled_compute_s",
                cl(|c| c.modeled.compute),
                "model_s",
            ),
            metric("mpisim.modeled_comm_s", cl(|c| c.modeled.comm), "model_s"),
            metric(
                "mpisim.modeled_distribution_s",
                cl(|c| c.modeled.distribution),
                "model_s",
            ),
            metric(
                "mpisim.model_to_measured",
                cl(|c| c.makespan) / busy_max,
                "ratio",
            ),
            metric(
                "tieredio.rows_pulled",
                self.clusters[0].kron_rows_pulled as f64,
                "count",
            ),
            metric("machine.triad_gbps", self.machine.triad_gbps, "GB/s"),
            metric("machine.peak_gflops", self.machine.peak_gflops, "GFLOP/s"),
            metric(
                "trace.overhead_frac",
                median(self.replay_s) / median(self.serial_s) - 1.0,
                "ratio",
            ),
        ]
    }
}

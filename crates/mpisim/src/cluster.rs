//! The cluster runner: spawns executed ranks as threads and aggregates the
//! simulation report.

use crate::comm::{Comm, CommInner, RankCtx};
use crate::fault::{AbortState, FaultPlan, MpiError};
use crate::ledger::{CollectiveEvent, Phase, PhaseLedger};
use crate::model::MachineModel;
use crate::speculation::SpeculationBoard;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;
use uoi_telemetry::{PhaseTotals, RunSummary, Telemetry};

/// Default epoch-watchdog timeout: generous enough that healthy test runs
/// never trip it, short enough that a wedged collective surfaces quickly.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(10);

/// Environment variable overriding the epoch-watchdog timeout, in whole
/// milliseconds. Unset, unparsable, or zero values fall back to
/// [`DEFAULT_WATCHDOG`]; [`Cluster::with_watchdog`] overrides either.
pub const UOI_WATCHDOG_ENV: &str = "UOI_WATCHDOG_MS";

/// Parse a watchdog override in milliseconds. Returns `None` for values
/// that are not a positive integer, so misconfiguration degrades to the
/// default rather than producing a zero-length watchdog that trips on
/// every collective.
pub fn watchdog_from_str(s: &str) -> Option<Duration> {
    match s.trim().parse::<u64>() {
        Ok(ms) if ms > 0 => Some(Duration::from_millis(ms)),
        _ => None,
    }
}

/// The `UOI_WATCHDOG_MS` override currently in the environment, if any.
pub fn watchdog_from_env() -> Option<Duration> {
    std::env::var(UOI_WATCHDOG_ENV)
        .ok()
        .and_then(|s| watchdog_from_str(&s))
}

/// One captured rank failure: which rank died, what it said, and the span
/// stack it was inside when it went down.
#[derive(Debug, Clone)]
pub struct RankFailure {
    /// World rank that failed.
    pub rank: usize,
    /// Stringified panic payload or error message.
    pub message: String,
    /// Open telemetry spans at the moment of failure, outermost first.
    pub span_stack: Vec<String>,
    /// Structured MPI error, when the failure escalated through a
    /// fallible collective (peers observing a crash carry this).
    pub error: Option<MpiError>,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} failed: {}", self.rank, self.message)?;
        if !self.span_stack.is_empty() {
            write!(f, " (in span {})", self.span_stack.join(" > "))?;
        }
        Ok(())
    }
}

/// Error returned by [`Cluster::try_run`] when one or more ranks failed.
/// The caller's process is never aborted; every surviving rank unwound
/// cleanly and all mailboxes were drained.
#[derive(Debug)]
pub struct SimError {
    /// All captured failures, ordered by world rank. The first entry whose
    /// `error` is `None` (or a non-`RankFailed` variant) is the root cause;
    /// peers that observed the crash carry `MpiError::RankFailed`.
    pub failures: Vec<RankFailure>,
    /// Undelivered point-to-point messages drained after the abort.
    pub drained_messages: usize,
    /// Ranks that declared themselves unable to progress (injected
    /// hangs) without dying: the culprits behind otherwise-anonymous
    /// watchdog timeouts. Sorted.
    pub suspected: Vec<usize>,
}

impl SimError {
    /// The root-cause failure: the first rank that died of its own accord
    /// rather than by observing a peer's death.
    pub fn root_cause(&self) -> &RankFailure {
        self.failures
            .iter()
            .find(|f| !matches!(f.error, Some(MpiError::RankFailed { .. })))
            .unwrap_or(&self.failures[0])
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation failed: {} rank(s) down; root cause: {}",
            self.failures.len(),
            self.root_cause()
        )?;
        if self.drained_messages > 0 {
            write!(
                f,
                "; {} undelivered message(s) drained",
                self.drained_messages
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SimError {}

/// A simulated machine partition.
///
/// `exec_ranks` ranks are actually executed (threads moving real data);
/// collective and one-sided costs are evaluated as if the partition had
/// `modeled_ranks` ranks. With `modeled_ranks == exec_ranks` the simulation
/// is a plain (virtually timed) SPMD run; with `modeled_ranks >
/// exec_ranks` each executed rank stands for `modeled/exec` modeled ranks,
/// valid for SPMD programs whose per-rank work is set per the *modeled*
/// decomposition (exactly how the weak/strong scaling harnesses configure
/// their per-rank block sizes).
pub struct Cluster {
    exec_ranks: usize,
    modeled_ranks: usize,
    model: Arc<MachineModel>,
    telemetry: Telemetry,
    fault_plan: Option<FaultPlan>,
    watchdog: Duration,
}

impl Cluster {
    /// A cluster executing (and modeling) `ranks` ranks, under the
    /// `UOI_WATCHDOG_MS` epoch watchdog when that is set and valid and
    /// [`DEFAULT_WATCHDOG`] otherwise.
    pub fn new(ranks: usize, model: MachineModel) -> Self {
        assert!(ranks >= 1, "cluster needs at least one rank");
        Self {
            exec_ranks: ranks,
            modeled_ranks: ranks,
            model: Arc::new(model),
            telemetry: Telemetry::disabled(),
            fault_plan: None,
            watchdog: watchdog_from_env().unwrap_or(DEFAULT_WATCHDOG),
        }
    }

    /// Install a seeded fault-injection plan: rank crashes, stragglers,
    /// window-op faults, and transient I/O failures are derived per rank
    /// from the plan and replayed deterministically.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Override the epoch-watchdog timeout applied to every collective and
    /// point-to-point wait (default: `UOI_WATCHDOG_MS`, else
    /// [`DEFAULT_WATCHDOG`]).
    pub fn with_watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = timeout;
        self
    }

    /// Install a telemetry handle: every rank context records phase
    /// charges, spans, collectives, and window transfers through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Evaluate costs as if the partition had `p` ranks (`p >=
    /// exec_ranks`).
    pub fn modeled_ranks(mut self, p: usize) -> Self {
        assert!(
            p >= self.exec_ranks,
            "modeled ranks ({p}) must be >= executed ranks ({})",
            self.exec_ranks
        );
        self.modeled_ranks = p;
        self
    }

    /// Executed rank count.
    pub fn exec(&self) -> usize {
        self.exec_ranks
    }

    /// Modeled rank count.
    pub fn modeled(&self) -> usize {
        self.modeled_ranks
    }

    /// The machine model.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Run an SPMD program: `f` is invoked once per rank with its context
    /// and the world communicator. Returns the per-rank results plus the
    /// timing report.
    ///
    /// Panics (with a [`SimError`] description, never a process abort) if
    /// any rank fails; use [`Cluster::try_run`] to handle failures as
    /// values.
    pub fn run<T, F>(&self, f: F) -> SimReport<T>
    where
        T: Send,
        F: Fn(&mut RankCtx, &Comm) -> T + Sync,
    {
        match self.try_run(f) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fault-tolerant SPMD run. Each rank body executes under
    /// `catch_unwind`; a panicking rank marks the cluster-wide abort flag
    /// (waking every peer parked in a collective or `recv` with
    /// [`MpiError::RankFailed`]), its mailboxes are drained, and the whole
    /// failure set is returned as a [`SimError`] instead of tearing down
    /// the caller.
    pub fn try_run<T, F>(&self, f: F) -> Result<SimReport<T>, SimError>
    where
        T: Send,
        F: Fn(&mut RankCtx, &Comm) -> T + Sync,
    {
        let identity: Vec<usize> = (0..self.exec_ranks).collect();
        self.try_run_mapped(&identity, f)
    }

    /// SPMD run over a subset of the original world: thread `j` executes
    /// as (dense) rank `j` of a `rank_map.len()`-rank world, but draws
    /// its injected faults from the fault plan entry of *original* rank
    /// `rank_map[j]`. `try_run` is the identity-mapped special case;
    /// [`Cluster::try_run_recovering`] shrinks the map between rounds.
    fn try_run_mapped<T, F>(&self, rank_map: &[usize], f: F) -> Result<SimReport<T>, SimError>
    where
        T: Send,
        F: Fn(&mut RankCtx, &Comm) -> T + Sync,
    {
        let exec = rank_map.len();
        assert!(exec >= 1, "cluster run needs at least one rank");
        let events: Arc<Mutex<Vec<CollectiveEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let abort = Arc::new(AbortState::new());
        let world = Arc::new(CommInner::new(exec, events.clone(), abort.clone()));
        let oversub = self.modeled_ranks as f64 / exec as f64;

        type RankOutcome<T> = Result<(T, PhaseLedger, f64), RankFailure>;
        let mut results: Vec<Option<RankOutcome<T>>> = (0..exec).map(|_| None).collect();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(exec);
            for rank in 0..exec {
                let world = world.clone();
                let abort = abort.clone();
                let model = self.model.clone();
                let f = &f;
                let telemetry = self.telemetry.clone();
                let faults = self
                    .fault_plan
                    .as_ref()
                    .map(|p| p.faults_for(rank_map[rank]))
                    .unwrap_or_default();
                let watchdog = self.watchdog;
                handles.push(scope.spawn(move || -> RankOutcome<T> {
                    let mut ctx =
                        RankCtx::new(rank, exec, model, oversub, telemetry, faults, watchdog);
                    ctx.set_abort(abort.clone());
                    let comm = Comm::from_inner(world, rank);
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        f(&mut ctx, &comm)
                    }));
                    match out {
                        Ok(out) => {
                            let (ledger, clock) = ctx.into_parts();
                            Ok((out, ledger, clock))
                        }
                        Err(payload) => {
                            let (message, error) = describe_panic(payload);
                            // Peers that merely observed the abort must not
                            // overwrite the root cause; original failures
                            // (crash injections, user panics, watchdogs)
                            // raise the flag.
                            if !matches!(error, Some(MpiError::RankFailed { .. })) {
                                abort.mark_failed(rank, message.clone());
                            }
                            Err(RankFailure {
                                rank,
                                message,
                                span_stack: ctx.span_names().to_vec(),
                                error,
                            })
                        }
                    }
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] = Some(match h.join() {
                    Ok(outcome) => outcome,
                    Err(_) => Err(RankFailure {
                        rank,
                        message: "rank thread panicked outside the guarded body".to_string(),
                        span_stack: Vec::new(),
                        error: None,
                    }),
                });
            }
        });

        let suspected = abort.suspects();
        let failures: Vec<RankFailure> = results
            .iter()
            .filter_map(|r| r.as_ref().and_then(|r| r.as_ref().err().cloned()))
            .collect();
        if !failures.is_empty() {
            let drained_messages = world.drain_mailboxes();
            self.telemetry.flush();
            return Err(SimError {
                failures,
                drained_messages,
                suspected,
            });
        }

        let mut report = SimReport {
            results: Vec::with_capacity(exec),
            ledgers: Vec::with_capacity(exec),
            clocks: Vec::with_capacity(exec),
            events: std::mem::take(&mut *events.lock()),
            exec_ranks: exec,
            modeled_ranks: self.modeled_ranks,
        };
        for (rank, r) in results.into_iter().enumerate() {
            // A lost or unreported outcome is a runtime bug, not a rank
            // fault; surface it as a typed internal error rather than an
            // `unwrap` panic so recovery logic can refuse to retry it.
            match r {
                Some(Ok((out, ledger, clock))) => {
                    report.results.push(out);
                    report.ledgers.push(ledger);
                    report.clocks.push(clock);
                }
                Some(Err(_)) | None => {
                    self.telemetry.flush();
                    return Err(SimError {
                        failures: vec![RankFailure {
                            rank,
                            message: format!("internal: outcome for rank {rank} lost after join"),
                            span_stack: Vec::new(),
                            error: Some(MpiError::Internal {
                                what: format!("missing or unreported outcome for rank {rank}"),
                            }),
                        }],
                        drained_messages: world.drain_mailboxes(),
                        suspected,
                    });
                }
            }
        }
        self.telemetry.flush();
        Ok(report)
    }

    /// Shrink-and-recover SPMD execution: run `f`, and when ranks fail,
    /// agree on the culprit set, shrink the world to the survivors
    /// (densely re-ranked), and re-run — up to `max_recovery_rounds`
    /// re-executions. The closure receives a [`RecoveryContext`] telling
    /// it which round it is in, which original ranks are gone, and the
    /// dense-rank → original-rank map, plus a [`RecoveryStash`] that
    /// persists across rounds so survivors can skip redoing work they
    /// already completed (entries stored by newly-failed ranks are
    /// dropped between rounds).
    ///
    /// Failure attribution is deterministic: the culprit set is the
    /// union of self-declared suspects (injected hangs) and ranks that
    /// died of their own accord (crash injections, user panics). A
    /// failure with no attributable culprit — e.g. a pure watchdog
    /// timeout with no suspect, or a typed internal error — is
    /// [`RecoveryError::Fatal`]; exceeding the round budget is
    /// [`RecoveryError::Exhausted`].
    pub fn try_run_recovering<T, F>(
        &self,
        max_recovery_rounds: usize,
        f: F,
    ) -> Result<(SimReport<T>, RecoveryLog), RecoveryError>
    where
        T: Send,
        F: Fn(&mut RankCtx, &Comm, &RecoveryContext) -> T + Sync,
    {
        let stash = RecoveryStash::default();
        let speculation = SpeculationBoard::default();
        let original = self.exec_ranks;
        let mut failed: BTreeSet<usize> = BTreeSet::new();
        let mut rounds: Vec<RecoveryRound> = Vec::new();
        for round in 0..=max_recovery_rounds {
            let rank_map: Vec<usize> = (0..original).filter(|r| !failed.contains(r)).collect();
            let rctx = RecoveryContext {
                round,
                original_world: original,
                rank_map: rank_map.clone(),
                failed: failed.iter().copied().collect(),
                stash: stash.clone(),
                speculation: speculation.clone(),
            };
            match self.try_run_mapped(&rank_map, |ctx, comm| f(ctx, comm, &rctx)) {
                Ok(report) => {
                    rounds.push(RecoveryRound {
                        round,
                        world: rank_map.len(),
                        newly_failed: Vec::new(),
                    });
                    return Ok((report, RecoveryLog { rounds }));
                }
                Err(sim) => {
                    // Internal invariant violations and speculation
                    // divergences (silent corruption) are not rank
                    // faults: re-executing cannot be trusted to help.
                    let fatal = sim.failures.iter().any(|f| {
                        matches!(
                            f.error,
                            Some(MpiError::Internal { .. })
                                | Some(MpiError::SpeculationDivergence { .. })
                        )
                    });
                    let culprits = culprit_ranks(&sim, rank_map.len());
                    if fatal || culprits.is_empty() {
                        return Err(RecoveryError::Fatal(sim));
                    }
                    let newly: Vec<usize> = culprits.iter().map(|&nr| rank_map[nr]).collect();
                    for &orig in &newly {
                        failed.insert(orig);
                        stash.drop_rank(orig);
                    }
                    rounds.push(RecoveryRound {
                        round,
                        world: rank_map.len(),
                        newly_failed: newly,
                    });
                    if failed.len() >= original || round == max_recovery_rounds {
                        return Err(RecoveryError::Exhausted {
                            rounds: round + 1,
                            failed: failed.iter().copied().collect(),
                            last: sim,
                        });
                    }
                }
            }
        }
        unreachable!("recovery loop always returns within its round budget")
    }
}

/// Deterministic failure attribution: self-declared suspects (injected
/// hangs) plus ranks that died of their own accord (no structured error,
/// i.e. crash injections and user panics). Peers' `RankFailed`
/// observations are deliberately *not* trusted: a watchdog-timeout
/// observer marks itself failed to wake the others, so the rank those
/// observations name can be an innocent bystander. Returns dense-rank
/// indices of the world the [`SimError`] came from, sorted.
fn culprit_ranks(sim: &SimError, world: usize) -> Vec<usize> {
    let mut culprits: BTreeSet<usize> = sim
        .suspected
        .iter()
        .copied()
        .filter(|&r| r < world)
        .collect();
    for failure in &sim.failures {
        if failure.error.is_none() {
            culprits.insert(failure.rank);
        }
    }
    culprits.into_iter().collect()
}

/// What one recovering execution saw: passed to the SPMD closure each
/// round by [`Cluster::try_run_recovering`].
#[derive(Debug, Clone)]
pub struct RecoveryContext {
    /// 0 for the initial attempt, `k` for the k-th re-execution.
    pub round: usize,
    /// Rank count of the original (round-0) world.
    pub original_world: usize,
    /// Dense rank → original world rank (identity in round 0).
    pub rank_map: Vec<usize>,
    /// Cumulative failed original ranks, sorted.
    pub failed: Vec<usize>,
    stash: RecoveryStash,
    speculation: SpeculationBoard,
}

impl RecoveryContext {
    /// The original world rank behind dense rank `rank`.
    pub fn original_rank(&self, rank: usize) -> usize {
        self.rank_map[rank]
    }

    /// The cross-round stash surviving ranks persist work into.
    pub fn stash(&self) -> &RecoveryStash {
        &self.stash
    }

    /// The speculation progress board (heartbeats, result publication,
    /// cancellations), shared by every rank of every round and
    /// namespaced internally by `(round, stage)`.
    pub fn speculation(&self) -> &SpeculationBoard {
        &self.speculation
    }

    /// True on re-execution rounds (some rank has already failed).
    pub fn is_recovery_round(&self) -> bool {
        self.round > 0
    }
}

/// Stash entries keyed by (original world rank, label).
type StashMap = HashMap<(usize, String), Vec<f64>>;

/// Cross-round key-value store for [`Cluster::try_run_recovering`]:
/// entries are keyed by (original world rank, label) so the driver can
/// invalidate everything a newly-failed rank stored. Values are flat
/// `f64` buffers — everything the pipelines persist (per-task results,
/// staged data shards) serialises to one.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStash {
    inner: Arc<Mutex<StashMap>>,
}

impl RecoveryStash {
    /// Store `data` under `(original_rank, key)`, replacing any previous
    /// entry.
    pub fn put(&self, original_rank: usize, key: &str, data: Vec<f64>) {
        self.inner
            .lock()
            .insert((original_rank, key.to_string()), data);
    }

    /// Fetch a copy of the entry under `(original_rank, key)`.
    pub fn get(&self, original_rank: usize, key: &str) -> Option<Vec<f64>> {
        self.inner
            .lock()
            .get(&(original_rank, key.to_string()))
            .cloned()
    }

    /// Drop every entry stored by `original_rank` (driver cleanup when
    /// the rank fails: its stashed work cannot be trusted).
    pub fn drop_rank(&self, original_rank: usize) {
        self.inner.lock().retain(|&(r, _), _| r != original_rank);
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the stash is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// One attempted round of a recovering execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRound {
    /// Round index (0 = initial attempt).
    pub round: usize,
    /// World size the round ran with.
    pub world: usize,
    /// Original ranks newly detected failed in this round (empty for
    /// the successful final round).
    pub newly_failed: Vec<usize>,
}

/// The recovery history of a successful [`Cluster::try_run_recovering`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryLog {
    /// All attempted rounds, in order; the last entry is the successful
    /// one.
    pub rounds: Vec<RecoveryRound>,
}

impl RecoveryLog {
    /// Number of re-execution rounds that were needed (0 = fault-free).
    pub fn recovery_rounds(&self) -> usize {
        self.rounds.len().saturating_sub(1)
    }

    /// All original ranks that failed over the whole execution, sorted.
    pub fn failed_ranks(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .rounds
            .iter()
            .flat_map(|r| r.newly_failed.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// Error of [`Cluster::try_run_recovering`].
#[derive(Debug)]
pub enum RecoveryError {
    /// The round budget ran out with ranks still failing. Carries the
    /// cumulative failed set so callers can fall back to degraded-mode
    /// execution over the survivors.
    Exhausted {
        /// Attempts made (1 + re-executions).
        rounds: usize,
        /// Cumulative failed original ranks, sorted.
        failed: Vec<usize>,
        /// The last attempt's failure report.
        last: SimError,
    },
    /// The failure could not be attributed to a specific rank (pure
    /// watchdog timeout with no suspect) or a runtime invariant broke
    /// (typed internal error); re-executing cannot help.
    Fatal(SimError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Exhausted {
                rounds,
                failed,
                last,
            } => write!(
                f,
                "recovery exhausted after {rounds} round(s); failed ranks {failed:?}; last: {last}"
            ),
            RecoveryError::Fatal(e) => write!(f, "unrecoverable failure: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Render a panic payload into a message plus a structured [`MpiError`]
/// when the payload carries one (fallible collectives escalate via
/// `panic_any(MpiError)`).
fn describe_panic(payload: Box<dyn std::any::Any + Send>) -> (String, Option<MpiError>) {
    let payload = match payload.downcast::<MpiError>() {
        Ok(e) => return (e.to_string(), Some(*e)),
        Err(p) => p,
    };
    let payload = match payload.downcast::<String>() {
        Ok(s) => return (*s, None),
        Err(p) => p,
    };
    match payload.downcast::<&'static str>() {
        Ok(s) => ((*s).to_string(), None),
        Err(_) => ("opaque panic payload".to_string(), None),
    }
}

fn phase_totals(l: &PhaseLedger) -> PhaseTotals {
    PhaseTotals {
        compute: l.compute,
        comm: l.comm,
        distribution: l.distribution,
        io: l.io,
    }
}

/// Result of a cluster run: per-rank outputs, phase ledgers, final virtual
/// clocks, and the collective event log.
pub struct SimReport<T> {
    /// Per-rank return values, indexed by world rank.
    pub results: Vec<T>,
    /// Per-rank phase accounting.
    pub ledgers: Vec<PhaseLedger>,
    /// Per-rank final virtual clocks (== `ledgers[r].total()`).
    pub clocks: Vec<f64>,
    /// All recorded collectives (one entry per collective, leader-written).
    pub events: Vec<CollectiveEvent>,
    /// Ranks actually executed.
    pub exec_ranks: usize,
    /// Ranks the cost model was evaluated at.
    pub modeled_ranks: usize,
}

impl<T> SimReport<T> {
    /// Virtual makespan: the slowest rank's clock.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Slowest rank per phase (elementwise max of ledgers) — the quantity
    /// the paper's stacked runtime bars report.
    pub fn phase_max(&self) -> PhaseLedger {
        self.ledgers
            .iter()
            .copied()
            .fold(PhaseLedger::default(), PhaseLedger::max)
    }

    /// Mean ledger across ranks.
    pub fn phase_mean(&self) -> PhaseLedger {
        let n = self.ledgers.len().max(1) as f64;
        let sum = self
            .ledgers
            .iter()
            .copied()
            .fold(PhaseLedger::default(), |a, b| a + b);
        PhaseLedger {
            compute: sum.compute / n,
            comm: sum.comm / n,
            distribution: sum.distribution / n,
            io: sum.io / n,
        }
    }

    /// The allreduce events only (Fig 5 input).
    pub fn allreduce_events(&self) -> impl Iterator<Item = &CollectiveEvent> {
        self.events.iter().filter(|e| e.op == "allreduce")
    }

    /// The serialisable cluster summary for a `RunReport` (schema
    /// `uoi.run_report/v1`): makespan, per-phase max/mean, collective
    /// count, and total collective bytes.
    pub fn run_summary(&self) -> RunSummary {
        RunSummary {
            exec_ranks: self.exec_ranks,
            modeled_ranks: self.modeled_ranks,
            makespan: self.makespan(),
            phase_max: phase_totals(&self.phase_max()),
            phase_mean: phase_totals(&self.phase_mean()),
            collectives: self.events.len(),
            collective_bytes: self.events.iter().map(|e| e.bytes).sum(),
        }
    }

    /// Render a small breakdown table (labels follow the paper's legends).
    pub fn breakdown_table(&self) -> String {
        let m = self.phase_max();
        let mut s = String::new();
        s.push_str(&format!(
            "ranks: executed={} modeled={}  makespan={:.4}s\n",
            self.exec_ranks,
            self.modeled_ranks,
            self.makespan()
        ));
        for ph in Phase::ALL {
            s.push_str(&format!("  {:<14} {:>12.4}s\n", ph.label(), m.get(ph)));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Phase;
    use crate::window::Window;

    fn det_cluster(n: usize) -> Cluster {
        Cluster::new(n, MachineModel::deterministic())
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let report = det_cluster(8).run(|ctx, world| {
            let mut v = vec![world.rank() as f64 + 1.0, 1.0];
            world.allreduce_sum(ctx, &mut v);
            v
        });
        for v in &report.results {
            assert_eq!(v[0], 36.0); // 1+2+...+8
            assert_eq!(v[1], 8.0);
        }
        assert_eq!(report.allreduce_events().count(), 1);
    }

    #[test]
    fn repeated_collectives_reuse_state() {
        let report = det_cluster(4).run(|ctx, world| {
            let mut total = 0.0;
            for round in 0..10 {
                let mut v = vec![(world.rank() + round) as f64];
                world.allreduce_sum(ctx, &mut v);
                total += v[0];
            }
            total
        });
        // Sum over rounds of (0+1+2+3 + 4*round) = 10*6 + 4*45 = 240.
        for &t in &report.results {
            assert_eq!(t, 240.0);
        }
        assert_eq!(report.allreduce_events().count(), 10);
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let report = det_cluster(5).run(|ctx, world| {
            let mut v = if world.rank() == 3 {
                vec![7.0, 8.0]
            } else {
                vec![0.0, 0.0]
            };
            world.bcast(ctx, 3, &mut v);
            v
        });
        for v in &report.results {
            assert_eq!(v, &vec![7.0, 8.0]);
        }
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        let report = det_cluster(4).run(|ctx, world| {
            let mine = vec![world.rank() as f64; 3];
            let gathered = world.gather(ctx, 0, &mine);
            if world.rank() == 0 {
                let g = gathered.as_ref().unwrap();
                for (r, payload) in g.iter().enumerate() {
                    assert_eq!(payload, &vec![r as f64; 3]);
                }
            } else {
                assert!(gathered.is_none());
            }
            // Scatter back doubled values.
            let chunks = gathered.map(|g| {
                g.into_iter()
                    .map(|p| p.into_iter().map(|x| x * 2.0).collect())
                    .collect()
            });
            world.scatter(ctx, 0, chunks)
        });
        for (r, v) in report.results.iter().enumerate() {
            assert_eq!(v, &vec![2.0 * r as f64; 3]);
        }
    }

    #[test]
    fn allgather_collects_everything() {
        let report =
            det_cluster(3).run(|ctx, world| world.allgather(ctx, &[world.rank() as f64 * 10.0]));
        for all in &report.results {
            assert_eq!(all, &vec![vec![0.0], vec![10.0], vec![20.0]]);
        }
    }

    #[test]
    fn split_forms_correct_groups() {
        let report = det_cluster(6).run(|ctx, world| {
            // Colors: 0,1,0,1,0,1 — two groups of 3.
            let color = (world.rank() % 2) as i64;
            let sub = world.split(ctx, color, world.rank() as i64);
            let mut v = vec![world.rank() as f64];
            sub.allreduce_sum(ctx, &mut v);
            (sub.rank(), sub.size(), v[0])
        });
        for (wr, &(sr, ss, sum)) in report.results.iter().enumerate() {
            assert_eq!(ss, 3);
            assert_eq!(sr, wr / 2);
            let expected = if wr % 2 == 0 {
                0.0 + 2.0 + 4.0
            } else {
                1.0 + 3.0 + 5.0
            };
            assert_eq!(sum, expected);
        }
    }

    #[test]
    fn nested_split_three_levels() {
        // 8 ranks -> 2 groups of 4 -> each into 2 groups of 2: the
        // P_B x P_lambda x ADMM decomposition shape.
        let report = det_cluster(8).run(|ctx, world| {
            let b_color = (world.rank() / 4) as i64;
            let b_comm = world.split(ctx, b_color, world.rank() as i64);
            let l_color = (b_comm.rank() / 2) as i64;
            let l_comm = b_comm.split(ctx, l_color, b_comm.rank() as i64);
            let mut v = vec![1.0];
            l_comm.allreduce_sum(ctx, &mut v);
            (l_comm.size(), v[0])
        });
        for &(s, sum) in &report.results {
            assert_eq!(s, 2);
            assert_eq!(sum, 2.0);
        }
    }

    #[test]
    fn window_get_reads_remote_data() {
        let report = det_cluster(4).run(|ctx, world| {
            // Rank 0 exposes [100, 101, ..., 109]; everyone reads a slice.
            let local = if world.rank() == 0 {
                (100..110).map(|x| x as f64).collect()
            } else {
                Vec::new()
            };
            let win = Window::create(ctx, world, local);
            let got = win.get(ctx, 0, 2..5);
            win.fence(ctx, world);
            got
        });
        for v in &report.results {
            assert_eq!(v, &vec![102.0, 103.0, 104.0]);
        }
        // Window serialisation must show up as distribution time.
        let l = report.phase_max();
        assert!(l.distribution > 0.0);
    }

    #[test]
    fn window_put_then_local_read() {
        let report = det_cluster(3).run(|ctx, world| {
            let local = vec![0.0; 3];
            let win = Window::create(ctx, world, local);
            // Each rank writes its id into slot `rank` of rank 0's buffer.
            win.put(ctx, 0, world.rank(), &[world.rank() as f64 + 1.0]);
            win.fence(ctx, world);
            win.local_copy(0)
        });
        for v in &report.results {
            assert_eq!(v, &vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn clock_equals_ledger_total() {
        let report = det_cluster(4).run(|ctx, world| {
            ctx.compute_flops(1e6, 1e9);
            let mut v = vec![1.0; 64];
            world.allreduce_sum(ctx, &mut v);
            ctx.compute_membound(1e5);
            world.barrier(ctx);
            0
        });
        for (c, l) in report.clocks.iter().zip(&report.ledgers) {
            assert!(
                (c - l.total()).abs() < 1e-12,
                "clock {c} != ledger {}",
                l.total()
            );
        }
    }

    #[test]
    fn clocks_nondecreasing_and_synchronised() {
        let report = det_cluster(6).run(|ctx, world| {
            // Rank-dependent compute then allreduce: all clocks must end
            // >= the slowest rank's pre-collective clock.
            ctx.compute_flops(1e6 * (world.rank() as f64 + 1.0), 1e9);
            let pre = ctx.clock();
            let mut v = vec![0.0];
            world.allreduce_sum(ctx, &mut v);
            (pre, ctx.clock())
        });
        let max_pre = report.results.iter().map(|&(p, _)| p).fold(0.0, f64::max);
        for &(_, post) in &report.results {
            assert!(post >= max_pre, "collective must synchronise clocks");
        }
    }

    #[test]
    fn modeled_ranks_increase_collective_cost() {
        let small = det_cluster(4).run(|ctx, world| {
            let mut v = vec![1.0; 1024];
            world.allreduce_sum(ctx, &mut v);
            ctx.ledger().get(Phase::Comm)
        });
        let big = Cluster::new(4, MachineModel::deterministic())
            .modeled_ranks(1 << 17)
            .run(|ctx, world| {
                let mut v = vec![1.0; 1024];
                world.allreduce_sum(ctx, &mut v);
                ctx.ledger().get(Phase::Comm)
            });
        let s = small.results.iter().copied().fold(0.0, f64::max);
        let b = big.results.iter().copied().fold(0.0, f64::max);
        assert!(
            b > s,
            "modeled 131072 ranks must cost more than 4: {b} vs {s}"
        );
    }

    #[test]
    fn window_contention_scales_with_oversubscription() {
        let run = |modeled: usize| {
            Cluster::new(8, MachineModel::deterministic())
                .modeled_ranks(modeled)
                .run(|ctx, world| {
                    let local = if world.rank() == 0 {
                        vec![1.0; 4096]
                    } else {
                        vec![]
                    };
                    let win = Window::create(ctx, world, local);
                    let _ = win.get(ctx, 0, 0..4096);
                    win.fence(ctx, world);
                    ctx.ledger().get(Phase::Distribution)
                })
                .results
                .iter()
                .copied()
                .fold(0.0, f64::max)
        };
        let base = run(8);
        let over = run(8 * 64);
        assert!(
            over > 10.0 * base,
            "reader-window serialisation must blow up: {over} vs {base}"
        );
    }

    #[test]
    fn noise_produces_min_max_spread() {
        let mut model = MachineModel::knl();
        model.noise.sigma = 0.3;
        let report = Cluster::new(8, model).run(|ctx, world| {
            let mut v = vec![1.0; 2048];
            world.allreduce_sum(ctx, &mut v);
        });
        let ev = report.allreduce_events().next().expect("one event");
        assert!(ev.t_max > ev.t_min, "noise must spread costs");
        assert!(ev.t_min > 0.0);
    }

    #[test]
    fn p2p_send_recv() {
        let report = det_cluster(4).run(|ctx, world| {
            // Ring: rank r sends to (r+1) % size, receives from the left.
            let right = (world.rank() + 1) % world.size();
            world.send(ctx, right, 7, &[world.rank() as f64 * 10.0]);
            let (src, payload) = world.recv(ctx, None, Some(7));
            (src, payload[0])
        });
        for (r, &(src, val)) in report.results.iter().enumerate() {
            let left = (r + 4 - 1) % 4;
            assert_eq!(src, left);
            assert_eq!(val, left as f64 * 10.0);
        }
    }

    #[test]
    fn p2p_tag_and_source_matching() {
        let report = det_cluster(2).run(|ctx, world| {
            if world.rank() == 0 {
                world.send(ctx, 1, 5, &[5.0]);
                world.send(ctx, 1, 9, &[9.0]);
                Vec::new()
            } else {
                // Receive out of order: tag 9 first.
                let (_, a) = world.recv(ctx, Some(0), Some(9));
                let (_, b) = world.recv(ctx, Some(0), Some(5));
                vec![a[0], b[0]]
            }
        });
        assert_eq!(report.results[1], vec![9.0, 5.0]);
    }

    #[test]
    fn iallreduce_overlaps_compute() {
        // Blocking: compute then allreduce sequentially.
        let blocking = det_cluster(4)
            .modeled_ranks(65_536)
            .run(|ctx, world| {
                let mut v = vec![1.0; 1 << 16];
                world.allreduce_sum(ctx, &mut v);
                ctx.compute_flops(1e9, 1e8);
                ctx.clock()
            })
            .makespan();
        // Overlapped: the same compute hides the allreduce.
        let overlapped = det_cluster(4)
            .modeled_ranks(65_536)
            .run(|ctx, world| {
                let mut v = vec![1.0; 1 << 16];
                let pending = world.iallreduce_sum(ctx, &mut v);
                ctx.compute_flops(1e9, 1e8);
                pending.wait(ctx);
                assert_eq!(v[0], 4.0, "data must already be reduced");
                ctx.clock()
            })
            .makespan();
        assert!(
            overlapped < blocking - 1e-6,
            "overlap must hide communication: {overlapped} vs {blocking}"
        );
        // Fully hidden: the overlapped makespan is just the compute time.
        let compute_only = MachineModel::deterministic().compute_time(1e9, 1e8);
        assert!((overlapped - compute_only).abs() / compute_only < 0.5);
    }

    #[test]
    fn single_rank_cluster_works() {
        let report = det_cluster(1).run(|ctx, world| {
            let mut v = vec![5.0];
            world.allreduce_sum(ctx, &mut v);
            world.barrier(ctx);
            let g = world.gather(ctx, 0, &[1.0]).unwrap();
            assert_eq!(g.len(), 1);
            v[0]
        });
        assert_eq!(report.results[0], 5.0);
    }
}

//! Deterministic fault injection and the fault-tolerance primitives the
//! runtime is built on.
//!
//! The paper's target regime (278,528 cores on Cori) makes rank crashes,
//! stragglers, and transient I/O errors routine events, not exceptions.
//! This module provides:
//!
//! * [`FaultPlan`] — a seeded, fully deterministic description of the
//!   faults to inject into a run: rank crashes at a given collective
//!   step, per-rank straggler slowdown factors, dropped/corrupted
//!   one-sided window operations, and transient I/O error budgets.
//!   The same seed always produces the same fault schedule, so every
//!   fault-injection test is reproducible bit-for-bit.
//! * [`MpiError`] — the structured error surviving ranks observe when a
//!   peer dies or a collective times out, instead of a condvar deadlock.
//! * `AbortState` — the cluster-wide failure flag a dying rank raises
//!   (via the `catch_unwind` wrapper in [`crate::cluster::Cluster`])
//!   so peers blocked in collectives wake promptly.
//! * `FtBarrier` — a generation-counting barrier whose waits poll the
//!   abort flag in short slices under a configurable watchdog timeout.
//!   A dead or absent peer surfaces as [`MpiError::RankFailed`] or
//!   [`MpiError::WatchdogTimeout`]; the runtime never hangs.

use crate::model::SplitMix64;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often a blocked rank re-checks the abort flag while waiting in a
/// barrier or receive. Bounds failure-detection latency.
pub(crate) const WAIT_SLICE: Duration = Duration::from_millis(2);

/// Structured failure surfaced by the fault-tolerant collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// A peer rank died (panicked or was fault-injected) while this
    /// rank was inside the collective identified by `phase`.
    RankFailed {
        /// The rank that failed (not the observer).
        rank: usize,
        /// The operation the *observer* was blocked in ("allreduce",
        /// "barrier", "recv", ...).
        phase: &'static str,
    },
    /// No failure was reported but peers did not arrive within the
    /// watchdog timeout — an SPMD protocol mismatch or a hung rank.
    WatchdogTimeout {
        /// The operation the observer was blocked in.
        phase: &'static str,
        /// How long it waited, in milliseconds.
        waited_ms: u64,
    },
    /// The communicator was revoked (ULFM `MPI_Comm_revoke` analogue):
    /// a survivor invalidated it so every pending and future collective
    /// on it fails fast. Recovery code agrees on the failed set and
    /// shrinks to a fresh communicator instead of retrying on this one.
    Revoked {
        /// The operation the observer was blocked in when the
        /// revocation surfaced.
        phase: &'static str,
    },
    /// An internal runtime invariant was violated (lost rank result,
    /// missing window registration, poisoned channel). Carried as a
    /// typed error instead of a bare `unwrap()` panic so recovery
    /// logic can distinguish runtime bugs from injected rank faults.
    Internal {
        /// What went wrong.
        what: String,
    },
    /// A speculative replica of a deterministic task completed with a
    /// payload that was not bitwise equal to the owner's. UoI tasks are
    /// pure functions of (data, config, task index), so a divergence is
    /// never a scheduling artifact — it is silent corruption, and
    /// re-executing cannot be trusted to fix it.
    SpeculationDivergence {
        /// The pipeline stage label ("lasso.sel", "var.est", ...).
        stage: String,
        /// The diverging task index.
        task: usize,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::RankFailed { rank, phase } => {
                write!(f, "rank {rank} failed while peers were in {phase}")
            }
            MpiError::WatchdogTimeout { phase, waited_ms } => {
                write!(f, "watchdog timeout after {waited_ms}ms in {phase}")
            }
            MpiError::Revoked { phase } => {
                write!(f, "communicator revoked while in {phase}")
            }
            MpiError::Internal { what } => {
                write!(f, "internal runtime error: {what}")
            }
            MpiError::SpeculationDivergence { stage, task } => {
                write!(
                    f,
                    "speculative replica diverged from owner result for task {task} in {stage}"
                )
            }
        }
    }
}

impl std::error::Error for MpiError {}

/// The faults one rank experiences in a run, derived from a
/// [`FaultPlan`] by [`FaultPlan::faults_for`].
#[derive(Debug, Clone)]
pub struct RankFaults {
    /// Panic at entry of the N-th fault-eligible collective op
    /// (0-based, counted per rank).
    pub crash_at_step: Option<u64>,
    /// Hang (stop participating) at entry of the N-th fault-eligible
    /// collective op: the rank marks itself suspect, waits for the
    /// cluster abort/watchdog, then dies. Peers observe a
    /// [`MpiError::WatchdogTimeout`]; the recovery driver identifies
    /// the hung rank through the suspect set.
    pub hang_at_step: Option<u64>,
    /// Multiplier applied to this rank's local compute and I/O charges
    /// (1.0 = healthy, 3.0 = three times slower).
    pub straggle_factor: f64,
    /// One-sided window op indices (0-based, per rank) whose payload is
    /// silently dropped (reads return zeros, writes do not land).
    pub window_drop_ops: BTreeSet<u64>,
    /// Window op indices whose payload is corrupted by a deterministic
    /// single bit flip in the first element.
    pub window_corrupt_ops: BTreeSet<u64>,
    /// Number of injected transient I/O failures this rank's tiered
    /// reads will observe before succeeding.
    pub transient_io_failures: u64,
}

impl Default for RankFaults {
    fn default() -> Self {
        Self {
            crash_at_step: None,
            hang_at_step: None,
            straggle_factor: 1.0,
            window_drop_ops: BTreeSet::new(),
            window_corrupt_ops: BTreeSet::new(),
            transient_io_failures: 0,
        }
    }
}

impl RankFaults {
    /// A healthy rank (no injected faults).
    pub fn healthy() -> Self {
        Self::default()
    }
}

/// A seeded, deterministic fault schedule for a cluster run.
///
/// Build explicitly (`crash_rank`, `straggler`, ...) or derive
/// pseudo-randomly from the seed (`with_random_crash`); either way the
/// schedule is a pure function of the plan, so reruns inject identical
/// faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    crashes: Vec<(usize, u64)>,
    hangs: Vec<(usize, u64)>,
    stragglers: Vec<(usize, f64)>,
    window_drops: Vec<(usize, u64)>,
    window_corrupts: Vec<(usize, u64)>,
    transient_io: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// An empty plan carrying `seed` for the `with_random_*` derivations.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Crash `rank` at its `step`-th collective operation (0-based).
    pub fn crash_rank(mut self, rank: usize, step: u64) -> Self {
        self.crashes.push((rank, step));
        self
    }

    /// Hang `rank` at its `step`-th collective operation (0-based): the
    /// rank stops participating without dying, the straggler-timeout
    /// failure mode. Peers see the epoch watchdog expire; the hung rank
    /// marks itself suspect so recovery can exclude it deterministically.
    pub fn hang_rank(mut self, rank: usize, step: u64) -> Self {
        self.hangs.push((rank, step));
        self
    }

    /// Slow `rank`'s local compute/I/O down by `factor` (> 1.0).
    pub fn straggler(mut self, rank: usize, factor: f64) -> Self {
        assert!(factor > 0.0, "straggler factor must be positive");
        self.stragglers.push((rank, factor));
        self
    }

    /// Drop `rank`'s `op`-th one-sided window operation (0-based).
    pub fn drop_window_op(mut self, rank: usize, op: u64) -> Self {
        self.window_drops.push((rank, op));
        self
    }

    /// Corrupt `rank`'s `op`-th one-sided window operation.
    pub fn corrupt_window_op(mut self, rank: usize, op: u64) -> Self {
        self.window_corrupts.push((rank, op));
        self
    }

    /// Give `rank` a budget of `count` injected transient I/O failures.
    pub fn transient_io(mut self, rank: usize, count: u64) -> Self {
        self.transient_io.push((rank, count));
        self
    }

    /// Derive one crash (rank, step) pseudo-randomly from the seed:
    /// a uniformly chosen rank in `0..world` crashes at a step in
    /// `0..max_step`.
    pub fn with_random_crash(self, world: usize, max_step: u64) -> Self {
        assert!(world > 0 && max_step > 0);
        let mut rng = SplitMix64::new(self.seed ^ 0xC5A5_1D4E_F00D_0001);
        let rank = (rng.next_u64() % world as u64) as usize;
        let step = rng.next_u64() % max_step;
        self.crash_rank(rank, step)
    }

    /// Derive one straggler pseudo-randomly from the seed, with a
    /// slowdown factor in `[1.5, 1.5 + spread)`.
    pub fn with_random_straggler(self, world: usize, spread: f64) -> Self {
        assert!(world > 0);
        let mut rng = SplitMix64::new(self.seed ^ 0xC5A5_1D4E_F00D_0002);
        let rank = (rng.next_u64() % world as u64) as usize;
        let factor = 1.5 + rng.next_f64() * spread.max(0.0);
        self.straggler(rank, factor)
    }

    /// Derive `count` dropped window ops pseudo-randomly from the seed,
    /// spread over ranks `0..world` and op indices `0..max_op`.
    pub fn with_random_window_drops(mut self, world: usize, max_op: u64, count: usize) -> Self {
        assert!(world > 0 && max_op > 0);
        let mut rng = SplitMix64::new(self.seed ^ 0xC5A5_1D4E_F00D_0003);
        for _ in 0..count {
            let rank = (rng.next_u64() % world as u64) as usize;
            let op = rng.next_u64() % max_op;
            self.window_drops.push((rank, op));
        }
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.hangs.is_empty()
            && self.stragglers.is_empty()
            && self.window_drops.is_empty()
            && self.window_corrupts.is_empty()
            && self.transient_io.is_empty()
    }

    /// The faults `rank` experiences under this plan.
    pub fn faults_for(&self, rank: usize) -> RankFaults {
        let mut out = RankFaults::default();
        for &(r, step) in &self.crashes {
            if r == rank {
                // Earliest crash wins if several were scheduled.
                out.crash_at_step = Some(out.crash_at_step.map_or(step, |s: u64| s.min(step)));
            }
        }
        for &(r, step) in &self.hangs {
            if r == rank {
                out.hang_at_step = Some(out.hang_at_step.map_or(step, |s: u64| s.min(step)));
            }
        }
        for &(r, f) in &self.stragglers {
            if r == rank {
                out.straggle_factor *= f;
            }
        }
        for &(r, op) in &self.window_drops {
            if r == rank {
                out.window_drop_ops.insert(op);
            }
        }
        for &(r, op) in &self.window_corrupts {
            if r == rank {
                out.window_corrupt_ops.insert(op);
            }
        }
        for &(r, n) in &self.transient_io {
            if r == rank {
                out.transient_io_failures += n;
            }
        }
        out
    }
}

/// Cluster-wide failure flag. A dying rank (or the cluster's panic
/// handler on its behalf) marks itself failed; every blocked wait polls
/// the flag and converts it into [`MpiError::RankFailed`].
#[derive(Debug, Default)]
pub(crate) struct AbortState {
    aborted: AtomicBool,
    revoked: AtomicBool,
    failed: Mutex<Vec<(usize, String)>>,
    /// Ranks that declared themselves unable to make progress (injected
    /// hangs) without dying outright. The recovery driver treats them
    /// as the culprits behind otherwise-anonymous watchdog timeouts.
    suspects: Mutex<BTreeSet<usize>>,
}

impl AbortState {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record that `rank` died with `reason` and raise the abort flag.
    pub(crate) fn mark_failed(&self, rank: usize, reason: String) {
        self.failed.lock().push((rank, reason));
        self.aborted.store(true, Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// The first recorded failure, if any.
    pub(crate) fn first_failure(&self) -> Option<usize> {
        self.failed.lock().first().map(|&(r, _)| r)
    }

    /// All ranks recorded as failed, in report order.
    pub(crate) fn failed_ranks(&self) -> Vec<usize> {
        self.failed.lock().iter().map(|&(r, _)| r).collect()
    }

    /// Declare `rank` suspect: unable to progress but not (yet) dead.
    pub(crate) fn mark_suspect(&self, rank: usize) {
        self.suspects.lock().insert(rank);
    }

    /// The current suspect set, sorted.
    pub(crate) fn suspects(&self) -> Vec<usize> {
        self.suspects.lock().iter().copied().collect()
    }

    /// Revoke the communicator tree sharing this state: every pending
    /// and future wait fails fast with [`MpiError::Revoked`].
    pub(crate) fn revoke(&self) {
        self.revoked.store(true, Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::SeqCst)
    }
}

struct BarrierState {
    count: usize,
    generation: u64,
}

/// A reusable barrier whose waits are failure-aware: instead of parking
/// unconditionally, each waiter sleeps in [`WAIT_SLICE`] increments,
/// checking the cluster [`AbortState`] and its watchdog deadline at
/// every wakeup. The last arriver of a generation is the leader.
pub(crate) struct FtBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

impl FtBarrier {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Wait for all `n` participants. Returns `Ok(true)` on the leader
    /// (last arriver), `Ok(false)` elsewhere; `Err` if a peer failed or
    /// the watchdog expired first. After an `Err` the communicator is
    /// poisoned: in-flight collective state is undefined and the caller
    /// must unwind out of the SPMD program.
    pub(crate) fn wait(
        &self,
        abort: &AbortState,
        watchdog: Duration,
        phase: &'static str,
    ) -> Result<bool, MpiError> {
        let mut st = self.state.lock();
        let gen = st.generation;
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cvar.notify_all();
            return Ok(true);
        }
        let start = Instant::now();
        loop {
            if st.generation != gen {
                return Ok(false);
            }
            if abort.is_revoked() {
                st.count = st.count.saturating_sub(1);
                return Err(MpiError::Revoked { phase });
            }
            if abort.is_aborted() {
                // Undo our arrival so the generation count is not left
                // skewed for waiters that raced in after the abort.
                st.count = st.count.saturating_sub(1);
                let rank = abort.first_failure().unwrap_or(usize::MAX);
                return Err(MpiError::RankFailed { rank, phase });
            }
            if start.elapsed() >= watchdog {
                st.count = st.count.saturating_sub(1);
                return Err(MpiError::WatchdogTimeout {
                    phase,
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            self.cvar.wait_for(&mut st, WAIT_SLICE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic() {
        let a = FaultPlan::new(42)
            .with_random_crash(8, 10)
            .with_random_straggler(8, 2.0);
        let b = FaultPlan::new(42)
            .with_random_crash(8, 10)
            .with_random_straggler(8, 2.0);
        for r in 0..8 {
            let (fa, fb) = (a.faults_for(r), b.faults_for(r));
            assert_eq!(fa.crash_at_step, fb.crash_at_step);
            assert_eq!(fa.straggle_factor, fb.straggle_factor);
        }
        // Different seeds shuffle the schedule.
        let c = FaultPlan::new(43).with_random_crash(8, 10);
        let crashed_a = (0..8)
            .filter(|&r| a.faults_for(r).crash_at_step.is_some())
            .count();
        let crashed_c = (0..8)
            .filter(|&r| c.faults_for(r).crash_at_step.is_some())
            .count();
        assert_eq!(crashed_a, 1);
        assert_eq!(crashed_c, 1);
    }

    #[test]
    fn explicit_plan_builders_accumulate() {
        let p = FaultPlan::new(0)
            .crash_rank(3, 7)
            .straggler(1, 2.5)
            .drop_window_op(2, 0)
            .corrupt_window_op(2, 4)
            .transient_io(0, 3);
        assert_eq!(p.faults_for(3).crash_at_step, Some(7));
        assert_eq!(p.faults_for(1).straggle_factor, 2.5);
        assert!(p.faults_for(2).window_drop_ops.contains(&0));
        assert!(p.faults_for(2).window_corrupt_ops.contains(&4));
        assert_eq!(p.faults_for(0).transient_io_failures, 3);
        assert_eq!(p.faults_for(5).crash_at_step, None);
        assert!(!p.is_empty());
        assert!(FaultPlan::new(9).is_empty());
    }

    #[test]
    fn barrier_surfaces_peer_failure_not_deadlock() {
        let barrier = std::sync::Arc::new(FtBarrier::new(2));
        let abort = std::sync::Arc::new(AbortState::new());
        let (b2, a2) = (barrier, abort.clone());
        let h = std::thread::spawn(move || b2.wait(&a2, Duration::from_secs(5), "barrier"));
        std::thread::sleep(Duration::from_millis(10));
        abort.mark_failed(1, "injected".into());
        let got = h.join().unwrap();
        assert_eq!(
            got,
            Err(MpiError::RankFailed {
                rank: 1,
                phase: "barrier"
            })
        );
    }

    #[test]
    fn barrier_watchdog_fires_without_abort() {
        let barrier = FtBarrier::new(2);
        let abort = AbortState::new();
        let got = barrier.wait(&abort, Duration::from_millis(30), "barrier");
        match got {
            Err(MpiError::WatchdogTimeout {
                phase: "barrier",
                waited_ms,
            }) => {
                assert!(waited_ms >= 30);
            }
            other => panic!("expected watchdog timeout, got {other:?}"),
        }
    }

    #[test]
    fn mpi_error_displays_structured_fields() {
        let e = MpiError::RankFailed {
            rank: 5,
            phase: "allreduce",
        };
        assert_eq!(e.to_string(), "rank 5 failed while peers were in allreduce");
        let t = MpiError::WatchdogTimeout {
            phase: "recv",
            waited_ms: 250,
        };
        assert!(t.to_string().contains("250ms"));
    }
}

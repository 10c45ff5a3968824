//! Communicators, rank contexts, and collective operations.
//!
//! A [`Comm`] is the analogue of an `MPI_Comm`: a group of ranks with
//! collective operations (`barrier`, `bcast`, `allreduce_sum`, `gather`,
//! `allgather`, `scatter`) and [`Comm::split`] for building the nested
//! `P_B x P_lambda x ADMM_cores` decomposition of paper §III.
//!
//! Real data genuinely moves between the rank threads (so statistical
//! results are exact); *time* is virtual: each operation synchronises the
//! participants' virtual clocks and charges the machine-model cost evaluated
//! at the **modeled** communicator size, which may exceed the executed one
//! (see [`crate::cluster::Cluster`]).
//!
//! All collectives follow a three-barrier protocol: (1) contribute under the
//! state mutex, barrier; (2) consume the combined result, barrier; (3) the
//! barrier leader resets shared state, barrier. SPMD discipline applies: all
//! ranks of a communicator must call the same collectives in the same order.

use crate::fault::{AbortState, FtBarrier, MpiError, RankFaults, WAIT_SLICE};
use crate::ledger::{CollectiveEvent, Phase, PhaseLedger};
use crate::model::{MachineModel, SplitMix64};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uoi_telemetry::{Telemetry, TraceEvent};

/// Outcome of consulting the fault plan for one window operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WindowFault {
    None,
    /// The transfer silently does not happen.
    Drop,
    /// The transfer lands with a deterministic bit flip.
    Corrupt,
}

/// Per-rank execution context: identity, virtual clock, phase ledger, and
/// noise stream. Exactly one exists per executed rank; it is threaded
/// through every simulated operation.
pub struct RankCtx {
    world_rank: usize,
    world_size: usize,
    clock: f64,
    ledger: PhaseLedger,
    model: Arc<MachineModel>,
    /// modeled ranks / executed ranks (>= 1).
    oversub: f64,
    noise: SplitMix64,
    telemetry: Telemetry,
    /// Open span ids, innermost last.
    span_stack: Vec<u64>,
    /// Open span *names*, innermost last — tracked even with tracing
    /// disabled so a rank failure can report where it died.
    span_names: Vec<String>,
    /// Suppress trace emission (used while re-running a collective whose
    /// charge is rolled back, e.g. `iallreduce_sum`).
    trace_mute: bool,
    /// Injected faults for this rank (healthy by default).
    faults: RankFaults,
    /// Watchdog timeout applied to blocking waits.
    watchdog: Duration,
    /// Fault-eligible collective ops executed so far (crash schedule).
    coll_step: u64,
    /// One-sided window ops executed so far (drop/corrupt schedule).
    window_op: u64,
    /// Remaining injected transient I/O failures.
    io_faults_left: u64,
    /// Cluster-wide abort state, installed by the cluster runner so
    /// injected hangs can mark themselves suspect and wait for the
    /// watchdog verdict instead of dying immediately.
    abort: Option<Arc<AbortState>>,
}

impl RankCtx {
    pub(crate) fn new(
        world_rank: usize,
        world_size: usize,
        model: Arc<MachineModel>,
        oversub: f64,
        telemetry: Telemetry,
        faults: RankFaults,
        watchdog: Duration,
    ) -> Self {
        let seed = model
            .noise
            .seed
            .wrapping_add((world_rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let io_faults_left = faults.transient_io_failures;
        Self {
            world_rank,
            world_size,
            clock: 0.0,
            ledger: PhaseLedger::default(),
            model,
            oversub,
            noise: SplitMix64::new(seed),
            telemetry,
            span_stack: Vec::new(),
            span_names: Vec::new(),
            trace_mute: false,
            faults,
            watchdog,
            coll_step: 0,
            window_op: 0,
            io_faults_left,
            abort: None,
        }
    }

    /// Install the cluster-wide abort handle (cluster runner only).
    pub(crate) fn set_abort(&mut self, abort: Arc<AbortState>) {
        self.abort = Some(abort);
    }

    /// This rank's id in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Number of executed ranks in the world.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Current virtual time (seconds).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Phase accounting so far.
    pub fn ledger(&self) -> PhaseLedger {
        self.ledger
    }

    /// The machine model in force.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Oversubscription factor (modeled ranks / executed ranks).
    pub fn oversub(&self) -> f64 {
        self.oversub
    }

    /// The telemetry handle this rank records through (disabled unless
    /// the cluster was built with
    /// [`crate::cluster::Cluster::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Advance the clock by `seconds`, attributing them to `phase`.
    pub fn charge(&mut self, phase: Phase, seconds: f64) {
        debug_assert!(seconds >= 0.0 && seconds.is_finite());
        self.clock += seconds;
        self.ledger.charge(phase, seconds);
        if !self.trace_mute {
            let (rank, clock) = (self.world_rank, self.clock);
            self.telemetry.record_with(|| TraceEvent::PhaseCharge {
                rank,
                phase: phase.label(),
                seconds,
                t: clock,
            });
        }
    }

    /// Open a named span (e.g. `"selection"`). Nested calls nest; close
    /// with [`RankCtx::span_exit`] in LIFO order. Returns 0 (no-op) when
    /// tracing is disabled.
    pub fn span_enter(&mut self, name: &str) -> u64 {
        self.span_names.push(name.to_string());
        let id = self.telemetry.next_span_id();
        if id != 0 {
            let parent = self.span_stack.last().copied();
            self.telemetry.record(TraceEvent::SpanStart {
                id,
                parent,
                name: name.to_string(),
                rank: self.world_rank,
                t: self.clock,
            });
            self.span_stack.push(id);
        }
        id
    }

    /// Close the span returned by [`RankCtx::span_enter`].
    pub fn span_exit(&mut self, id: u64) {
        self.span_names.pop();
        if id == 0 {
            return;
        }
        debug_assert_eq!(self.span_stack.last(), Some(&id), "spans must close LIFO");
        self.span_stack.retain(|&s| s != id);
        self.telemetry.record(TraceEvent::SpanEnd {
            id,
            rank: self.world_rank,
            t: self.clock,
        });
    }

    /// Run `f` inside a named span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut RankCtx) -> R) -> R {
        let id = self.span_enter(name);
        let out = f(self);
        self.span_exit(id);
        out
    }

    /// Charge a dense computation of `flops` with the given working set.
    /// An injected straggler factor scales local work.
    pub fn compute_flops(&mut self, flops: f64, working_set_bytes: f64) {
        let t = self.model.compute_time(flops, working_set_bytes) * self.faults.straggle_factor;
        self.charge(Phase::Compute, t);
    }

    /// Charge a memory-bandwidth-bound sweep of `bytes`.
    pub fn compute_membound(&mut self, bytes: f64) {
        let t = self.model.membound_time(bytes) * self.faults.straggle_factor;
        self.charge(Phase::Compute, t);
    }

    /// Charge file-I/O seconds (straggler-scaled).
    pub fn charge_io(&mut self, seconds: f64) {
        let seconds = seconds * self.faults.straggle_factor;
        self.charge(Phase::DataIo, seconds);
        if !self.trace_mute {
            let (rank, clock) = (self.world_rank, self.clock);
            self.telemetry.record_with(|| TraceEvent::Io {
                rank,
                seconds,
                t: clock,
            });
        }
    }

    /// The watchdog timeout blocking waits honour.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// This rank's injected straggle factor (1.0 = healthy). Speculation
    /// uses it to convert a nominal task cost into the duration the rank
    /// actually experiences without charging the clock.
    pub fn straggle_factor(&self) -> f64 {
        self.faults.straggle_factor
    }

    /// The cluster-wide abort state, when running under a cluster
    /// (failure-aware waits outside the collectives poll it).
    pub(crate) fn abort_state(&self) -> Option<&Arc<AbortState>> {
        self.abort.as_ref()
    }

    /// Open span names at this instant, outermost first (failure
    /// reporting; empty unless the rank is inside `span`/`span_enter`).
    pub fn span_names(&self) -> &[String] {
        &self.span_names
    }

    /// Record a fault event through telemetry: a `TraceEvent::Fault`
    /// plus a `fault.<kind>` counter.
    pub fn record_fault(&mut self, kind: &str, detail: String) {
        self.telemetry.incr(&format!("fault.{kind}"), 1);
        if !self.trace_mute {
            let (rank, t) = (self.world_rank, self.clock);
            let kind = kind.to_string();
            self.telemetry.record_with(|| TraceEvent::Fault {
                rank,
                kind,
                detail,
                t,
            });
        }
    }

    /// Record this rank's view of a collective it is completing:
    /// `wait` is the idle time spent blocked until the last participant
    /// arrived (`sync_start - clock`, clamped at zero — the straggler
    /// itself waits 0), `cost` the modeled transfer paid after the sync.
    /// Emitted immediately before the clock jumps to
    /// `sync_start + cost`, so the Comm charge at the collective equals
    /// `wait + cost` exactly and profilers can split communication into
    /// load-imbalance idle vs. genuine transfer.
    pub(crate) fn trace_collective_wait(&mut self, op: &'static str, sync_start: f64, cost: f64) {
        if self.trace_mute {
            return;
        }
        let wait = (sync_start - self.clock).max(0.0);
        let (rank, t) = (self.world_rank, self.clock);
        self.telemetry.record_with(|| TraceEvent::CollectiveWait {
            rank,
            op: op.to_string(),
            wait,
            cost,
            t,
        });
    }

    /// Collective ops this rank has entered so far — the step counter
    /// fault plans key crashes on. Ranks running one collective schedule
    /// agree on it at every point of the program.
    pub fn collective_steps(&self) -> u64 {
        self.coll_step
    }

    /// Count one fault-eligible collective op; panics with an injected
    /// crash if the fault plan scheduled one at this step. Called at the
    /// entry of every collective so a crashed rank never contributes,
    /// exactly like a process that died before `MPI_Allreduce`.
    pub(crate) fn collective_step(&mut self, phase: &'static str) {
        let step = self.coll_step;
        self.coll_step += 1;
        if self.faults.crash_at_step == Some(step) {
            self.record_fault("rank_crash", format!("phase={phase} step={step}"));
            std::panic::panic_any(format!(
                "fault injection: rank {} crash at collective step {step} ({phase})",
                self.world_rank
            ));
        }
        if self.faults.hang_at_step == Some(step) {
            self.record_fault("rank_hang", format!("phase={phase} step={step}"));
            // A hung rank stops participating without dying: it declares
            // itself suspect, waits for the cluster to notice (peers'
            // watchdogs expire and raise the abort flag), then unwinds as
            // a victim — RankFailed naming itself — so the recovery
            // driver can exclude it without it ever being a root cause.
            if let Some(abort) = self.abort.clone() {
                abort.mark_suspect(self.world_rank);
                let start = Instant::now();
                let limit = self.watchdog.saturating_mul(2);
                while !abort.is_aborted() && !abort.is_revoked() && start.elapsed() < limit {
                    std::thread::sleep(WAIT_SLICE);
                }
            }
            std::panic::panic_any(MpiError::RankFailed {
                rank: self.world_rank,
                phase,
            });
        }
    }

    /// Count one one-sided window op and report the injected outcome.
    pub(crate) fn window_fault(&mut self) -> WindowFault {
        let op = self.window_op;
        self.window_op += 1;
        if self.faults.window_drop_ops.contains(&op) {
            self.record_fault("window_drop", format!("op={op}"));
            WindowFault::Drop
        } else if self.faults.window_corrupt_ops.contains(&op) {
            self.record_fault("window_corrupt", format!("op={op}"));
            WindowFault::Corrupt
        } else {
            WindowFault::None
        }
    }

    /// Consume one injected transient I/O failure if any remain.
    /// Tiered-I/O readers call this before each physical read attempt.
    pub fn take_io_fault(&mut self) -> bool {
        if self.io_faults_left > 0 {
            self.io_faults_left -= 1;
            self.record_fault("io_transient", format!("remaining={}", self.io_faults_left));
            true
        } else {
            false
        }
    }

    /// Jump the clock forward to absolute time `t` (no-op if already past),
    /// attributing the wait to `phase`.
    pub(crate) fn advance_to(&mut self, t: f64, phase: Phase) {
        if t > self.clock {
            let dt = t - self.clock;
            self.charge(phase, dt);
        }
    }

    pub(crate) fn set_trace_mute(&mut self, mute: bool) -> bool {
        std::mem::replace(&mut self.trace_mute, mute)
    }

    pub(crate) fn trace_muted(&self) -> bool {
        self.trace_mute
    }

    /// Draw a multiplicative noise factor for a collective cost.
    pub(crate) fn noise_factor(&mut self) -> f64 {
        let sigma = self.model.noise.sigma;
        self.noise.lognormal_factor(sigma)
    }

    pub(crate) fn into_parts(self) -> (PhaseLedger, f64) {
        (self.ledger, self.clock)
    }
}

/// Shared collective scratch state of one communicator.
struct CollState {
    /// Elementwise-summed reduction buffer.
    buf: Vec<f64>,
    /// Per-rank deposit slots (bcast/gather/scatter/split payloads).
    slots: Vec<Option<Vec<f64>>>,
    /// Ranks that have contributed to the current collective.
    count: usize,
    /// Max entry clock over contributors (collective start time).
    max_clock: f64,
    /// Per-rank modeled costs, for min/max event stats.
    costs: Vec<f64>,
    /// Collective-scoped tag (window ids, split generation).
    tag: u64,
}

impl CollState {
    fn new(size: usize) -> Self {
        Self {
            buf: Vec::new(),
            slots: vec![None; size],
            count: 0,
            max_clock: f64::NEG_INFINITY,
            costs: Vec::new(),
            tag: 0,
        }
    }

    fn reset(&mut self, size: usize) {
        self.buf.clear();
        self.slots.clear();
        self.slots.resize(size, None);
        self.count = 0;
        self.max_clock = f64::NEG_INFINITY;
        self.costs.clear();
        self.tag = 0;
    }
}

/// Handle for a non-blocking allreduce started with
/// [`Comm::iallreduce_sum`]. The result data is already in the caller's
/// buffer; `wait` charges the communication time that was not yet paid,
/// overlapping whatever the rank computed in between.
#[must_use = "call wait() to complete the non-blocking allreduce"]
pub struct PendingReduce {
    complete_at: f64,
}

impl PendingReduce {
    /// Complete the operation: the clock advances to the collective's
    /// completion instant if it has not naturally passed it (i.e. the
    /// overlap hid some or all of the communication).
    pub fn wait(self, ctx: &mut RankCtx) {
        ctx.advance_to(self.complete_at, Phase::Comm);
    }

    /// The virtual completion instant (diagnostics).
    pub fn complete_at(&self) -> f64 {
        self.complete_at
    }
}

/// A point-to-point message in flight.
struct P2pMessage {
    src: usize,
    tag: i64,
    payload: Vec<f64>,
    /// Sender's virtual clock at send time.
    sent_at: f64,
}

/// Scratch state for the failure-agreement collective
/// (`MPI_Comm_agree` analogue). Deliberately separate from [`CollState`]:
/// agreement must make progress on a communicator whose ordinary
/// collective state is poisoned by an abort.
#[derive(Default)]
struct AgreeState {
    /// Per-depositor local views of the failed-rank set.
    views: HashMap<usize, Vec<usize>>,
    /// The frozen agreed set, once some survivor observed every rank
    /// accounted for (deposited, failed, or suspect).
    result: Option<Vec<usize>>,
    /// Survivors that have read the result (last one resets the state).
    fetched: BTreeSet<usize>,
}

/// Scratch state for the shrink collective (`MPI_Comm_shrink` analogue).
#[derive(Default)]
struct ShrinkState {
    /// The replacement communicator plus the survivor list it was built
    /// for, created by the survivor leader.
    ready: Option<(Arc<CommInner>, Vec<usize>)>,
    /// Survivors that have fetched it (last one resets the state).
    fetched: BTreeSet<usize>,
}

pub(crate) struct CommInner {
    size: usize,
    barrier: FtBarrier,
    /// Cluster-wide failure flag, shared by the world communicator and
    /// every split derived from it.
    pub(crate) abort: Arc<AbortState>,
    coll: Mutex<CollState>,
    /// Failure-agreement scratch (usable after an abort).
    agree: Mutex<AgreeState>,
    /// Shrink scratch (usable after an abort).
    shrink: Mutex<ShrinkState>,
    /// Per-destination mailboxes for point-to-point messages.
    mailboxes: Vec<Mutex<Vec<P2pMessage>>>,
    mailbox_signal: parking_lot::Condvar,
    mailbox_gate: Mutex<()>,
    /// Registry of subcommunicators created by `split`, keyed by
    /// (generation, color).
    splits: Mutex<HashMap<(u64, i64), Arc<CommInner>>>,
    split_gen: AtomicU64,
    /// Registry of one-sided windows created on this communicator.
    pub(crate) windows: Mutex<HashMap<u64, Arc<crate::window::WindowInner>>>,
    pub(crate) window_seq: AtomicU64,
    /// Shared event sink (owned by the cluster, drained into the report).
    events: Arc<Mutex<Vec<CollectiveEvent>>>,
}

impl CommInner {
    pub(crate) fn new(
        size: usize,
        events: Arc<Mutex<Vec<CollectiveEvent>>>,
        abort: Arc<AbortState>,
    ) -> Self {
        Self {
            size,
            barrier: FtBarrier::new(size),
            abort,
            coll: Mutex::new(CollState::new(size)),
            agree: Mutex::new(AgreeState::default()),
            shrink: Mutex::new(ShrinkState::default()),
            mailboxes: (0..size).map(|_| Mutex::new(Vec::new())).collect(),
            mailbox_signal: parking_lot::Condvar::new(),
            mailbox_gate: Mutex::new(()),
            splits: Mutex::new(HashMap::new()),
            split_gen: AtomicU64::new(0),
            windows: Mutex::new(HashMap::new()),
            window_seq: AtomicU64::new(0),
            events,
        }
    }

    /// Discard all undelivered point-to-point messages (abort cleanup:
    /// a failed run must not leak payloads into a later inspection).
    pub(crate) fn drain_mailboxes(&self) -> usize {
        let mut drained = 0;
        for mb in &self.mailboxes {
            drained += std::mem::take(&mut *mb.lock()).len();
        }
        drained
    }
}

/// A communicator handle held by one rank. Cloneable only through `split`
/// or the cluster entry point — each handle is bound to its rank.
pub struct Comm {
    pub(crate) inner: Arc<CommInner>,
    rank: usize,
    size: usize,
}

impl Comm {
    pub(crate) fn from_inner(inner: Arc<CommInner>, rank: usize) -> Self {
        let size = inner.size;
        Self { inner, rank, size }
    }

    /// This rank's id within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of executed ranks in the communicator.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The rank count collective costs are modeled at.
    pub fn modeled_size(&self, ctx: &RankCtx) -> usize {
        ((self.size as f64) * ctx.oversub).round().max(1.0) as usize
    }

    /// Record a collective event (leader only).
    fn push_event(&self, ev: CollectiveEvent) {
        self.inner.events.lock().push(ev);
    }

    /// Emit a [`TraceEvent::Collective`] through `ctx`'s telemetry handle
    /// (leader only; no-op when tracing is disabled or muted).
    #[allow(clippy::too_many_arguments)]
    fn trace_collective(
        &self,
        ctx: &RankCtx,
        op: &str,
        comm_size: usize,
        bytes: usize,
        t_start: f64,
        (t_min, t_max, t_mean): (f64, f64, f64),
    ) {
        if ctx.trace_muted() {
            return;
        }
        let modeled_size = self.modeled_size(ctx);
        ctx.telemetry().record_with(|| TraceEvent::Collective {
            op: op.to_string(),
            comm_size,
            modeled_size,
            bytes,
            t_start,
            t_end: t_start + t_max,
            t_min,
            t_max,
            t_mean,
        });
    }

    /// Core synchronisation: contribute `my_clock`, return the max entry
    /// clock over the communicator, and run `contribute` under the mutex on
    /// first arrival / every arrival as requested by the op.
    ///
    /// Implemented inline in each collective for clarity; this helper only
    /// handles the trivial single-rank case.
    fn single_rank(&self) -> bool {
        self.size == 1
    }

    /// Failure-aware barrier wait: `Ok(is_leader)`, or `Err` when a peer
    /// died or the watchdog expired.
    fn bwait(&self, ctx: &RankCtx, op: &'static str) -> Result<bool, MpiError> {
        self.inner
            .barrier
            .wait(&self.inner.abort, ctx.watchdog(), op)
    }

    /// Escalate an [`MpiError`] on the infallible legacy API: unwind
    /// this rank with the error as payload. The cluster's panic capture
    /// downcasts it back into the failure report; the process is never
    /// aborted.
    fn escalate(err: MpiError) -> ! {
        std::panic::panic_any(err)
    }

    /// Barrier, charged to `phase` (default communication).
    pub fn barrier(&self, ctx: &mut RankCtx) {
        self.barrier_phase(ctx, Phase::Comm);
    }

    /// Fallible barrier ([`Comm::barrier`] semantics).
    pub fn try_barrier(&self, ctx: &mut RankCtx) -> Result<(), MpiError> {
        self.try_barrier_phase(ctx, Phase::Comm)
    }

    /// Barrier with an explicit phase attribution (window fences charge
    /// distribution).
    pub fn barrier_phase(&self, ctx: &mut RankCtx, phase: Phase) {
        if let Err(e) = self.try_barrier_phase(ctx, phase) {
            Self::escalate(e)
        }
    }

    /// Fallible barrier with explicit phase attribution.
    pub fn try_barrier_phase(&self, ctx: &mut RankCtx, phase: Phase) -> Result<(), MpiError> {
        ctx.collective_step("barrier");
        let base = ctx.model.barrier_time(self.modeled_size(ctx));
        let cost = base * ctx.noise_factor();
        if self.single_rank() {
            ctx.charge(phase, cost);
            return Ok(());
        }
        {
            let mut st = self.inner.coll.lock();
            if st.count == 0 {
                st.max_clock = f64::NEG_INFINITY;
            }
            st.max_clock = st.max_clock.max(ctx.clock);
            st.count += 1;
        }
        self.bwait(ctx, "barrier")?;
        let sync_start = self.inner.coll.lock().max_clock;
        let leader = self.bwait(ctx, "barrier")?;
        if leader {
            self.inner.coll.lock().count = 0;
        }
        self.bwait(ctx, "barrier")?;
        ctx.trace_collective_wait("barrier", sync_start, cost);
        ctx.advance_to(sync_start + cost, phase);
        Ok(())
    }

    /// Allreduce (elementwise sum) of `data` across the communicator. On
    /// return every rank holds the sum. Cost: recursive-doubling model at
    /// the modeled size; records a [`CollectiveEvent`] for Fig 5.
    pub fn allreduce_sum(&self, ctx: &mut RankCtx, data: &mut [f64]) {
        if let Err(e) = self.try_allreduce_sum(ctx, data) {
            Self::escalate(e)
        }
    }

    /// Fallible allreduce: a dead peer or watchdog expiry surfaces as an
    /// [`MpiError`] on every surviving rank instead of a deadlock.
    pub fn try_allreduce_sum(&self, ctx: &mut RankCtx, data: &mut [f64]) -> Result<(), MpiError> {
        ctx.collective_step("allreduce");
        let bytes = data.len() * 8;
        let base = ctx.model.allreduce_time(self.modeled_size(ctx), bytes);
        let cost = base * ctx.noise_factor();
        if self.single_rank() {
            self.push_event(CollectiveEvent {
                op: "allreduce",
                comm_size: 1,
                modeled_size: self.modeled_size(ctx),
                bytes,
                t_min: cost,
                t_max: cost,
                t_mean: cost,
            });
            let t_start = ctx.clock;
            ctx.charge(Phase::Comm, cost);
            self.trace_collective(ctx, "allreduce", 1, bytes, t_start, (cost, cost, cost));
            return Ok(());
        }
        {
            let mut st = self.inner.coll.lock();
            if st.count == 0 {
                st.max_clock = f64::NEG_INFINITY;
                st.costs.clear();
            }
            // Deposit per rank; the reduction is evaluated in rank order
            // at read-out so the floating-point sum is deterministic
            // regardless of thread arrival order.
            st.slots[self.rank] = Some(data.to_vec());
            st.max_clock = st.max_clock.max(ctx.clock);
            st.count += 1;
        }
        self.bwait(ctx, "allreduce")?;
        let sync_start;
        {
            let mut st = self.inner.coll.lock();
            for v in data.iter_mut() {
                *v = 0.0;
            }
            for slot in &st.slots {
                let payload = slot.as_ref().expect("allreduce: missing rank contribution");
                assert_eq!(
                    payload.len(),
                    data.len(),
                    "allreduce: payload length differs across ranks"
                );
                for (d, x) in data.iter_mut().zip(payload) {
                    *d += x;
                }
            }
            sync_start = st.max_clock;
            st.costs.push(cost);
        }
        let leader = self.bwait(ctx, "allreduce")?;
        if leader {
            let mut st = self.inner.coll.lock();
            let (mut t_min, mut t_max, mut t_sum) = (f64::INFINITY, 0.0_f64, 0.0);
            for &c in &st.costs {
                t_min = t_min.min(c);
                t_max = t_max.max(c);
                t_sum += c;
            }
            let n = st.costs.len().max(1) as f64;
            self.push_event(CollectiveEvent {
                op: "allreduce",
                comm_size: self.size,
                modeled_size: self.modeled_size(ctx),
                bytes,
                t_min,
                t_max,
                t_mean: t_sum / n,
            });
            self.trace_collective(
                ctx,
                "allreduce",
                self.size,
                bytes,
                sync_start,
                (t_min, t_max, t_sum / n),
            );
            let size = self.size;
            st.reset(size);
        }
        self.bwait(ctx, "allreduce")?;
        ctx.trace_collective_wait("allreduce", sync_start, cost);
        ctx.advance_to(sync_start + cost, Phase::Comm);
        Ok(())
    }

    /// Broadcast `data` from `root` to all ranks.
    pub fn bcast(&self, ctx: &mut RankCtx, root: usize, data: &mut Vec<f64>) {
        if let Err(e) = self.try_bcast(ctx, root, data) {
            Self::escalate(e)
        }
    }

    /// Fallible broadcast ([`Comm::bcast`] semantics).
    pub fn try_bcast(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        data: &mut Vec<f64>,
    ) -> Result<(), MpiError> {
        assert!(root < self.size, "bcast: invalid root");
        ctx.collective_step("bcast");
        let bytes = data.len() * 8;
        let base = ctx.model.bcast_time(self.modeled_size(ctx), bytes);
        let cost = base * ctx.noise_factor();
        if self.single_rank() {
            ctx.charge(Phase::Comm, cost);
            return Ok(());
        }
        {
            let mut st = self.inner.coll.lock();
            if st.count == 0 {
                st.max_clock = f64::NEG_INFINITY;
            }
            if self.rank == root {
                st.slots[root] = Some(data.clone());
            }
            st.max_clock = st.max_clock.max(ctx.clock);
            st.count += 1;
        }
        self.bwait(ctx, "bcast")?;
        let sync_start;
        {
            let st = self.inner.coll.lock();
            let payload = st.slots[root]
                .as_ref()
                .expect("bcast: root deposited no payload");
            data.clear();
            data.extend_from_slice(payload);
            sync_start = st.max_clock;
        }
        let leader = self.bwait(ctx, "bcast")?;
        if leader {
            let mut st = self.inner.coll.lock();
            let size = self.size;
            st.reset(size);
            self.trace_collective(
                ctx,
                "bcast",
                self.size,
                bytes,
                sync_start,
                (cost, cost, cost),
            );
        }
        self.bwait(ctx, "bcast")?;
        ctx.trace_collective_wait("bcast", sync_start, cost);
        ctx.advance_to(sync_start + cost, Phase::Comm);
        Ok(())
    }

    /// Gather each rank's `data` to `root`; returns `Some(per-rank
    /// payloads)` on the root, `None` elsewhere.
    pub fn gather(&self, ctx: &mut RankCtx, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        match self.try_gather(ctx, root, data) {
            Ok(res) => res,
            Err(e) => Self::escalate(e),
        }
    }

    /// Fallible gather ([`Comm::gather`] semantics).
    pub fn try_gather(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        data: &[f64],
    ) -> Result<Option<Vec<Vec<f64>>>, MpiError> {
        assert!(root < self.size, "gather: invalid root");
        ctx.collective_step("gather");
        let bytes = data.len() * 8;
        let base = ctx.model.gather_time(self.modeled_size(ctx), bytes);
        let cost = base * ctx.noise_factor();
        if self.single_rank() {
            ctx.charge(Phase::Comm, cost);
            return Ok(Some(vec![data.to_vec()]));
        }
        {
            let mut st = self.inner.coll.lock();
            if st.count == 0 {
                st.max_clock = f64::NEG_INFINITY;
            }
            st.slots[self.rank] = Some(data.to_vec());
            st.max_clock = st.max_clock.max(ctx.clock);
            st.count += 1;
        }
        self.bwait(ctx, "gather")?;
        let (result, sync_start) = {
            let st = self.inner.coll.lock();
            let res = if self.rank == root {
                Some(
                    st.slots
                        .iter()
                        .map(|s| s.clone().expect("gather: missing slot"))
                        .collect::<Vec<_>>(),
                )
            } else {
                None
            };
            (res, st.max_clock)
        };
        let leader = self.bwait(ctx, "gather")?;
        if leader {
            let mut st = self.inner.coll.lock();
            let size = self.size;
            st.reset(size);
            self.trace_collective(
                ctx,
                "gather",
                self.size,
                bytes,
                sync_start,
                (cost, cost, cost),
            );
        }
        self.bwait(ctx, "gather")?;
        ctx.trace_collective_wait("gather", sync_start, cost);
        ctx.advance_to(sync_start + cost, Phase::Comm);
        Ok(result)
    }

    /// Allgather: every rank receives every rank's payload.
    pub fn allgather(&self, ctx: &mut RankCtx, data: &[f64]) -> Vec<Vec<f64>> {
        match self.try_allgather(ctx, data) {
            Ok(res) => res,
            Err(e) => Self::escalate(e),
        }
    }

    /// Fallible allgather ([`Comm::allgather`] semantics).
    pub fn try_allgather(
        &self,
        ctx: &mut RankCtx,
        data: &[f64],
    ) -> Result<Vec<Vec<f64>>, MpiError> {
        ctx.collective_step("allgather");
        let bytes = data.len() * 8;
        let p = self.modeled_size(ctx);
        // Ring allgather: (p-1) steps moving `bytes` each.
        let base = if p <= 1 {
            0.0
        } else {
            (p - 1) as f64 * (ctx.model.alpha + bytes as f64 * ctx.model.beta)
        };
        let cost = base * ctx.noise_factor();
        if self.single_rank() {
            ctx.charge(Phase::Comm, cost);
            return Ok(vec![data.to_vec()]);
        }
        {
            let mut st = self.inner.coll.lock();
            if st.count == 0 {
                st.max_clock = f64::NEG_INFINITY;
            }
            st.slots[self.rank] = Some(data.to_vec());
            st.max_clock = st.max_clock.max(ctx.clock);
            st.count += 1;
        }
        self.bwait(ctx, "allgather")?;
        let (result, sync_start) = {
            let st = self.inner.coll.lock();
            let res: Vec<Vec<f64>> = st
                .slots
                .iter()
                .map(|s| s.clone().expect("allgather: missing slot"))
                .collect();
            (res, st.max_clock)
        };
        let leader = self.bwait(ctx, "allgather")?;
        if leader {
            let mut st = self.inner.coll.lock();
            let size = self.size;
            st.reset(size);
            self.trace_collective(
                ctx,
                "allgather",
                self.size,
                bytes,
                sync_start,
                (cost, cost, cost),
            );
        }
        self.bwait(ctx, "allgather")?;
        ctx.trace_collective_wait("allgather", sync_start, cost);
        ctx.advance_to(sync_start + cost, Phase::Comm);
        Ok(result)
    }

    /// Scatter: `root` provides one payload per rank; each rank receives
    /// its own.
    pub fn scatter(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        chunks: Option<Vec<Vec<f64>>>,
    ) -> Vec<f64> {
        match self.try_scatter(ctx, root, chunks) {
            Ok(res) => res,
            Err(e) => Self::escalate(e),
        }
    }

    /// Fallible scatter ([`Comm::scatter`] semantics).
    pub fn try_scatter(
        &self,
        ctx: &mut RankCtx,
        root: usize,
        chunks: Option<Vec<Vec<f64>>>,
    ) -> Result<Vec<f64>, MpiError> {
        assert!(root < self.size, "scatter: invalid root");
        ctx.collective_step("scatter");
        if self.single_rank() {
            let mut chunks = chunks.expect("scatter: root must supply chunks");
            assert_eq!(chunks.len(), 1);
            let bytes = chunks[0].len() * 8;
            let cost = ctx.model.gather_time(self.modeled_size(ctx), bytes) * ctx.noise_factor();
            ctx.charge(Phase::Comm, cost);
            return Ok(chunks.swap_remove(0));
        }
        {
            let mut st = self.inner.coll.lock();
            if st.count == 0 {
                st.max_clock = f64::NEG_INFINITY;
            }
            if self.rank == root {
                let chunks = chunks.expect("scatter: root must supply chunks");
                assert_eq!(chunks.len(), self.size, "scatter: need one chunk per rank");
                for (slot, chunk) in st.slots.iter_mut().zip(chunks) {
                    *slot = Some(chunk);
                }
            }
            st.max_clock = st.max_clock.max(ctx.clock);
            st.count += 1;
        }
        self.bwait(ctx, "scatter")?;
        let (mine, sync_start, bytes) = {
            let st = self.inner.coll.lock();
            let mine = st.slots[self.rank]
                .clone()
                .expect("scatter: root deposited no chunk for this rank");
            (mine.clone(), st.max_clock, mine.len() * 8)
        };
        let cost = ctx.model.gather_time(self.modeled_size(ctx), bytes) * ctx.noise_factor();
        let leader = self.bwait(ctx, "scatter")?;
        if leader {
            let mut st = self.inner.coll.lock();
            let size = self.size;
            st.reset(size);
            self.trace_collective(
                ctx,
                "scatter",
                self.size,
                bytes,
                sync_start,
                (cost, cost, cost),
            );
        }
        self.bwait(ctx, "scatter")?;
        ctx.trace_collective_wait("scatter", sync_start, cost);
        ctx.advance_to(sync_start + cost, Phase::Comm);
        Ok(mine)
    }

    /// Point-to-point send (`MPI_Send` analogue, eager/buffered): never
    /// blocks. The sender is charged the injection cost; delivery latency
    /// lands on the receiver.
    pub fn send(&self, ctx: &mut RankCtx, dest: usize, tag: i64, payload: &[f64]) {
        assert!(dest < self.size, "send: invalid destination");
        let bytes = payload.len() * 8;
        {
            let _gate = self.inner.mailbox_gate.lock();
            self.inner.mailboxes[dest].lock().push(P2pMessage {
                src: self.rank,
                tag,
                payload: payload.to_vec(),
                sent_at: ctx.clock,
            });
            self.inner.mailbox_signal.notify_all();
        }
        // Sender-side injection cost.
        ctx.charge(Phase::Comm, ctx.model.alpha + bytes as f64 * ctx.model.beta);
    }

    /// Point-to-point receive matching `(src, tag)`; `None` matches any
    /// source / any tag. Blocks (in real time) until a matching message
    /// arrives; the receiver's virtual clock advances to the message's
    /// arrival time (`sent_at + alpha + bytes*beta`). Returns
    /// `(source, payload)`.
    pub fn recv(
        &self,
        ctx: &mut RankCtx,
        src: Option<usize>,
        tag: Option<i64>,
    ) -> (usize, Vec<f64>) {
        match self.try_recv(ctx, src, tag) {
            Ok(res) => res,
            Err(e) => Self::escalate(e),
        }
    }

    /// Fallible receive: blocks until a matching message arrives, a peer
    /// fails ([`MpiError::RankFailed`]), or the watchdog expires
    /// ([`MpiError::WatchdogTimeout`]) — a dead sender can no longer
    /// park the receiver forever.
    pub fn try_recv(
        &self,
        ctx: &mut RankCtx,
        src: Option<usize>,
        tag: Option<i64>,
    ) -> Result<(usize, Vec<f64>), MpiError> {
        let start = std::time::Instant::now();
        let mut gate = self.inner.mailbox_gate.lock();
        loop {
            {
                let mut mb = self.inner.mailboxes[self.rank].lock();
                let pos = mb
                    .iter()
                    .position(|m| src.is_none_or(|s| s == m.src) && tag.is_none_or(|t| t == m.tag));
                if let Some(i) = pos {
                    let msg = mb.remove(i);
                    drop(mb);
                    drop(gate);
                    let bytes = msg.payload.len() * 8;
                    let arrival = msg.sent_at + ctx.model.alpha + bytes as f64 * ctx.model.beta;
                    ctx.advance_to(arrival, Phase::Comm);
                    return Ok((msg.src, msg.payload));
                }
            }
            if self.inner.abort.is_revoked() {
                return Err(MpiError::Revoked { phase: "recv" });
            }
            if self.inner.abort.is_aborted() {
                let rank = self.inner.abort.first_failure().unwrap_or(usize::MAX);
                return Err(MpiError::RankFailed {
                    rank,
                    phase: "recv",
                });
            }
            if start.elapsed() >= ctx.watchdog() {
                return Err(MpiError::WatchdogTimeout {
                    phase: "recv",
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            self.inner.mailbox_signal.wait_for(&mut gate, WAIT_SLICE);
        }
    }

    /// Begin a non-blocking allreduce (`MPI_Iallreduce` analogue) — the
    /// asynchronous-execution direction the paper names as future work
    /// (§IV-A4). The data exchange happens now (all ranks must call this
    /// collectively, like any collective), but the *cost* is deferred:
    /// the rank's clock does not advance until [`PendingReduce::wait`],
    /// so computation issued in between overlaps the transfer.
    pub fn iallreduce_sum(&self, ctx: &mut RankCtx, data: &mut [f64]) -> PendingReduce {
        // Reuse the blocking protocol, then roll the charge back into a
        // completion timestamp: capture the clock before, run the
        // exchange, and convert the elapsed virtual time into the pending
        // completion instant.
        let before_clock = ctx.clock;
        let before_comm = ctx.ledger.comm;
        // Mute tracing for the rolled-back inner run: its charges never
        // land on the ledger, so emitting them would break the
        // "sum(PhaseCharge) == ledger total" invariant. The deferred wait
        // charges (and traces) the cost that actually materialises.
        let was_muted = ctx.set_trace_mute(true);
        self.allreduce_sum(ctx, data);
        ctx.set_trace_mute(was_muted);
        let complete_at = ctx.clock;
        // Roll back: the caller keeps computing from `before_clock`.
        ctx.clock = before_clock;
        ctx.ledger.comm = before_comm;
        if self.rank == 0 {
            let bytes = data.len() * 8;
            self.trace_collective(
                ctx,
                "iallreduce",
                self.size,
                bytes,
                before_clock,
                (0.0, complete_at - before_clock, complete_at - before_clock),
            );
        }
        PendingReduce { complete_at }
    }

    /// Deposit a payload *by move* into this rank's collective slot and
    /// synchronise. Zero-copy registration used by window creation; the
    /// slots survive until [`Comm::take_slots`] drains them.
    pub(crate) fn deposit_slot(&self, ctx: &mut RankCtx, payload: Vec<f64>) {
        if let Err(e) = self.try_deposit_slot(ctx, payload) {
            Self::escalate(e);
        }
    }

    fn try_deposit_slot(&self, ctx: &mut RankCtx, payload: Vec<f64>) -> Result<(), MpiError> {
        if self.single_rank() {
            self.inner.coll.lock().slots[0] = Some(payload);
            return Ok(());
        }
        {
            let mut st = self.inner.coll.lock();
            if st.count == 0 {
                st.max_clock = f64::NEG_INFINITY;
            }
            st.slots[self.rank] = Some(payload);
            st.max_clock = st.max_clock.max(ctx.clock);
            st.count += 1;
        }
        self.bwait(ctx, "window_create")?;
        let sync_start = self.inner.coll.lock().max_clock;
        let leader = self.bwait(ctx, "window_create")?;
        if leader {
            self.inner.coll.lock().count = 0;
        }
        self.bwait(ctx, "window_create")?;
        ctx.trace_collective_wait("window_create", sync_start, 0.0);
        ctx.advance_to(sync_start, Phase::Distribution);
        Ok(())
    }

    /// Drain the deposited slots (window-creation leader only). Missing
    /// deposits yield empty buffers.
    pub(crate) fn take_slots(&self) -> Vec<Vec<f64>> {
        let mut st = self.inner.coll.lock();
        st.slots
            .iter_mut()
            .map(|s| s.take().unwrap_or_default())
            .collect()
    }

    /// Split the communicator into disjoint subcommunicators by `color`;
    /// ranks sharing a color form a new communicator ordered by `key`
    /// (ties broken by parent rank). Mirrors `MPI_Comm_split`.
    pub fn split(&self, ctx: &mut RankCtx, color: i64, key: i64) -> Comm {
        match self.try_split(ctx, color, key) {
            Ok(c) => c,
            Err(e) => Self::escalate(e),
        }
    }

    /// Fallible variant of [`Comm::split`]; surfaces peer failures and
    /// watchdog expiry instead of deadlocking on the split barriers.
    pub fn try_split(&self, ctx: &mut RankCtx, color: i64, key: i64) -> Result<Comm, MpiError> {
        ctx.collective_step("split");
        if self.single_rank() {
            // Trivial: a fresh single-rank communicator.
            let inner = Arc::new(CommInner::new(
                1,
                self.inner.events.clone(),
                self.inner.abort.clone(),
            ));
            ctx.charge(Phase::Comm, ctx.model.barrier_time(self.modeled_size(ctx)));
            return Ok(Comm::from_inner(inner, 0));
        }
        // Phase 1: deposit (color, key) and agree on a generation tag.
        {
            let mut st = self.inner.coll.lock();
            if st.count == 0 {
                st.max_clock = f64::NEG_INFINITY;
                st.tag = self.inner.split_gen.fetch_add(1, Ordering::SeqCst);
            }
            st.slots[self.rank] = Some(vec![color as f64, key as f64]);
            st.max_clock = st.max_clock.max(ctx.clock);
            st.count += 1;
        }
        self.bwait(ctx, "split")?;
        // Phase 2: everyone computes its group deterministically.
        let (generation, members, sync_start) = {
            let st = self.inner.coll.lock();
            let mut members: Vec<(i64, usize)> = Vec::new(); // (key, parent_rank)
            for (r, slot) in st.slots.iter().enumerate() {
                let payload = slot.as_ref().expect("split: missing deposit");
                let (c, k) = (payload[0] as i64, payload[1] as i64);
                if c == color {
                    members.push((k, r));
                }
            }
            members.sort();
            (st.tag, members, st.max_clock)
        };
        let my_pos = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("split: self not in own group");
        // Group leader (first member) creates the inner.
        if my_pos == 0 {
            let inner = Arc::new(CommInner::new(
                members.len(),
                self.inner.events.clone(),
                self.inner.abort.clone(),
            ));
            self.inner.splits.lock().insert((generation, color), inner);
        }
        self.bwait(ctx, "split")?;
        let sub_inner = self
            .inner
            .splits
            .lock()
            .get(&(generation, color))
            .expect("split: group inner missing")
            .clone();
        let leader = self.bwait(ctx, "split")?;
        if leader {
            let mut st = self.inner.coll.lock();
            let size = self.size;
            st.reset(size);
            // Old split registrations for this generation can be dropped
            // once all ranks fetched them; keep the map tidy.
            self.inner
                .splits
                .lock()
                .retain(|&(g, _), _| g == generation);
        }
        self.bwait(ctx, "split")?;
        // Cost: an allgather of 16 bytes + subgroup setup barrier.
        let cost = ctx.model.gather_time(self.modeled_size(ctx), 16) * ctx.noise_factor();
        ctx.trace_collective_wait("split", sync_start, cost);
        ctx.advance_to(sync_start + cost, Phase::Comm);
        Ok(Comm::from_inner(sub_inner, my_pos))
    }

    /// Revoke this communicator (ULFM `MPI_Comm_revoke` analogue): every
    /// pending and future wait on it — and on every communicator sharing
    /// its abort tree (splits inherit the parent's abort state) — fails
    /// fast with [`MpiError::Revoked`]. Survivors then run
    /// [`Comm::try_agree_failed`] and [`Comm::try_shrink`] to resume on
    /// a fresh communicator.
    pub fn revoke(&self) {
        self.inner.abort.revoke();
    }

    /// Whether this communicator has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.inner.abort.is_revoked()
    }

    /// Deterministic agreement on the failed-rank set (`MPI_Comm_agree`
    /// analogue). Each survivor contributes its local view
    /// (`known_failed`, ranks of this communicator); the call returns the
    /// sorted union of all survivor views, the runtime's recorded
    /// failures, and the suspect set, identically on every survivor.
    ///
    /// Unlike the ordinary collectives this works on an *aborted or
    /// revoked* communicator: it uses dedicated scratch state and polls
    /// until every rank is accounted for — deposited, recorded failed,
    /// or suspect. SPMD discipline: every survivor must call it, at most
    /// one agreement in flight per communicator.
    pub fn try_agree_failed(
        &self,
        ctx: &mut RankCtx,
        known_failed: &[usize],
    ) -> Result<Vec<usize>, MpiError> {
        let cost = ctx
            .model
            .allreduce_time(self.modeled_size(ctx), self.size * 8)
            * ctx.noise_factor();
        if self.single_rank() {
            ctx.charge(Phase::Comm, cost);
            let mut v: Vec<usize> = known_failed.iter().copied().filter(|&r| r < 1).collect();
            v.sort_unstable();
            v.dedup();
            return Ok(v);
        }
        {
            let mut st = self.inner.agree.lock();
            st.views.insert(self.rank, known_failed.to_vec());
        }
        let start = Instant::now();
        loop {
            {
                let mut st = self.inner.agree.lock();
                if st.result.is_none() {
                    let failed: BTreeSet<usize> =
                        self.inner.abort.failed_ranks().into_iter().collect();
                    let suspects: BTreeSet<usize> =
                        self.inner.abort.suspects().into_iter().collect();
                    let accounted = (0..self.size).all(|r| {
                        st.views.contains_key(&r) || failed.contains(&r) || suspects.contains(&r)
                    });
                    if accounted {
                        // Freeze the union so every survivor returns the
                        // same set even if more state arrives later.
                        let mut agreed: BTreeSet<usize> = failed;
                        agreed.extend(suspects);
                        for v in st.views.values() {
                            agreed.extend(v.iter().copied());
                        }
                        st.result = Some(agreed.into_iter().filter(|&r| r < self.size).collect());
                    }
                }
                if let Some(res) = st.result.clone() {
                    st.fetched.insert(self.rank);
                    let all_fetched = st.views.keys().all(|r| st.fetched.contains(r));
                    if all_fetched {
                        st.views.clear();
                        st.fetched.clear();
                        st.result = None;
                    }
                    drop(st);
                    ctx.charge(Phase::Comm, cost);
                    return Ok(res);
                }
            }
            if start.elapsed() >= ctx.watchdog() {
                return Err(MpiError::WatchdogTimeout {
                    phase: "agree",
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            std::thread::sleep(WAIT_SLICE);
        }
    }

    /// Rebuild a working communicator over the survivors of `failed`
    /// (`MPI_Comm_shrink` analogue): a fresh inner state — including a
    /// fresh, un-aborted failure flag — with survivors densely re-ranked
    /// in ascending old-rank order. Every survivor must call it with the
    /// same agreed `failed` set (use [`Comm::try_agree_failed`] first);
    /// collectives on the returned communicator work normally even
    /// though this one stays poisoned.
    pub fn try_shrink(&self, ctx: &mut RankCtx, failed: &[usize]) -> Result<Comm, MpiError> {
        let failed: BTreeSet<usize> = failed.iter().copied().collect();
        let survivors: Vec<usize> = (0..self.size).filter(|r| !failed.contains(r)).collect();
        let Some(my_pos) = survivors.iter().position(|&r| r == self.rank) else {
            return Err(MpiError::Internal {
                what: format!("shrink: caller rank {} is in the failed set", self.rank),
            });
        };
        let cost = ctx.model.gather_time(self.modeled_size(ctx), 16) * ctx.noise_factor();
        if survivors.len() == 1 {
            let inner = Arc::new(CommInner::new(
                1,
                self.inner.events.clone(),
                Arc::new(AbortState::new()),
            ));
            ctx.charge(Phase::Comm, cost);
            return Ok(Comm::from_inner(inner, 0));
        }
        if my_pos == 0 {
            let mut st = self.inner.shrink.lock();
            if st.ready.is_none() {
                let inner = Arc::new(CommInner::new(
                    survivors.len(),
                    self.inner.events.clone(),
                    Arc::new(AbortState::new()),
                ));
                st.ready = Some((inner, survivors.clone()));
            }
        }
        let start = Instant::now();
        loop {
            {
                let mut st = self.inner.shrink.lock();
                if let Some((inner, built_for)) = st.ready.clone() {
                    if built_for != survivors {
                        return Err(MpiError::Internal {
                            what: format!(
                                "shrink: survivor sets disagree ({built_for:?} vs {survivors:?})"
                            ),
                        });
                    }
                    st.fetched.insert(self.rank);
                    if survivors.iter().all(|r| st.fetched.contains(r)) {
                        st.ready = None;
                        st.fetched.clear();
                    }
                    drop(st);
                    ctx.charge(Phase::Comm, cost);
                    return Ok(Comm::from_inner(inner, my_pos));
                }
            }
            if start.elapsed() >= ctx.watchdog() {
                return Err(MpiError::WatchdogTimeout {
                    phase: "shrink",
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            std::thread::sleep(WAIT_SLICE);
        }
    }
}

#[cfg(test)]
mod tests {
    // Collective behaviour is exercised end-to-end via `cluster::tests`,
    // which owns thread spawning.
}

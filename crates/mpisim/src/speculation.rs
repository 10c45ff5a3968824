//! Speculative task execution: deadline-based straggler hedging with
//! first-result-wins, bit-identical to serial.
//!
//! A straggling-yet-alive rank is the one failure mode shrink-and-recover
//! (PR 5) cannot address: the rank never dies, it just drags every
//! rendezvous. This module provides the runtime half of the hedging
//! subsystem:
//!
//! * [`SpeculationBoard`] — a cross-rank progress board. Owners emit one
//!   [`TaskHeartbeat`] per completed (bootstrap, λ) task and publish their
//!   result payloads; replicas publish too, and the board bit-compares
//!   duplicate publications (the replica of a deterministic task must be
//!   bitwise equal — a mismatch is the silent-corruption tripwire
//!   surfaced as [`MpiError::SpeculationDivergence`]). A cancelled
//!   replica's publication is rejected, never stored.
//! * [`DeadlinePolicy`] — quantile-of-observed-task-times × multiplier,
//!   plus an absolute floor; tasks whose modeled duration exceeds the
//!   deadline are laggards.
//! * [`plan_hedges`] — a pure, deterministic scheduler that replays the
//!   heartbeat record into a hedged virtual-time schedule: laggards are
//!   detected at their next heartbeat tick after the deadline expires, a
//!   replica launches on the rank that frees up earliest, the first
//!   result wins, and the loser is cancelled at its next heartbeat tick.
//!   Every rank evaluates the same function on the same board record, so
//!   all ranks agree on the schedule without any extra collective.
//!
//! The scheduler works on *modeled* durations, never wall time, so the
//! hedged schedule — and therefore every derived makespan and telemetry
//! counter — is a pure function of (data, config, fault plan). Results
//! themselves are never affected: the owner's payload is always the one
//! a pipeline consumes, and replicas exist to (a) shorten the modeled
//! critical path and (b) cross-check bits.
//!
//! One deliberate approximation: a replica rank's availability is taken
//! as its own *unhedged* finish time, updated as replica work is
//! assigned. When several stragglers interact, cascaded second-order
//! effects (a hedged owner freeing up early and serving replicas itself)
//! are scheduled conservatively. The canonical one-straggler-per-plan
//! case is exact.

use crate::comm::RankCtx;
use crate::fault::{MpiError, WAIT_SLICE};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// One completed task's progress record, emitted by its owner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskHeartbeat {
    /// Global task index within the stage (bootstrap index).
    pub task: usize,
    /// Modeled duration at straggle factor 1.0 (seconds).
    pub nominal: f64,
    /// Modeled duration as experienced by the owner (`nominal` × the
    /// owner's straggle factor).
    pub actual: f64,
}

/// Everything one rank reported for a stage: its heartbeats in execution
/// order plus its straggle factor (so the scheduler can cost replicas).
#[derive(Debug, Clone, PartialEq)]
pub struct RankTimings {
    /// Original world rank.
    pub rank: usize,
    /// The rank's injected straggle factor (1.0 = healthy).
    pub straggle: f64,
    /// Completed tasks, in execution order.
    pub tasks: Vec<TaskHeartbeat>,
}

impl RankTimings {
    /// The rank's unhedged stage time: the sum of its actual durations.
    pub fn unhedged_finish(&self) -> f64 {
        self.tasks.iter().map(|t| t.actual).sum()
    }

    /// The rank's fault-free stage time: the sum of nominal durations.
    pub fn healthy_finish(&self) -> f64 {
        self.tasks.iter().map(|t| t.nominal).sum()
    }
}

/// When is a task a laggard, and how fine is the heartbeat clock?
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlinePolicy {
    /// Quantile of the observed task durations the deadline is based on
    /// (e.g. 0.75 = upper quartile).
    pub quantile: f64,
    /// Deadline = quantile duration × this multiplier.
    pub multiplier: f64,
    /// Absolute floor on the deadline (seconds): tiny tasks are never
    /// hedged just because their siblings were even tinier.
    pub floor: f64,
    /// Heartbeat ticks per deadline interval: detection and cancellation
    /// both quantise to this clock.
    pub heartbeats_per_deadline: u32,
    /// Minimum number of observed task durations before any deadline is
    /// derived (below this the schedule never hedges).
    pub min_samples: usize,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        Self {
            quantile: 0.75,
            multiplier: 1.75,
            floor: 0.0,
            heartbeats_per_deadline: 4,
            min_samples: 2,
        }
    }
}

/// One planned hedge: a laggard task, its replica, and who won.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeEvent {
    /// The hedged task index.
    pub task: usize,
    /// Original rank that owns the task.
    pub owner: usize,
    /// Original rank the replica launched on.
    pub replica: usize,
    /// Heartbeat tick at which the task was flagged.
    pub detect_t: f64,
    /// When the replica starts (max of detection and replica idle time).
    pub replica_start: f64,
    /// When the replica would finish if it ran to completion.
    pub replica_end: f64,
    /// True when the replica's result arrives first.
    pub replica_wins: bool,
    /// When the losing party observes the winner's result and stops
    /// (its next heartbeat tick, capped at its own finish).
    pub cancel_t: f64,
}

/// The deterministic hedged schedule for one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeSchedule {
    /// The derived deadline (0.0 when hedging was not possible).
    pub deadline: f64,
    /// The heartbeat tick interval (0.0 when hedging was not possible).
    pub tick: f64,
    /// Planned hedges, in the deterministic walk order.
    pub events: Vec<HedgeEvent>,
    /// Per-rank stage finish time under the hedged schedule.
    pub rank_finish: BTreeMap<usize, f64>,
    /// Slowest rank's hedged finish.
    pub makespan: f64,
}

impl HedgeSchedule {
    /// Hedges whose replica produced the winning result.
    pub fn replica_wins(&self) -> usize {
        self.events.iter().filter(|e| e.replica_wins).count()
    }

    /// Hedges whose replica was cancelled (the owner won the race).
    pub fn replica_cancellations(&self) -> usize {
        self.events.len() - self.replica_wins()
    }
}

/// Max over ranks of the unhedged (straggler-afflicted) stage time.
pub fn makespan_unhedged(timings: &[RankTimings]) -> f64 {
    timings
        .iter()
        .map(RankTimings::unhedged_finish)
        .fold(0.0, f64::max)
}

/// Max over ranks of the fault-free (nominal) stage time.
pub fn makespan_healthy(timings: &[RankTimings]) -> f64 {
    timings
        .iter()
        .map(RankTimings::healthy_finish)
        .fold(0.0, f64::max)
}

/// Nearest-rank quantile of a sorted slice (deterministic, no
/// interpolation).
fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(n - 1)]
}

/// A schedule that hedges nothing: every rank just runs its own queue.
fn unhedged_schedule(timings: &[RankTimings]) -> HedgeSchedule {
    let rank_finish: BTreeMap<usize, f64> = timings
        .iter()
        .map(|rt| (rt.rank, rt.unhedged_finish()))
        .collect();
    let makespan = rank_finish.values().copied().fold(0.0, f64::max);
    HedgeSchedule {
        deadline: 0.0,
        tick: 0.0,
        events: Vec::new(),
        rank_finish,
        makespan,
    }
}

/// Replay a stage's heartbeat record into the hedged schedule.
///
/// The walk is deterministic: ranks are processed in ascending original
/// rank order, each rank's tasks in execution order. A task is a laggard
/// when its actual duration exceeds the deadline; the first laggard of a
/// rank is detected one full deadline after it started (quantised to the
/// heartbeat clock), and once a rank is flagged its subsequent laggards
/// are hedged at their start tick — the policy already knows the rank is
/// slow. The replica runs on the rank with the earliest availability
/// (ties broken by lower rank id) at the replica's own straggle factor.
/// First result wins; the loser stops at its next heartbeat tick.
pub fn plan_hedges(timings: &[RankTimings], policy: &DeadlinePolicy) -> HedgeSchedule {
    let mut ranks: Vec<&RankTimings> = timings.iter().collect();
    ranks.sort_by_key(|rt| rt.rank);

    let mut samples: Vec<f64> = ranks
        .iter()
        .flat_map(|rt| rt.tasks.iter().map(|t| t.actual))
        .collect();
    if ranks.len() < 2 || samples.len() < policy.min_samples || policy.heartbeats_per_deadline == 0
    {
        return unhedged_schedule(timings);
    }
    samples.sort_by(f64::total_cmp);
    let deadline = (quantile_of_sorted(&samples, policy.quantile) * policy.multiplier)
        .max(policy.floor.max(0.0));
    if !deadline.is_finite() || deadline <= 0.0 {
        return unhedged_schedule(timings);
    }
    let tick = deadline / f64::from(policy.heartbeats_per_deadline);
    let tick_ceil = |t: f64| (t / tick).ceil() * tick;

    // Availability for replica work: a rank's own unhedged finish,
    // pushed later as replica assignments land on it.
    let mut avail: BTreeMap<usize, f64> = ranks
        .iter()
        .map(|rt| (rt.rank, rt.unhedged_finish()))
        .collect();
    let straggle: BTreeMap<usize, f64> = ranks.iter().map(|rt| (rt.rank, rt.straggle)).collect();
    // End of the last replica assignment each rank served (0 = none).
    let mut replica_busy: BTreeMap<usize, f64> = ranks.iter().map(|rt| (rt.rank, 0.0)).collect();
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    let mut events: Vec<HedgeEvent> = Vec::new();
    let mut cursors: BTreeMap<usize, f64> = BTreeMap::new();

    for rt in &ranks {
        let mut cursor = 0.0_f64;
        for hb in &rt.tasks {
            let start = cursor;
            let own_end = start + hb.actual;
            if hb.actual <= deadline {
                cursor = own_end;
                continue;
            }
            // Laggard. Already-flagged ranks are hedged at the task's
            // start tick; a fresh flag waits out one full deadline.
            let detect = if flagged.contains(&rt.rank) {
                tick_ceil(start)
            } else {
                tick_ceil(start + deadline)
            };
            flagged.insert(rt.rank);
            if detect >= own_end {
                cursor = own_end;
                continue;
            }
            // Earliest-available peer, ties to the lower rank id.
            let chosen = avail
                .iter()
                .filter(|&(&r, _)| r != rt.rank)
                .map(|(&r, &a)| (a.max(detect), r))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let Some((rep_start, replica)) = chosen else {
                cursor = own_end;
                continue;
            };
            let rep_dur = hb.nominal * straggle.get(&replica).copied().unwrap_or(1.0);
            let rep_end = rep_start + rep_dur;
            if rep_end < own_end {
                // Replica wins: the owner observes the result at its
                // next heartbeat tick and abandons the task.
                let cancel_t = tick_ceil(rep_end).min(own_end);
                events.push(HedgeEvent {
                    task: hb.task,
                    owner: rt.rank,
                    replica,
                    detect_t: detect,
                    replica_start: rep_start,
                    replica_end: rep_end,
                    replica_wins: true,
                    cancel_t,
                });
                avail.insert(replica, rep_end);
                replica_busy
                    .entry(replica)
                    .and_modify(|b| *b = b.max(rep_end))
                    .or_insert(rep_end);
                cursor = cancel_t;
            } else {
                // Owner wins: the replica is cancelled at its next
                // heartbeat tick after the owner finishes (never before
                // the replica even started, never after it finished).
                let cancel_t = tick_ceil(own_end).min(rep_end).max(rep_start);
                events.push(HedgeEvent {
                    task: hb.task,
                    owner: rt.rank,
                    replica,
                    detect_t: detect,
                    replica_start: rep_start,
                    replica_end: rep_end,
                    replica_wins: false,
                    cancel_t,
                });
                avail.insert(replica, cancel_t);
                replica_busy
                    .entry(replica)
                    .and_modify(|b| *b = b.max(cancel_t))
                    .or_insert(cancel_t);
                cursor = own_end;
            }
        }
        cursors.insert(rt.rank, cursor);
    }

    let rank_finish: BTreeMap<usize, f64> = cursors
        .iter()
        .map(|(&r, &c)| (r, c.max(replica_busy.get(&r).copied().unwrap_or(0.0))))
        .collect();
    let makespan = rank_finish.values().copied().fold(0.0, f64::max);
    HedgeSchedule {
        deadline,
        tick,
        events,
        rank_finish,
        makespan,
    }
}

/// Outcome of publishing a task result to the board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// First result for this task: stored.
    Stored,
    /// A result was already stored; `identical` reports the bitwise
    /// comparison against it (false ⇒ speculation divergence).
    Duplicate { identical: bool },
    /// The publisher had already been cancelled for this task; the
    /// payload was dropped, not stored.
    Rejected,
}

#[derive(Debug, Default)]
struct StageState {
    /// First stored result per task: (publisher original rank, payload).
    results: BTreeMap<usize, (usize, Vec<f64>)>,
    /// `(task, rank)` cancellations: that rank may no longer publish
    /// that task.
    cancelled: BTreeSet<(usize, usize)>,
    /// Per-rank in-progress heartbeat streams.
    pending: BTreeMap<usize, Vec<TaskHeartbeat>>,
    /// Ranks that finished the stage, with their straggle factor.
    done: BTreeMap<usize, f64>,
    /// Total heartbeats observed.
    heartbeats: u64,
}

type StageKey = (usize, String);

/// The cross-rank progress board: heartbeats, result publication with
/// first-result-wins plus bitwise duplicate comparison, cancellations,
/// and a failure-aware rendezvous that hands every rank the full stage
/// timing record. Cloned handles share state (like
/// [`crate::cluster::RecoveryStash`]); entries are namespaced by
/// `(recovery round, stage label)` so recovery rounds never observe a
/// previous round's heartbeats.
#[derive(Debug, Clone, Default)]
pub struct SpeculationBoard {
    inner: Arc<Mutex<BTreeMap<StageKey, StageState>>>,
}

impl SpeculationBoard {
    fn key(round: usize, stage: &str) -> StageKey {
        (round, stage.to_string())
    }

    /// Record one completed task's heartbeat for `rank`.
    pub fn heartbeat(&self, round: usize, stage: &str, rank: usize, hb: TaskHeartbeat) {
        let mut inner = self.inner.lock();
        let st = inner.entry(Self::key(round, stage)).or_default();
        st.pending.entry(rank).or_default().push(hb);
        st.heartbeats += 1;
    }

    /// Total heartbeats observed for a stage so far.
    pub fn heartbeats(&self, round: usize, stage: &str) -> u64 {
        self.inner
            .lock()
            .get(&Self::key(round, stage))
            .map_or(0, |st| st.heartbeats)
    }

    /// Publish a task result. The first publication is stored; later
    /// ones are bit-compared against it; a publication from a rank that
    /// was cancelled for this task is rejected outright.
    pub fn publish(
        &self,
        round: usize,
        stage: &str,
        task: usize,
        rank: usize,
        payload: &[f64],
    ) -> PublishOutcome {
        let mut inner = self.inner.lock();
        let st = inner.entry(Self::key(round, stage)).or_default();
        if st.cancelled.contains(&(task, rank)) {
            return PublishOutcome::Rejected;
        }
        match st.results.get(&task) {
            Some((_, stored)) => {
                let identical = stored.len() == payload.len()
                    && stored
                        .iter()
                        .zip(payload)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                PublishOutcome::Duplicate { identical }
            }
            None => {
                st.results.insert(task, (rank, payload.to_vec()));
                PublishOutcome::Stored
            }
        }
    }

    /// Cancel `rank`'s replica (or owner) execution of `task`: any later
    /// publication from that rank for that task is rejected.
    pub fn cancel(&self, round: usize, stage: &str, task: usize, rank: usize) {
        let mut inner = self.inner.lock();
        let st = inner.entry(Self::key(round, stage)).or_default();
        st.cancelled.insert((task, rank));
    }

    /// The stored result for `task`, if any: (publisher rank, payload).
    pub fn result(&self, round: usize, stage: &str, task: usize) -> Option<(usize, Vec<f64>)> {
        self.inner
            .lock()
            .get(&Self::key(round, stage))
            .and_then(|st| st.results.get(&task).cloned())
    }

    /// Mark `rank` finished with the stage, sealing its heartbeat stream
    /// and recording its straggle factor for the replica cost model.
    pub fn finish(&self, round: usize, stage: &str, rank: usize, straggle: f64) {
        let mut inner = self.inner.lock();
        let st = inner.entry(Self::key(round, stage)).or_default();
        st.pending.entry(rank).or_default();
        st.done.insert(rank, straggle);
    }

    fn timings_if_complete(
        &self,
        round: usize,
        stage: &str,
        expected: &[usize],
    ) -> Option<Vec<RankTimings>> {
        let inner = self.inner.lock();
        let st = inner.get(&Self::key(round, stage))?;
        if !expected.iter().all(|r| st.done.contains_key(r)) {
            return None;
        }
        Some(
            expected
                .iter()
                .map(|&r| RankTimings {
                    rank: r,
                    straggle: st.done.get(&r).copied().unwrap_or(1.0),
                    tasks: st.pending.get(&r).cloned().unwrap_or_default(),
                })
                .collect(),
        )
    }

    /// Failure-aware rendezvous: block until every rank in `expected`
    /// has called [`SpeculationBoard::finish`] for this stage, then
    /// return the complete timing record (sorted by `expected` order).
    ///
    /// Polls in `WAIT_SLICE` increments like every other blocking wait
    /// in the runtime: a peer failure surfaces as
    /// [`MpiError::RankFailed`], a revocation as [`MpiError::Revoked`],
    /// and silence past the rank's watchdog as
    /// [`MpiError::WatchdogTimeout`] — never a hang, never a panic.
    pub fn wait_timings(
        &self,
        ctx: &RankCtx,
        round: usize,
        stage: &str,
        expected: &[usize],
    ) -> Result<Vec<RankTimings>, MpiError> {
        let start = Instant::now();
        let watchdog = ctx.watchdog();
        loop {
            if let Some(timings) = self.timings_if_complete(round, stage, expected) {
                return Ok(timings);
            }
            if let Some(abort) = ctx.abort_state() {
                if abort.is_revoked() {
                    return Err(MpiError::Revoked {
                        phase: "speculation_wait",
                    });
                }
                if abort.is_aborted() {
                    let rank = abort.first_failure().unwrap_or(usize::MAX);
                    return Err(MpiError::RankFailed {
                        rank,
                        phase: "speculation_wait",
                    });
                }
            }
            if start.elapsed() >= watchdog {
                return Err(MpiError::WatchdogTimeout {
                    phase: "speculation_wait",
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            std::thread::sleep(WAIT_SLICE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::model::MachineModel;
    use std::time::Duration;

    fn uniform_timings(
        world: usize,
        tasks_per_rank: usize,
        straggler: (usize, f64),
    ) -> Vec<RankTimings> {
        (0..world)
            .map(|r| {
                let factor = if r == straggler.0 { straggler.1 } else { 1.0 };
                RankTimings {
                    rank: r,
                    straggle: factor,
                    tasks: (0..tasks_per_rank)
                        .map(|k| TaskHeartbeat {
                            task: r * tasks_per_rank + k,
                            nominal: 1.0,
                            actual: factor,
                        })
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn no_hedging_below_min_samples_or_single_rank() {
        let policy = DeadlinePolicy::default();
        let single = uniform_timings(1, 4, (0, 3.0));
        let sched = plan_hedges(&single, &policy);
        assert!(sched.events.is_empty());
        assert_eq!(sched.makespan, makespan_unhedged(&single));

        let few = vec![
            RankTimings {
                rank: 0,
                straggle: 1.0,
                tasks: vec![TaskHeartbeat {
                    task: 0,
                    nominal: 1.0,
                    actual: 1.0,
                }],
            },
            RankTimings {
                rank: 1,
                straggle: 1.0,
                tasks: vec![],
            },
        ];
        let strict = DeadlinePolicy {
            min_samples: 2,
            ..DeadlinePolicy::default()
        };
        assert!(plan_hedges(&few, &strict).events.is_empty());
    }

    #[test]
    fn single_straggler_recovers_most_of_the_slowdown() {
        let timings = uniform_timings(4, 4, (1, 4.0));
        let policy = DeadlinePolicy::default();
        let sched = plan_hedges(&timings, &policy);
        let unhedged = makespan_unhedged(&timings);
        let healthy = makespan_healthy(&timings);
        assert!(!sched.events.is_empty(), "straggler tasks must be hedged");
        assert!(sched.makespan < unhedged);
        let recovered = (unhedged - sched.makespan) / (unhedged - healthy);
        assert!(
            recovered >= 0.5,
            "hedging must recover >= 50% of the slowdown, got {recovered:.3} \
             (healthy {healthy}, hedged {}, unhedged {unhedged})",
            sched.makespan
        );
        // Healthy ranks are never flagged.
        for ev in &sched.events {
            assert_eq!(ev.owner, 1);
            assert_ne!(ev.replica, 1);
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_record() {
        let timings = uniform_timings(4, 6, (2, 3.0));
        let policy = DeadlinePolicy::default();
        let a = plan_hedges(&timings, &policy);
        let b = plan_hedges(&timings, &policy);
        assert_eq!(a, b);
        // Shuffled input order must not change the schedule.
        let mut rev = timings;
        rev.reverse();
        assert_eq!(plan_hedges(&rev, &policy), a);
    }

    #[test]
    fn healthy_record_plans_no_hedges() {
        let timings = uniform_timings(4, 4, (0, 1.0));
        let sched = plan_hedges(&timings, &DeadlinePolicy::default());
        assert!(sched.events.is_empty());
        assert!((sched.makespan - 4.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_floor_suppresses_tiny_task_hedges() {
        let timings = uniform_timings(4, 4, (1, 3.0));
        let policy = DeadlinePolicy {
            floor: 100.0,
            ..DeadlinePolicy::default()
        };
        let sched = plan_hedges(&timings, &policy);
        assert!(sched.events.is_empty(), "floor must suppress hedging");
        assert_eq!(sched.deadline, 100.0);
    }

    #[test]
    fn board_first_result_wins_and_bit_compares_duplicates() {
        let board = SpeculationBoard::default();
        assert_eq!(
            board.publish(0, "sel", 3, 0, &[1.0, 2.0]),
            PublishOutcome::Stored
        );
        assert_eq!(
            board.publish(0, "sel", 3, 2, &[1.0, 2.0]),
            PublishOutcome::Duplicate { identical: true }
        );
        assert_eq!(
            board.publish(0, "sel", 3, 2, &[1.0, 2.0 + 1e-16]),
            PublishOutcome::Duplicate { identical: true },
            "2.0 + 1e-16 rounds to 2.0 exactly"
        );
        assert_eq!(
            board.publish(0, "sel", 3, 2, &[1.0, 2.5]),
            PublishOutcome::Duplicate { identical: false }
        );
        assert_eq!(
            board.publish(0, "sel", 3, 2, &[1.0]),
            PublishOutcome::Duplicate { identical: false },
            "length mismatch is a divergence"
        );
        // The stored payload is still the first one.
        assert_eq!(board.result(0, "sel", 3), Some((0, vec![1.0, 2.0])));
    }

    #[test]
    fn cancelled_replicas_never_publish() {
        let board = SpeculationBoard::default();
        board.cancel(0, "est", 7, 3);
        assert_eq!(
            board.publish(0, "est", 7, 3, &[9.0]),
            PublishOutcome::Rejected
        );
        assert_eq!(
            board.result(0, "est", 7),
            None,
            "rejected payload not stored"
        );
        // Another rank can still publish.
        assert_eq!(
            board.publish(0, "est", 7, 0, &[9.0]),
            PublishOutcome::Stored
        );
    }

    #[test]
    fn namespaces_isolate_rounds_and_stages() {
        let board = SpeculationBoard::default();
        board.publish(0, "sel", 0, 0, &[1.0]);
        assert_eq!(board.result(1, "sel", 0), None);
        assert_eq!(board.result(0, "est", 0), None);
        board.heartbeat(
            0,
            "sel",
            0,
            TaskHeartbeat {
                task: 0,
                nominal: 1.0,
                actual: 1.0,
            },
        );
        assert_eq!(board.heartbeats(0, "sel"), 1);
        assert_eq!(board.heartbeats(1, "sel"), 0);
    }

    #[test]
    fn wait_timings_rendezvous_hands_every_rank_the_record() {
        let b = SpeculationBoard::default();
        let report = Cluster::new(3, MachineModel::deterministic()).run(move |ctx, world| {
            let r = world.rank();
            b.heartbeat(
                0,
                "sel",
                r,
                TaskHeartbeat {
                    task: r,
                    nominal: 1.0,
                    actual: if r == 1 { 3.0 } else { 1.0 },
                },
            );
            b.finish(0, "sel", r, if r == 1 { 3.0 } else { 1.0 });
            b.wait_timings(ctx, 0, "sel", &[0, 1, 2])
                .map_err(|e| e.to_string())
        });
        for res in &report.results {
            let timings = res.as_ref().expect("rendezvous must complete");
            assert_eq!(timings.len(), 3);
            assert_eq!(timings[1].straggle, 3.0);
            assert_eq!(timings[1].tasks[0].actual, 3.0);
        }
    }

    #[test]
    fn wait_timings_surfaces_watchdog_timeout_not_a_hang() {
        let b = SpeculationBoard::default();
        let report = Cluster::new(2, MachineModel::deterministic())
            .with_watchdog(Duration::from_millis(40))
            .run(move |ctx, world| {
                let r = world.rank();
                // Rank 1 never finishes: both waiters must time out.
                if r == 0 {
                    b.finish(0, "sel", 0, 1.0);
                }
                b.wait_timings(ctx, 0, "sel", &[0, 1])
            });
        for res in &report.results {
            match res {
                Err(MpiError::WatchdogTimeout { phase, .. }) => {
                    assert_eq!(*phase, "speculation_wait");
                }
                other => panic!("expected watchdog timeout, got {other:?}"),
            }
        }
    }
}

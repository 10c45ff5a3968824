//! Breakdown and load-imbalance analysis over a replayed [`Timeline`]:
//! per-phase totals per rank, collective idle time, max/mean imbalance
//! ratios, and a critical-path estimate — the numbers behind the
//! paper's Table II and Fig 4 decompositions.
//!
//! Definitions:
//!
//! * **wall** — virtual seconds a rank spent charged to a taxonomy
//!   phase (its per-phase timeline length). Per rank, walls over all
//!   phases sum exactly to the rank clock.
//! * **comm** — the subset of wall charged through the Communication
//!   or Distribution ledgers (message cost *plus* rendezvous idle).
//! * **idle** — the subset of comm spent blocked at a collective
//!   before the last rank arrived ([`TraceEvent::CollectiveWait`]
//!   events). A straggler injects idle on every *other* rank at the
//!   next collective; the straggler itself shows high wall, low idle.
//! * **imbalance** — max over ranks / mean over ranks of per-phase
//!   wall; 1.0 is perfectly balanced.
//! * **critical path** — the makespan split across phases by walking
//!   global sync points (collectives spanning the whole communicator)
//!   and attributing each inter-sync segment to the phase that
//!   dominated the busiest rank in that segment. An estimate:
//!   sub-communicator collectives are not treated as sync points.

use crate::json::Json;
use crate::timeline::{LedgerKind, PipelinePhase, Timeline};
use crate::trace::TraceEvent;
use std::collections::BTreeMap;

/// Schema tag stamped into serialized breakdowns.
pub const BREAKDOWN_SCHEMA: &str = "uoi.breakdown/v1";

/// Wall/comm/idle seconds of one taxonomy phase on one rank (or
/// aggregated totals).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSlice {
    pub wall: f64,
    pub comm: f64,
    pub idle: f64,
}

/// One rank's full decomposition.
#[derive(Debug, Clone, Default)]
pub struct RankBreakdown {
    pub rank: usize,
    /// Rank clock at end of run (== sum of phase walls).
    pub wall: f64,
    /// Total collective rendezvous idle.
    pub idle: f64,
    pub phases: BTreeMap<PipelinePhase, PhaseSlice>,
}

/// Cross-rank aggregate for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseAggregate {
    /// Max per-rank wall.
    pub max: f64,
    /// Mean per-rank wall.
    pub mean: f64,
    /// max / mean (1.0 when mean is 0).
    pub imbalance: f64,
    /// Summed comm seconds over ranks.
    pub comm: f64,
    /// Summed idle seconds over ranks.
    pub idle: f64,
}

/// The full analysis result.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub ranks: Vec<RankBreakdown>,
    pub phases: BTreeMap<PipelinePhase, PhaseAggregate>,
    pub makespan: f64,
    /// Idle summed over all ranks and collectives.
    pub total_idle: f64,
    /// Idle seconds summed per collective op label.
    pub collective_idle: BTreeMap<String, f64>,
    /// Makespan attributed to phases along the estimated critical path.
    pub critical_path: BTreeMap<PipelinePhase, f64>,
}

/// Analyze a replayed timeline.
pub fn analyze(tl: &Timeline) -> Breakdown {
    let nranks = tl.ranks.len().max(1);
    let mut ranks = Vec::with_capacity(tl.ranks.len());
    let mut collective_idle: BTreeMap<String, f64> = BTreeMap::new();
    let mut total_idle = 0.0;

    for (&rank, rtl) in &tl.ranks {
        let mut phases: BTreeMap<PipelinePhase, PhaseSlice> = BTreeMap::new();
        for iv in &rtl.intervals {
            let slot = phases.entry(iv.phase).or_default();
            slot.wall += iv.seconds();
            if matches!(iv.ledger, LedgerKind::Comm | LedgerKind::Distribution) {
                slot.comm += iv.seconds();
            }
        }
        let mut idle = 0.0;
        for id in &rtl.idles {
            phases.entry(id.phase).or_default().idle += id.wait;
            *collective_idle.entry(id.op.clone()).or_default() += id.wait;
            idle += id.wait;
        }
        total_idle += idle;
        ranks.push(RankBreakdown {
            rank,
            wall: rtl.clock,
            idle,
            phases,
        });
    }

    let mut phases: BTreeMap<PipelinePhase, PhaseAggregate> = BTreeMap::new();
    for p in PipelinePhase::ALL {
        let walls: Vec<f64> = ranks
            .iter()
            .map(|r| r.phases.get(&p).map_or(0.0, |s| s.wall))
            .collect();
        let max = walls.iter().copied().fold(0.0, f64::max);
        let mean = walls.iter().sum::<f64>() / nranks as f64;
        if max == 0.0 && mean == 0.0 {
            continue;
        }
        let comm: f64 = ranks
            .iter()
            .map(|r| r.phases.get(&p).map_or(0.0, |s| s.comm))
            .sum();
        let idle: f64 = ranks
            .iter()
            .map(|r| r.phases.get(&p).map_or(0.0, |s| s.idle))
            .sum();
        let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
        phases.insert(
            p,
            PhaseAggregate {
                max,
                mean,
                imbalance,
                comm,
                idle,
            },
        );
    }

    let makespan = tl.makespan();
    let critical_path = critical_path_estimate(tl, makespan);

    Breakdown {
        ranks,
        phases,
        makespan,
        total_idle,
        collective_idle,
        critical_path,
    }
}

/// Split the makespan into per-phase contributions along the busiest
/// rank between consecutive global sync points.
fn critical_path_estimate(tl: &Timeline, makespan: f64) -> BTreeMap<PipelinePhase, f64> {
    let mut out: BTreeMap<PipelinePhase, f64> = BTreeMap::new();
    if makespan <= 0.0 {
        return out;
    }
    // Global sync points: collectives spanning the whole world.
    let mut bounds: Vec<f64> = tl
        .collectives
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Collective {
                comm_size, t_end, ..
            } if *comm_size >= tl.world_size => Some(*t_end),
            _ => None,
        })
        .collect();
    bounds.push(makespan);
    bounds.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    bounds.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    let mut seg_start = 0.0;
    for &seg_end in &bounds {
        let span = seg_end - seg_start;
        if span <= 1e-12 {
            continue;
        }
        // Busiest rank in the segment, then its dominant phase. Idle
        // at collective rendezvous is charged through the Comm ledger,
        // so subtract it — a rank blocked waiting for a straggler must
        // not look as busy as the straggler it waits for.
        let mut best: Option<(f64, BTreeMap<PipelinePhase, f64>)> = None;
        for rtl in tl.ranks.values() {
            let mut per_phase: BTreeMap<PipelinePhase, f64> = BTreeMap::new();
            let mut busy = 0.0;
            for iv in &rtl.intervals {
                let overlap = iv.end.min(seg_end) - iv.start.max(seg_start);
                if overlap > 0.0 {
                    *per_phase.entry(iv.phase).or_default() += overlap;
                    busy += overlap;
                }
            }
            for idle in &rtl.idles {
                let overlap = (idle.start + idle.wait).min(seg_end) - idle.start.max(seg_start);
                if overlap > 0.0 {
                    let slot = per_phase.entry(idle.phase).or_default();
                    *slot = (*slot - overlap).max(0.0);
                    busy -= overlap;
                }
            }
            if best.as_ref().is_none_or(|(b, _)| busy > *b) {
                best = Some((busy, per_phase));
            }
        }
        let phase = best
            .and_then(|(_, per_phase)| {
                per_phase
                    .into_iter()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(p, _)| p)
            })
            .unwrap_or(PipelinePhase::Other);
        *out.entry(phase).or_default() += span;
        seg_start = seg_end;
    }
    out
}

impl Breakdown {
    /// Largest relative gap, over ranks, between the sum of per-phase
    /// walls and the rank's measured wall clock. Zero in a healthy
    /// trace; the CI gate asserts it stays under 5%.
    pub fn max_sum_error(&self) -> f64 {
        self.ranks
            .iter()
            .filter(|r| r.wall > 0.0)
            .map(|r| {
                let sum: f64 = r.phases.values().map(|s| s.wall).sum();
                ((sum - r.wall) / r.wall).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Serialize as the `breakdown` block of a `RunReport`.
    pub fn to_json(&self) -> Json {
        let per_rank = Json::Arr(
            self.ranks
                .iter()
                .map(|r| {
                    let phases = Json::Obj(
                        r.phases
                            .iter()
                            .map(|(p, s)| {
                                (
                                    p.label().to_string(),
                                    Json::obj(vec![
                                        ("wall", Json::num(s.wall)),
                                        ("comm", Json::num(s.comm)),
                                        ("idle", Json::num(s.idle)),
                                    ]),
                                )
                            })
                            .collect(),
                    );
                    Json::obj(vec![
                        ("rank", Json::num(r.rank as f64)),
                        ("wall", Json::num(r.wall)),
                        ("idle", Json::num(r.idle)),
                        ("phases", phases),
                    ])
                })
                .collect(),
        );
        let aggregate = Json::Obj(
            self.phases
                .iter()
                .map(|(p, a)| {
                    (
                        p.label().to_string(),
                        Json::obj(vec![
                            ("max", Json::num(a.max)),
                            ("mean", Json::num(a.mean)),
                            ("imbalance", Json::num(a.imbalance)),
                            ("comm", Json::num(a.comm)),
                            ("idle", Json::num(a.idle)),
                        ]),
                    )
                })
                .collect(),
        );
        let collective_idle = Json::Obj(
            self.collective_idle
                .iter()
                .map(|(k, v)| (k.clone(), Json::num(*v)))
                .collect(),
        );
        let critical_path = Json::Obj(
            self.critical_path
                .iter()
                .map(|(p, v)| (p.label().to_string(), Json::num(*v)))
                .collect(),
        );
        Json::obj(vec![
            ("schema", Json::str(BREAKDOWN_SCHEMA)),
            ("makespan", Json::num(self.makespan)),
            ("total_idle", Json::num(self.total_idle)),
            ("per_rank", per_rank),
            ("aggregate", aggregate),
            ("collective_idle", collective_idle),
            ("critical_path", critical_path),
        ])
    }

    /// Human-readable report (the `uoi-trace` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "makespan {:.6}s over {} rank(s); collective idle {:.6}s total\n\n",
            self.makespan,
            self.ranks.len(),
            self.total_idle
        ));
        out.push_str(&format!(
            "{:<16} {:>12} {:>12} {:>10} {:>12} {:>12}\n",
            "phase", "max (s)", "mean (s)", "imbalance", "comm (s)", "idle (s)"
        ));
        for (p, a) in &self.phases {
            out.push_str(&format!(
                "{:<16} {:>12.6} {:>12.6} {:>10.3} {:>12.6} {:>12.6}\n",
                p.label(),
                a.max,
                a.mean,
                a.imbalance,
                a.comm,
                a.idle
            ));
        }
        if !self.critical_path.is_empty() {
            out.push_str("\ncritical path (estimated):\n");
            for (p, v) in &self.critical_path {
                out.push_str(&format!(
                    "  {:<16} {:>12.6}s ({:>5.1}%)\n",
                    p.label(),
                    v,
                    100.0 * v / self.makespan.max(f64::MIN_POSITIVE)
                ));
            }
        }
        if !self.collective_idle.is_empty() {
            out.push_str("\nidle by collective op:\n");
            for (op, v) in &self.collective_idle {
                out.push_str(&format!("  {:<16} {:>12.6}s\n", op, v));
            }
        }
        out.push_str("\nper-rank wall / idle:\n");
        for r in &self.ranks {
            out.push_str(&format!(
                "  rank {:<4} wall {:>12.6}s  idle {:>12.6}s\n",
                r.rank, r.wall, r.idle
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::build_timeline;

    /// Two ranks, one straggler: rank 0 computes 1.0s, rank 1 computes
    /// 3.0s (straggler); both then meet at a global allreduce where
    /// rank 0 idles 2.0s.
    fn straggler_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SpanStart {
                id: 1,
                parent: None,
                name: "admm_dist.solve".into(),
                rank: 0,
                t: 0.0,
            },
            TraceEvent::SpanStart {
                id: 2,
                parent: None,
                name: "admm_dist.solve".into(),
                rank: 1,
                t: 0.0,
            },
            TraceEvent::PhaseCharge {
                rank: 0,
                phase: "Computation",
                seconds: 1.0,
                t: 1.0,
            },
            TraceEvent::PhaseCharge {
                rank: 1,
                phase: "Computation",
                seconds: 3.0,
                t: 3.0,
            },
            TraceEvent::CollectiveWait {
                rank: 0,
                op: "allreduce".into(),
                wait: 2.0,
                cost: 0.5,
                t: 1.0,
            },
            TraceEvent::CollectiveWait {
                rank: 1,
                op: "allreduce".into(),
                wait: 0.0,
                cost: 0.5,
                t: 3.0,
            },
            TraceEvent::PhaseCharge {
                rank: 0,
                phase: "Communication",
                seconds: 2.5,
                t: 3.5,
            },
            TraceEvent::PhaseCharge {
                rank: 1,
                phase: "Communication",
                seconds: 0.5,
                t: 3.5,
            },
            TraceEvent::Collective {
                op: "allreduce".into(),
                comm_size: 2,
                modeled_size: 2,
                bytes: 8,
                t_start: 3.0,
                t_end: 3.5,
                t_min: 0.5,
                t_max: 0.5,
                t_mean: 0.5,
            },
            TraceEvent::SpanEnd {
                id: 1,
                rank: 0,
                t: 3.5,
            },
            TraceEvent::SpanEnd {
                id: 2,
                rank: 1,
                t: 3.5,
            },
        ]
    }

    #[test]
    fn straggler_shows_as_idle_on_the_healthy_rank() {
        let b = analyze(&build_timeline(&straggler_events()));
        assert_eq!(b.ranks.len(), 2);
        let r0 = &b.ranks[0];
        let r1 = &b.ranks[1];
        // Healthy rank idles, straggler does not.
        assert!((r0.idle - 2.0).abs() < 1e-12, "rank 0 idle {}", r0.idle);
        assert!(r1.idle.abs() < 1e-12, "rank 1 idle {}", r1.idle);
        // Imbalance of the local-compute phase is max/mean = 3/2.
        let local = &b.phases[&PipelinePhase::AdmmLocal];
        assert!((local.imbalance - 1.5).abs() < 1e-12);
        // Idle is attributed to the consensus phase.
        let cons = &b.phases[&PipelinePhase::AdmmConsensus];
        assert!((cons.idle - 2.0).abs() < 1e-12);
        assert!((b.collective_idle["allreduce"] - 2.0).abs() < 1e-12);
        // Per-rank phase walls sum exactly to the rank clock.
        assert!(b.max_sum_error() < 1e-12);
        assert!((b.makespan - 3.5).abs() < 1e-12);
    }

    #[test]
    fn critical_path_covers_makespan() {
        let b = analyze(&build_timeline(&straggler_events()));
        let total: f64 = b.critical_path.values().sum();
        assert!(
            (total - b.makespan).abs() < 1e-9,
            "critical path {total} vs {}",
            b.makespan
        );
        // The pre-sync segment is dominated by the straggler's local
        // compute.
        assert!(b.critical_path[&PipelinePhase::AdmmLocal] > 0.0);
    }

    #[test]
    fn breakdown_serialises_with_schema() {
        let b = analyze(&build_timeline(&straggler_events()));
        let doc = Json::parse(&b.to_json().to_string_pretty()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(BREAKDOWN_SCHEMA));
        let agg = doc.get("aggregate").unwrap();
        assert!(agg.get("admm_local").is_some());
        assert!(
            agg.get("admm_consensus")
                .unwrap()
                .get("idle")
                .unwrap()
                .as_num()
                .unwrap()
                > 1.9
        );
        let ranks = doc.get("per_rank").unwrap().as_arr().unwrap();
        assert_eq!(ranks.len(), 2);
        // Render must mention every active phase label.
        let text = b.render();
        assert!(text.contains("admm_local") && text.contains("admm_consensus"));
    }

    #[test]
    fn empty_timeline_analyzes_cleanly() {
        let b = analyze(&build_timeline(&[]));
        assert!(b.ranks.is_empty());
        assert_eq!(b.makespan, 0.0);
        assert!(b.critical_path.is_empty());
        assert_eq!(b.max_sum_error(), 0.0);
    }
}

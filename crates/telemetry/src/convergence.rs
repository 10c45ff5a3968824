//! Solver-quality aggregation over [`TraceEvent::Convergence`] records:
//! the per-(bootstrap, λ) ADMM outcomes the pipelines emit are folded
//! into a schema-versioned report with per-λ iteration histograms,
//! non-converged fraction, iteration-cap-hit detection, and UoI's
//! defining statistic — selection stability across bootstraps.
//!
//! Determinism: the report is a pure function of the *set* of
//! convergence records (records are keyed and sorted before
//! aggregation, and the wall-clock `t` field is ignored), so two runs
//! of the same fit serialize to byte-identical JSON even though rayon
//! delivers the records in a different order each time.

use crate::json::Json;
use crate::metrics::HistogramSummary;
use crate::trace::TraceEvent;
use std::collections::{BTreeMap, BTreeSet};

/// Schema tag stamped into serialized convergence reports.
pub const CONVERGENCE_SCHEMA: &str = "uoi.convergence_report/v1";

/// One pipeline stage's convergence tallies.
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    /// Number of solve tasks observed in this stage.
    pub tasks: usize,
    /// Tasks whose solver reported `converged == false`.
    pub nonconverged: usize,
    /// Tasks that ran all the way to the iteration cap.
    pub cap_hits: usize,
    /// Iteration-count distribution across the stage's tasks.
    pub iterations: HistogramSummary,
}

/// Convergence tallies for one point on the λ path (selection stage).
#[derive(Debug, Clone)]
pub struct LambdaStats {
    pub lambda_idx: usize,
    pub lambda: f64,
    pub tasks: usize,
    pub nonconverged: usize,
    pub cap_hits: usize,
    pub iterations: HistogramSummary,
}

/// Selection-stability block: how consistently features are picked
/// across the B1 selection bootstraps, and how much the support set
/// churns between adjacent λ values.
#[derive(Debug, Clone, Default)]
pub struct StabilityStats {
    /// Distinct selection bootstraps observed.
    pub bootstraps: usize,
    /// 1 + max feature index seen in any support.
    pub n_features: usize,
    /// Per-feature fraction of bootstraps whose λ-path union support
    /// contains the feature. Always in [0, 1].
    pub selection_probability: Vec<f64>,
    /// Per λ-transition (idx j → j+1) mean Jaccard distance
    /// |SΔS'|/|S∪S'| of adjacent supports, averaged over bootstraps
    /// (0 when both supports are empty).
    pub support_churn: Vec<f64>,
}

/// The aggregated convergence report attached to run reports and
/// rendered by `uoi_trace convergence`.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceReport {
    pub tasks: usize,
    pub nonconverged: usize,
    pub cap_hits: usize,
    pub iterations: HistogramSummary,
    pub selection: StageStats,
    pub estimation: StageStats,
    pub per_lambda: Vec<LambdaStats>,
    pub stability: StabilityStats,
}

/// The fields of a convergence record the report aggregates, keyed so
/// duplicate-free ordering is deterministic.
struct Rec<'a> {
    stage: &'a str,
    bootstrap: usize,
    lambda_idx: usize,
    lambda: f64,
    iterations: usize,
    max_iter: usize,
    converged: bool,
    support: &'a [usize],
}

impl ConvergenceReport {
    /// Fraction of all tasks that failed to converge (0 when empty).
    pub fn nonconverged_fraction(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.nonconverged as f64 / self.tasks as f64
        }
    }

    /// Aggregate every [`TraceEvent::Convergence`] record in `events`.
    /// Other event kinds are ignored, so a full mixed trace can be
    /// passed straight in.
    pub fn from_events(events: &[TraceEvent]) -> ConvergenceReport {
        let mut recs: Vec<Rec<'_>> = events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Convergence {
                    stage,
                    bootstrap,
                    lambda_idx,
                    lambda,
                    iterations,
                    max_iter,
                    converged,
                    support,
                    ..
                } => Some(Rec {
                    stage,
                    bootstrap: *bootstrap,
                    lambda_idx: *lambda_idx,
                    lambda: *lambda,
                    iterations: *iterations,
                    max_iter: *max_iter,
                    converged: *converged,
                    support,
                }),
                _ => None,
            })
            .collect();
        // Records arrive in rayon/worker order; sort on the task key so
        // aggregation (and the serialized report) is order-independent.
        recs.sort_by(|a, b| {
            (a.stage, a.bootstrap, a.lambda_idx).cmp(&(b.stage, b.bootstrap, b.lambda_idx))
        });

        let mut report = ConvergenceReport::default();
        let mut all_iters = Vec::with_capacity(recs.len());
        let mut sel_iters = Vec::new();
        let mut est_iters = Vec::new();
        let mut by_lambda: BTreeMap<usize, (f64, Vec<f64>, usize, usize)> = BTreeMap::new();
        // bootstrap -> lambda_idx -> support (selection stage only).
        let mut supports: BTreeMap<usize, BTreeMap<usize, &[usize]>> = BTreeMap::new();

        for r in &recs {
            report.tasks += 1;
            let cap_hit = r.max_iter > 0 && r.iterations >= r.max_iter;
            if !r.converged {
                report.nonconverged += 1;
            }
            if cap_hit {
                report.cap_hits += 1;
            }
            all_iters.push(r.iterations as f64);
            let stage = if r.stage == "selection" {
                &mut report.selection
            } else {
                &mut report.estimation
            };
            stage.tasks += 1;
            if !r.converged {
                stage.nonconverged += 1;
            }
            if cap_hit {
                stage.cap_hits += 1;
            }
            if r.stage == "selection" {
                sel_iters.push(r.iterations as f64);
                let entry = by_lambda
                    .entry(r.lambda_idx)
                    .or_insert_with(|| (r.lambda, Vec::new(), 0, 0));
                entry.1.push(r.iterations as f64);
                if !r.converged {
                    entry.2 += 1;
                }
                if cap_hit {
                    entry.3 += 1;
                }
                supports
                    .entry(r.bootstrap)
                    .or_default()
                    .insert(r.lambda_idx, r.support);
            } else {
                est_iters.push(r.iterations as f64);
            }
        }

        report.iterations = HistogramSummary::from_samples(&all_iters);
        report.selection.iterations = HistogramSummary::from_samples(&sel_iters);
        report.estimation.iterations = HistogramSummary::from_samples(&est_iters);
        report.per_lambda = by_lambda
            .into_iter()
            .map(|(idx, (lambda, iters, noncv, caps))| LambdaStats {
                lambda_idx: idx,
                lambda,
                tasks: iters.len(),
                nonconverged: noncv,
                cap_hits: caps,
                iterations: HistogramSummary::from_samples(&iters),
            })
            .collect();
        report.stability = stability(&supports);
        report
    }

    pub fn to_json(&self) -> Json {
        let stage = |s: &StageStats| {
            Json::obj(vec![
                ("tasks", Json::num(s.tasks as f64)),
                ("nonconverged", Json::num(s.nonconverged as f64)),
                ("cap_hits", Json::num(s.cap_hits as f64)),
                ("iterations", s.iterations.to_json()),
            ])
        };
        Json::obj(vec![
            ("schema", Json::str(CONVERGENCE_SCHEMA)),
            ("tasks", Json::num(self.tasks as f64)),
            ("nonconverged", Json::num(self.nonconverged as f64)),
            (
                "nonconverged_fraction",
                Json::num(self.nonconverged_fraction()),
            ),
            ("cap_hits", Json::num(self.cap_hits as f64)),
            ("iterations", self.iterations.to_json()),
            (
                "stages",
                Json::obj(vec![
                    ("selection", stage(&self.selection)),
                    ("estimation", stage(&self.estimation)),
                ]),
            ),
            (
                "per_lambda",
                Json::Arr(
                    self.per_lambda
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("lambda_idx", Json::num(l.lambda_idx as f64)),
                                ("lambda", Json::num(l.lambda)),
                                ("tasks", Json::num(l.tasks as f64)),
                                ("nonconverged", Json::num(l.nonconverged as f64)),
                                ("cap_hits", Json::num(l.cap_hits as f64)),
                                ("iterations", l.iterations.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stability",
                Json::obj(vec![
                    ("bootstraps", Json::num(self.stability.bootstraps as f64)),
                    ("n_features", Json::num(self.stability.n_features as f64)),
                    (
                        "selection_probability",
                        Json::Arr(
                            self.stability
                                .selection_probability
                                .iter()
                                .map(|&p| Json::num(p))
                                .collect(),
                        ),
                    ),
                    (
                        "support_churn",
                        Json::Arr(
                            self.stability
                                .support_churn
                                .iter()
                                .map(|&c| Json::num(c))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// Human-readable rendering for `uoi_trace convergence`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "convergence: {} tasks, {} non-converged ({:.1}%), {} cap hits\n",
            self.tasks,
            self.nonconverged,
            100.0 * self.nonconverged_fraction(),
            self.cap_hits
        ));
        out.push_str(&format!(
            "  selection : {:4} tasks, iter p50 {:6.1} p99 {:6.1} max {:6.0}\n",
            self.selection.tasks,
            self.selection.iterations.p50,
            self.selection.iterations.p99,
            self.selection.iterations.max
        ));
        out.push_str(&format!(
            "  estimation: {:4} tasks, iter p50 {:6.1} p99 {:6.1} max {:6.0}\n",
            self.estimation.tasks,
            self.estimation.iterations.p50,
            self.estimation.iterations.p99,
            self.estimation.iterations.max
        ));
        if !self.per_lambda.is_empty() {
            out.push_str("  per-lambda iterations (selection):\n");
            for l in &self.per_lambda {
                out.push_str(&format!(
                    "    λ[{:2}] = {:10.6}  tasks {:3}  p50 {:6.1}  max {:6.0}  nonconv {}\n",
                    l.lambda_idx,
                    l.lambda,
                    l.tasks,
                    l.iterations.p50,
                    l.iterations.max,
                    l.nonconverged
                ));
            }
        }
        let st = &self.stability;
        if st.bootstraps > 0 {
            let stable = st
                .selection_probability
                .iter()
                .filter(|&&p| p >= 1.0)
                .count();
            out.push_str(&format!(
                "  stability: {} bootstraps over {} features, {} features selected in every bootstrap\n",
                st.bootstraps, st.n_features, stable
            ));
            if !st.support_churn.is_empty() {
                let mean_churn =
                    st.support_churn.iter().sum::<f64>() / st.support_churn.len() as f64;
                out.push_str(&format!(
                    "  support churn across λ: mean {:.3} over {} transitions\n",
                    mean_churn,
                    st.support_churn.len()
                ));
            }
        }
        out
    }
}

/// Selection-stability statistics from the per-(bootstrap, λ) supports.
fn stability(supports: &BTreeMap<usize, BTreeMap<usize, &[usize]>>) -> StabilityStats {
    let mut st = StabilityStats {
        bootstraps: supports.len(),
        ..Default::default()
    };
    if supports.is_empty() {
        return st;
    }
    let n_features = supports
        .values()
        .flat_map(|per_l| per_l.values())
        .flat_map(|s| s.iter())
        .map(|&f| f + 1)
        .max()
        .unwrap_or(0);
    st.n_features = n_features;

    // Per-feature probability: fraction of bootstraps whose union
    // support (over the whole λ path) contains the feature.
    let mut counts = vec![0usize; n_features];
    for per_l in supports.values() {
        let union: BTreeSet<usize> = per_l.values().flat_map(|s| s.iter().copied()).collect();
        for f in union {
            counts[f] += 1;
        }
    }
    st.selection_probability = counts
        .into_iter()
        .map(|c| c as f64 / supports.len() as f64)
        .collect();

    // Support churn: Jaccard distance between supports at adjacent λ
    // indices, averaged over bootstraps that have both endpoints.
    let lambda_ids: BTreeSet<usize> = supports
        .values()
        .flat_map(|per_l| per_l.keys().copied())
        .collect();
    let ids: Vec<usize> = lambda_ids.into_iter().collect();
    for w in ids.windows(2) {
        let (a_id, b_id) = (w[0], w[1]);
        let mut total = 0.0;
        let mut n = 0usize;
        for per_l in supports.values() {
            let (Some(a), Some(b)) = (per_l.get(&a_id), per_l.get(&b_id)) else {
                continue;
            };
            let sa: BTreeSet<usize> = a.iter().copied().collect();
            let sb: BTreeSet<usize> = b.iter().copied().collect();
            let union = sa.union(&sb).count();
            let inter = sa.intersection(&sb).count();
            total += if union == 0 {
                0.0
            } else {
                (union - inter) as f64 / union as f64
            };
            n += 1;
        }
        if n > 0 {
            st.support_churn.push(total / n as f64);
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        stage: &'static str,
        bootstrap: usize,
        lambda_idx: usize,
        lambda: f64,
        iterations: usize,
        converged: bool,
        support: Vec<usize>,
    ) -> TraceEvent {
        TraceEvent::Convergence {
            rank: 0,
            stage,
            bootstrap,
            lambda_idx,
            lambda,
            iterations,
            max_iter: 100,
            converged,
            primal_residual: 1e-8,
            dual_residual: 1e-8,
            support,
            curve: Vec::new(),
            t: 0.0,
        }
    }

    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            rec("selection", 0, 0, 1.0, 10, true, vec![0, 1]),
            rec("selection", 0, 1, 0.5, 20, true, vec![0, 1, 2]),
            rec("selection", 1, 0, 1.0, 12, true, vec![0]),
            rec("selection", 1, 1, 0.5, 100, false, vec![0, 3]),
            rec("estimation", 0, 0, 0.0, 0, true, vec![]),
            rec("estimation", 1, 0, 0.0, 0, true, vec![]),
        ]
    }

    #[test]
    fn counts_stages_and_lambdas() {
        let r = ConvergenceReport::from_events(&sample_trace());
        assert_eq!(r.tasks, 6);
        assert_eq!(r.selection.tasks, 4);
        assert_eq!(r.estimation.tasks, 2);
        assert_eq!(r.nonconverged, 1);
        assert_eq!(r.cap_hits, 1);
        assert!((r.nonconverged_fraction() - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(r.per_lambda.len(), 2);
        assert_eq!(r.per_lambda[1].nonconverged, 1);
        assert_eq!(r.per_lambda[1].cap_hits, 1);
        assert_eq!(r.per_lambda[0].tasks, 2);
        assert!((r.per_lambda[0].iterations.p50 - 11.0).abs() < 1e-12);
    }

    #[test]
    fn stability_probabilities_and_churn() {
        let r = ConvergenceReport::from_events(&sample_trace());
        let st = &r.stability;
        assert_eq!(st.bootstraps, 2);
        assert_eq!(st.n_features, 4);
        // Feature 0 in both bootstraps; 1 and 2 only in bootstrap 0;
        // 3 only in bootstrap 1.
        assert_eq!(st.selection_probability, vec![1.0, 0.5, 0.5, 0.5]);
        assert!(st
            .selection_probability
            .iter()
            .all(|&p| (0.0..=1.0).contains(&p)));
        // Bootstrap 0: {0,1} -> {0,1,2} churn 1/3. Bootstrap 1:
        // {0} -> {0,3} churn 1/2. Mean 5/12.
        assert_eq!(st.support_churn.len(), 1);
        assert!((st.support_churn[0] - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn report_is_order_independent_and_ignores_t() {
        let mut shuffled = sample_trace();
        shuffled.reverse();
        // Perturb wall-clock stamps: the report must not see them.
        for ev in &mut shuffled {
            if let TraceEvent::Convergence { t, .. } = ev {
                *t += 123.456;
            }
        }
        let a = ConvergenceReport::from_events(&sample_trace())
            .to_json()
            .to_string_compact();
        let b = ConvergenceReport::from_events(&shuffled)
            .to_json()
            .to_string_compact();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_is_a_zero_report() {
        let r = ConvergenceReport::from_events(&[]);
        assert_eq!(r.tasks, 0);
        assert_eq!(r.nonconverged_fraction(), 0.0);
        assert!(r.per_lambda.is_empty());
        assert_eq!(r.stability.bootstraps, 0);
        // Still serializes with the schema tag.
        let j = r.to_json();
        assert_eq!(
            j.get("schema").and_then(|s| s.as_str()),
            Some(CONVERGENCE_SCHEMA)
        );
    }

    /// The serialised report's shape, which the run report's
    /// `convergence` block and `uoi_trace convergence --json` share:
    /// every required key, and the bounds each count obeys.
    #[test]
    fn json_has_every_required_key_within_bounds() {
        let j = ConvergenceReport::from_events(&sample_trace()).to_json();
        let schema = j.get("schema").and_then(Json::as_str);
        assert_eq!(schema, Some(CONVERGENCE_SCHEMA));
        let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_num).expect(key);
        let nonneg = |v: &Json, keys: &[&str]| keys.iter().all(|k| num(v, k) >= 0.0);
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        let counted = |v: &Json| {
            let hist = v.get("iterations").expect("iterations");
            let quantiles = ["min", "max", "mean", "p50", "p90", "p95", "p99"];
            assert!(quantiles.iter().all(|q| num(hist, q).is_finite()));
            assert!(nonneg(v, &["tasks", "nonconverged", "cap_hits"]) && nonneg(hist, &["count"]));
        };
        counted(&j);
        assert!(unit(num(&j, "nonconverged_fraction")));
        let stages = j.get("stages").expect("stages");
        counted(stages.get("selection").expect("selection"));
        counted(stages.get("estimation").expect("estimation"));
        let per_lambda = j.get("per_lambda").and_then(Json::as_arr).unwrap();
        assert_eq!(per_lambda.len(), 2);
        for l in per_lambda {
            assert!(nonneg(l, &["lambda_idx", "lambda"]));
            counted(l);
        }
        let st = j.get("stability").expect("stability");
        assert!(nonneg(st, &["bootstraps", "n_features"]));
        let list = |key| st.get(key).and_then(Json::as_arr).expect(key).iter();
        assert!(list("selection_probability").all(|p| unit(p.as_num().unwrap())));
        assert!(list("support_churn").all(|c| c.as_num().unwrap() >= 0.0));
    }

    #[test]
    fn ignores_unrelated_events() {
        let mut evs = sample_trace();
        evs.push(TraceEvent::Io {
            rank: 0,
            seconds: 1.0,
            t: 1.0,
        });
        let r = ConvergenceReport::from_events(&evs);
        assert_eq!(r.tasks, 6);
    }

    #[test]
    fn render_mentions_key_numbers() {
        let text = ConvergenceReport::from_events(&sample_trace()).render();
        assert!(text.contains("6 tasks"));
        assert!(text.contains("stability: 2 bootstraps"));
        assert!(text.contains("per-lambda"));
    }
}

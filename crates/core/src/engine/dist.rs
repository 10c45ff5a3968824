//! The distributed executor: one SPMD Map–Solve–Reduce skeleton (paper
//! §III) for both problems. A [`DistProblem`] brings its data onto the
//! ranks and runs the Map and Solve of each stage; [`fit_dist`] owns the
//! Reduce — fault-plan skipping and quorum, task placement over the
//! `P_B x P_lambda x ADMM` layout, the group leaders' convergence records
//! and votes, the eq. 3 vote allreduce and soft intersection, and the
//! eq. 4 average of the winners.

use super::{degradation_report, estimation_record, selection_record, FitParts, Votes};
use crate::error::UoiError;
use crate::fitter::DistOptions;
use crate::numerical::NumericalLedger;
use crate::parallelism::LayoutComms;
use crate::support::dedup_family;
use crate::uoi_lasso::{required_votes, UoiLassoConfig};
use uoi_mpisim::{Comm, RankCtx};
use uoi_solvers::{support_of, AdmmSolution};

/// Receives each finished task `k` of a stage, with the rank context.
pub(crate) type Emit<'e, T> = dyn FnMut(&mut RankCtx, usize, T) + 'e;

/// What a problem's distributed pipeline does differently: its data
/// placement, the Map and Solve of both stages, and its fit.
pub(crate) trait DistProblem<'a>: Sized {
    /// Validated inputs, built once per fit and read by every rank.
    type Input: 'a;
    type Fit;
    /// Per-rank statistics returned next to the fit.
    type Stats;
    /// Trace spans of the selection and estimation stages.
    const SPANS: [&'static str; 2];

    /// Bring the data onto this rank (centring and the shared λ grid
    /// included), split the layout's communicators, and note the
    /// validation findings on the rank's ledger.
    fn setup(
        ctx: &mut RankCtx,
        world: &Comm,
        opts: &DistOptions,
        input: &'a Self::Input,
    ) -> (Self, LayoutComms);
    fn lambdas(&self) -> &[f64];
    /// Length of the vectorised coefficient (and support) space.
    fn coef_len(&self) -> usize;
    fn ledger(&self) -> &NumericalLedger;
    /// Solve each of the live bootstraps `boots` over the λ indices
    /// `lambda_ids` and emit its path (vectorised `beta` per λ). A task
    /// the numerical fallback ladder drops — agreed across the ADMM
    /// communicator — emits nothing.
    fn select(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        boots: &[usize],
        lambda_ids: &[usize],
        emit: &mut Emit<Vec<AdmmSolution>>,
    );
    /// Solve every candidate of `family` exactly on each of the live
    /// resamples `ks` ([`super::solve_candidate`]) and emit the winner's
    /// vectorised estimate (`None` for an empty family).
    fn estimate(
        &mut self,
        ctx: &mut RankCtx,
        comm: &Comm,
        family: &[Vec<usize>],
        ks: &[usize],
        emit: &mut Emit<Option<Vec<f64>>>,
    );
    /// The fit from the averaged winning coefficients.
    fn assemble(self, coef: Vec<f64>, parts: FitParts) -> (Self::Fit, Self::Stats);
}

/// Fit `P` over `world`; every rank returns the identical fit. Quorum
/// loss under the configured fault plan is the serial fit's typed error,
/// returned by every rank before any collective.
pub(crate) fn fit_dist<'a, P: DistProblem<'a>>(
    ctx: &mut RankCtx,
    world: &Comm,
    cfg: &UoiLassoConfig,
    opts: &DistOptions,
    input: &'a P::Input,
) -> Result<(P::Fit, P::Stats), UoiError> {
    // The deterministic task-failure plan is identical on every rank, so
    // all ranks skip the same tasks and the collectives stay aligned.
    // Checkpointing is a serial-fit feature.
    let plan = cfg.degradation.plan.as_ref();
    let sel_dead = |k: usize| plan.is_some_and(|pl| pl.selection_failed(k));
    let est_dead = |k: usize| plan.is_some_and(|pl| pl.estimation_failed(k));
    let effective = (
        (0..cfg.b1).filter(|&k| !sel_dead(k)).count(),
        (0..cfg.b2).filter(|&k| !est_dead(k)).count(),
    );
    cfg.degradation
        .check_quorum("selection", effective.0, cfg.b1)?;
    cfg.degradation
        .check_quorum("estimation", effective.1, cfg.b2)?;

    let (mut prob, comms) = P::setup(ctx, world, opts, input);
    let (layout, leader, len) = (opts.layout, comms.is_group_leader(), prob.coef_len());
    let lambdas = prob.lambdas().to_vec();

    // Selection: each (bootstrap group, λ group) pair solves its share of
    // the (k, λ_j) grid; group leaders record and vote, and one world
    // allreduce realises eq. 3 for every λ at once.
    let span = ctx.span_enter(P::SPANS[0]);
    let lambda_ids = layout.lambdas_for(comms.l_group, cfg.q);
    let boots: Vec<usize> = layout
        .bootstraps_for(comms.b_group, cfg.b1)
        .into_iter()
        .filter(|&k| !sel_dead(k))
        .collect();
    let mut votes = Votes::new(cfg.q, len);
    let mut emit = |ctx: &mut RankCtx, k: usize, path: Vec<AdmmSolution>| {
        if !leader {
            return;
        }
        for (&j, sol) in lambda_ids.iter().zip(path) {
            let support = support_of(&sol.beta, cfg.support_tol);
            let (at, max_iter) = ((ctx.world_rank(), ctx.clock()), cfg.admm.max_iter);
            ctx.telemetry().record_with(|| {
                selection_record((k, j, lambdas[j]), sol, max_iter, support.clone(), at)
            });
            votes.add(j, &support);
        }
    };
    prob.select(ctx, &comms.admm_comm, &boots, &lambda_ids, &mut emit);
    world.allreduce_sum(ctx, &mut votes.counts);
    let needed = required_votes(cfg.intersection_frac, effective.0);
    let supports_per_lambda = votes.supports(needed);
    let support_family = dedup_family(supports_per_lambda.clone());
    ctx.span_exit(span);

    // Estimation: the resamples spread over all groups; the leaders'
    // winners are averaged by one world allreduce (eq. 4).
    let span = ctx.span_enter(P::SPANS[1]);
    let groups = layout.p_b * layout.p_lambda;
    let my_group = comms.b_group * layout.p_lambda + comms.l_group;
    let ks: Vec<usize> = (0..cfg.b2)
        .filter(|&k| k % groups == my_group && !est_dead(k))
        .collect();
    let mut sum = vec![0.0; len];
    let mut emit = |ctx: &mut RankCtx, k: usize, best: Option<Vec<f64>>| {
        if !leader {
            return;
        }
        let at = (ctx.world_rank(), ctx.clock());
        ctx.telemetry().record_with(|| estimation_record(k, at));
        for (s, b) in sum.iter_mut().zip(best.iter().flatten()) {
            *s += b;
        }
    };
    prob.estimate(ctx, &comms.admm_comm, &support_family, &ks, &mut emit);
    world.allreduce_sum(ctx, &mut sum);
    ctx.span_exit(span);

    let coef = sum.iter().map(|v| v / effective.1 as f64).collect();
    let parts = FitParts {
        supports_per_lambda,
        support_family,
        degradation: degradation_report(cfg, plan, effective, needed),
        recovery: None,
        speculation: None,
        numerical: cfg.numerical.active().then(|| prob.ledger().drain_report()),
    };
    Ok(prob.assemble(coef, parts))
}

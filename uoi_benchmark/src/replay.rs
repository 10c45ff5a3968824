//! Traced replays of the serial fits. Each replay repeats the library's
//! serial `fit_inner` call for call, using only public functions, with a
//! span around every call into a layer, so its self times say where a
//! fit's measured time goes. A replay must reproduce the public fit bit
//! for bit; the traced run checks that on every replay.
//!
//! Work counters (flops, computed bytes, iterations) are counted here,
//! at the same boundaries as the spans. Bytes are computed from array
//! sizes and ignore cache misses.

use crate::trace::Tracer;
use crate::workload::FitOut;
use uoi_core::support::{dedup_family, intersect_many};
use uoi_core::{UoiLassoConfig, UoiVarConfig, VarRegression};
use uoi_data::bootstrap::{block_bootstrap, default_block_len, resample_weights, row_bootstrap};
use uoi_data::rng::substream;
use uoi_linalg::{dot, gemv, gemv_t_weighted_multi, gram_batch, gram_rhs_batch, kernels, Matrix};
use uoi_solvers::{
    geometric_grid, lambda_max, lambda_path, ols_on_support_gram, support_of, AdmmSolution,
    LassoAdmm,
};

/// Work counted during one replayed fit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    pub gram_flops: f64,
    pub gram_bytes: f64,
    pub admm_iters: u64,
    pub admm_bytes: f64,
    pub nonconverged: u64,
    pub ols_calls: u64,
    pub family_size: usize,
    pub union_size: usize,
    /// Largest KKT violation of any selection solve, relative to its
    /// lambda.
    pub kkt_rel_max: f64,
}

impl ReplayStats {
    /// Count a batched weighted Gram over `batch` resamples of an
    /// `n x m` design (upper triangle), plus `rhs` weighted right-hand
    /// sides per resample built in the same pass.
    fn gram(&mut self, n: usize, m: usize, batch: usize, rhs: usize) {
        let (n, m, b, r) = (n as f64, m as f64, batch as f64, rhs as f64);
        self.gram_flops += b * (n * m * (m + 1.0) + 2.0 * n * m * r);
        // Design and responses streamed once, weights and outputs per
        // resample.
        self.gram_bytes += 8.0 * (n * m + n * r + b * (n + m * (m + 1.0) / 2.0 + m * r));
    }

    /// Count one weighted multi-right-hand-side pass `X^T diag(w) Y` over
    /// an `n x m` design and `cols` responses.
    fn rhs(&mut self, n: usize, m: usize, cols: usize) {
        let (n, m, c) = (n as f64, m as f64, cols as f64);
        self.gram_flops += 2.0 * n * m * c;
        self.gram_bytes += 8.0 * (n * m + n + n * c + m * c);
    }

    /// Count a solved lambda path on an `m`-coefficient system: each ADMM
    /// iteration reads the `m x m` triangular factor twice (forward and
    /// back substitution).
    fn path(&mut self, m: usize, sols: &[AdmmSolution]) {
        for s in sols {
            self.admm_iters += s.iterations as u64;
            self.admm_bytes += s.iterations as f64 * 8.0 * (m * m) as f64;
            self.nonconverged += u64::from(!s.converged);
        }
    }
}

/// One selection system kept for the KKT check: the upper-stored Gram,
/// its right-hand sides, and each right-hand side's solved path.
struct KktInput {
    gram: Matrix,
    paths: Vec<(Vec<f64>, Vec<AdmmSolution>)>,
}

/// Largest relative KKT violation over every saved solve, computed from
/// `g = xty - G beta` on the upper Gram. Runs after the fit's spans close.
fn kkt_rel_max(inputs: &[KktInput], lambdas: &[f64]) -> f64 {
    let mut worst = 0.0_f64;
    for input in inputs {
        let mut gb = vec![0.0; input.gram.rows()];
        for (xty, sols) in &input.paths {
            for (sol, &lambda) in sols.iter().zip(lambdas) {
                kernels::symv(&input.gram, &sol.beta, &mut gb);
                for ((&b, &r), &g) in sol.beta.iter().zip(xty).zip(&gb) {
                    let grad = r - g;
                    let v = if b.abs() > 1e-10 {
                        (grad - lambda * b.signum()).abs()
                    } else {
                        (grad.abs() - lambda).max(0.0)
                    };
                    worst = worst.max(v / lambda);
                }
            }
        }
    }
    worst
}

/// The MSE on the out-of-bag rows of one candidate's coefficients.
fn oob_mse(xu: &Matrix, y: &[f64], beta: &[f64], eval: &[usize]) -> f64 {
    let mut sum = 0.0;
    for &e in eval {
        let d = dot(xu.row(e), beta) - y[e];
        sum += d * d;
    }
    sum / eval.len() as f64
}

/// Replay `UoiFitter::fit` (serial) on `(x, y)`.
pub fn replay_lasso(
    cfg: &UoiLassoConfig,
    x: &Matrix,
    y: &[f64],
    t: &mut Tracer,
) -> (FitOut, ReplayStats) {
    let mut st = ReplayStats::default();
    let mut kkt = Vec::new();
    let (out, lambdas) = t.span("fit", |t| {
        let (n, p) = x.shape();
        let (xc, yc, x_means, y_mean) = t.span("core.centre", |_| {
            let x_means = x.col_means();
            let y_mean = y.iter().sum::<f64>() / n as f64;
            let mut xc = x.clone();
            xc.center_cols(&x_means);
            let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
            (xc, yc, x_means, y_mean)
        });
        let lambdas = t.span("solvers.lambda_path", |_| {
            lambda_path(&xc, &yc, cfg.q, cfg.lambda_min_ratio)
        });

        // Selection: B1 bootstraps, one batched Gram pass, one path each.
        let weights: Vec<Vec<f64>> = t.span("data.resample", |_| {
            (0..cfg.b1)
                .map(|k| {
                    let mut rng = substream(cfg.seed, k as u64);
                    resample_weights(&row_bootstrap(&mut rng, n, n), n)
                })
                .collect()
        });
        let wrefs: Vec<&[f64]> = weights.iter().map(|w| w.as_slice()).collect();
        let systems = t.span("linalg.gram", |_| gram_rhs_batch(&xc, &yc, &wrefs));
        st.gram(n, p, cfg.b1, 1);
        let mut per_boot: Vec<Vec<Vec<usize>>> = Vec::with_capacity(cfg.b1);
        for (gram, xty) in systems {
            let gram = gram.into_upper();
            let copy = t.span("trace.kkt_copy", |_| gram.clone());
            let solver = t.span("solvers.factor", |_| {
                LassoAdmm::from_gram(gram, cfg.admm.clone())
            });
            let sols = t.span("solvers.admm_path", |_| {
                solver.solve_path_with_rhs(&xty, &lambdas)
            });
            st.path(p, &sols);
            per_boot.push(t.span("core.intersect", |_| {
                sols.iter()
                    .map(|s| support_of(&s.beta, cfg.support_tol))
                    .collect()
            }));
            kkt.push(KktInput {
                gram: copy,
                paths: vec![(xty, sols)],
            });
        }
        let (supports_per_lambda, family) = t.span("core.intersect", |_| {
            let spl: Vec<Vec<usize>> = (0..cfg.q)
                .map(|j| intersect_many(&per_boot.iter().map(|s| s[j].clone()).collect::<Vec<_>>()))
                .collect();
            let family = dedup_family(spl.clone());
            (spl, family)
        });

        // Estimation: project onto the family's union, one batched Gram
        // pass over B2 train resamples, OLS per candidate scored out of bag.
        let (union, xu, family_u) = t.span("core.gather", |_| {
            let mut union: Vec<usize> = family.iter().flatten().copied().collect();
            union.sort_unstable();
            union.dedup();
            let mut pos = vec![usize::MAX; p];
            for (a, &f) in union.iter().enumerate() {
                pos[f] = a;
            }
            let xu = xc.gather_cols(&union);
            let family_u: Vec<Vec<usize>> = family
                .iter()
                .map(|s| s.iter().map(|&f| pos[f]).collect())
                .collect();
            (union, xu, family_u)
        });
        st.family_size = family.len();
        st.union_size = union.len();
        let resamples: Vec<(Vec<f64>, Vec<usize>, usize)> = t.span("data.resample", |_| {
            (0..cfg.b2)
                .map(|k| {
                    let mut rng = substream(cfg.seed, 10_000 + k as u64);
                    let train = row_bootstrap(&mut rng, n, n);
                    let mut in_train = vec![false; n];
                    for &i in &train {
                        in_train[i] = true;
                    }
                    let eval: Vec<usize> = (0..n).filter(|&i| !in_train[i]).collect();
                    let (train, eval) = if eval.is_empty() {
                        let cut = (n / 2).max(1);
                        ((0..cut).collect(), (cut..n).collect())
                    } else {
                        (train, eval)
                    };
                    (resample_weights(&train, n), eval, train.len())
                })
                .collect()
        });
        let wrefs: Vec<&[f64]> = resamples.iter().map(|(w, _, _)| w.as_slice()).collect();
        let systems = t.span("linalg.gram", |_| gram_rhs_batch(&xu, &yc, &wrefs));
        st.gram(n, union.len(), cfg.b2, 1);
        let mut estimates = Vec::with_capacity(cfg.b2);
        for ((_, eval, n_train), (gram_u, xty_u)) in resamples.iter().zip(systems) {
            let gram_u = gram_u.into_upper();
            let mut best: Option<(f64, Vec<f64>)> = None;
            for support_u in &family_u {
                let beta_u = t.span("solvers.ols", |_| {
                    ols_on_support_gram(&gram_u, &xty_u, support_u, *n_train)
                });
                st.ols_calls += 1;
                let loss = t.span("core.score", |_| oob_mse(&xu, &yc, &beta_u, eval));
                if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                    best = Some((loss, beta_u));
                }
            }
            estimates.push(t.span("core.score", |_| {
                let mut full = vec![0.0; p];
                if let Some((_, bu)) = best {
                    for (&f, &v) in union.iter().zip(&bu) {
                        full[f] = v;
                    }
                }
                full
            }));
        }
        let (beta, intercept) = t.span("core.average", |_| {
            let mut beta = vec![0.0; p];
            for est in &estimates {
                for (b, e) in beta.iter_mut().zip(est) {
                    *b += e;
                }
            }
            for b in &mut beta {
                *b /= estimates.len() as f64;
            }
            let intercept = y_mean - dot(&x_means, &beta);
            (beta, intercept)
        });
        let out = FitOut {
            supports: supports_per_lambda,
            beta,
            offset: vec![intercept],
        };
        (out, lambdas)
    });
    st.kkt_rel_max = kkt_rel_max(&kkt, &lambdas);
    (out, st)
}

/// Replay `UoiVarFitter::fit` (serial) on `series`: the VAR problem is
/// `p` column LASSO problems sharing one lag design per resample.
pub fn replay_var(cfg: &UoiVarConfig, series: &Matrix, t: &mut Tracer) -> (FitOut, ReplayStats) {
    let base = &cfg.base;
    let mut st = ReplayStats::default();
    let mut kkt = Vec::new();
    let (out, lambdas) = t.span("fit", |t| {
        let (d, p) = (cfg.order, series.cols());
        let (means, reg, ys) = t.span("core.centre", |_| {
            let means = series.col_means();
            let mut centred = series.clone();
            centred.center_cols(&means);
            let reg = VarRegression::build(&centred, d);
            let ys: Vec<Vec<f64>> = (0..p).map(|i| reg.y.col(i)).collect();
            (means, reg, ys)
        });
        let yrefs: Vec<&[f64]> = ys.iter().map(|v| v.as_slice()).collect();
        let (n, dp) = (reg.samples(), d * p);
        let block_len = cfg.block_len.unwrap_or_else(|| default_block_len(n));
        let lambdas = t.span("solvers.lambda_path", |_| {
            let lmax = ys
                .iter()
                .fold(0.0_f64, |m, yi| m.max(lambda_max(&reg.x, yi)))
                .max(1e-12);
            geometric_grid(lmax, base.lambda_min_ratio * lmax, base.q)
        });

        let weights: Vec<Vec<f64>> = t.span("data.resample", |_| {
            (0..base.b1)
                .map(|k| {
                    let mut rng = substream(base.seed, k as u64);
                    resample_weights(&block_bootstrap(&mut rng, n, n, block_len), n)
                })
                .collect()
        });
        let wopts: Vec<Option<&[f64]>> = weights.iter().map(|w| Some(w.as_slice())).collect();
        let grams = t.span("linalg.gram", |_| gram_batch(&reg.x, &wopts));
        st.gram(n, dp, base.b1, 0);
        let mut per_boot: Vec<Vec<Vec<usize>>> = Vec::with_capacity(base.b1);
        for (w, gram) in weights.iter().zip(grams) {
            let gram = gram.into_upper();
            let xtys = t.span("linalg.gram", |_| gemv_t_weighted_multi(&reg.x, w, &yrefs));
            st.rhs(n, dp, p);
            let copy = t.span("trace.kkt_copy", |_| gram.clone());
            let solver = t.span("solvers.factor", |_| {
                LassoAdmm::from_gram(gram, base.admm.clone())
            });
            let col_sols: Vec<Vec<AdmmSolution>> = t.span("solvers.admm_path", |_| {
                xtys.iter()
                    .map(|xty| solver.solve_path_with_rhs(xty, &lambdas))
                    .collect()
            });
            for sols in &col_sols {
                st.path(dp, sols);
            }
            per_boot.push(t.span("core.intersect", |_| {
                let mut supports = vec![Vec::new(); lambdas.len()];
                for (i, sols) in col_sols.iter().enumerate() {
                    for (j, sol) in sols.iter().enumerate() {
                        supports[j].extend(
                            support_of(&sol.beta, base.support_tol)
                                .into_iter()
                                .map(|c| i * dp + c),
                        );
                    }
                }
                for s in &mut supports {
                    s.sort_unstable();
                }
                supports
            }));
            kkt.push(KktInput {
                gram: copy,
                paths: xtys.into_iter().zip(col_sols).collect(),
            });
        }
        let (supports_per_lambda, family) = t.span("core.intersect", |_| {
            let spl: Vec<Vec<usize>> = (0..lambdas.len())
                .map(|j| intersect_many(&per_boot.iter().map(|s| s[j].clone()).collect::<Vec<_>>()))
                .collect();
            let family = dedup_family(spl.clone());
            (spl, family)
        });

        let (union_cols, xu, family_cols) = t.span("core.gather", |_| {
            let mut union_cols: Vec<usize> = family.iter().flatten().map(|&s| s % dp).collect();
            union_cols.sort_unstable();
            union_cols.dedup();
            let mut pos = vec![usize::MAX; dp];
            for (a, &c) in union_cols.iter().enumerate() {
                pos[c] = a;
            }
            let xu = reg.x.gather_cols(&union_cols);
            let family_cols: Vec<Vec<Vec<usize>>> = family
                .iter()
                .map(|support| {
                    let mut per_col = vec![Vec::new(); p];
                    for &s in support {
                        per_col[s / dp].push(pos[s % dp]);
                    }
                    per_col
                })
                .collect();
            (union_cols, xu, family_cols)
        });
        let u = union_cols.len();
        st.family_size = family.len();
        st.union_size = u;
        let resamples: Vec<(Vec<f64>, Vec<usize>, usize)> = t.span("data.resample", |_| {
            (0..base.b2)
                .map(|k| {
                    let mut rng = substream(base.seed, 20_000 + k as u64);
                    let train = block_bootstrap(&mut rng, n, n, block_len);
                    let mut in_train = vec![false; n];
                    for &i in &train {
                        in_train[i] = true;
                    }
                    let eval: Vec<usize> = (0..n).filter(|&i| !in_train[i]).collect();
                    let (train, eval) = if eval.len() < 2 {
                        let cut = (2 * n / 3).max(1);
                        ((0..cut).collect(), (cut..n).collect())
                    } else {
                        (train, eval)
                    };
                    (resample_weights(&train, n), eval, train.len())
                })
                .collect()
        });
        let wopts: Vec<Option<&[f64]>> = resamples
            .iter()
            .map(|(w, _, _)| Some(w.as_slice()))
            .collect();
        let grams = t.span("linalg.gram", |_| gram_batch(&xu, &wopts));
        st.gram(n, u, base.b2, 0);
        let mut estimates = Vec::with_capacity(base.b2);
        for ((w, eval, n_train), gram_u) in resamples.iter().zip(grams) {
            let gram_u = gram_u.into_upper();
            let xty_u = t.span("linalg.gram", |_| gemv_t_weighted_multi(&xu, w, &yrefs));
            st.rhs(n, u, p);
            let mut best: Option<(f64, Vec<f64>)> = None;
            for per_col in &family_cols {
                let mut beta_u = vec![0.0; p * u];
                for (i, cols) in per_col.iter().enumerate() {
                    if cols.is_empty() {
                        continue;
                    }
                    let bi = t.span("solvers.ols", |_| {
                        ols_on_support_gram(&gram_u, &xty_u[i], cols, *n_train)
                    });
                    st.ols_calls += 1;
                    beta_u[i * u..(i + 1) * u].copy_from_slice(&bi);
                }
                let loss = t.span("core.score", |_| {
                    let total: f64 = (0..p)
                        .map(|i| oob_mse(&xu, &ys[i], &beta_u[i * u..(i + 1) * u], eval))
                        .sum();
                    total / p as f64
                });
                if best.as_ref().is_none_or(|(l, _)| loss < *l) {
                    best = Some((loss, beta_u));
                }
            }
            estimates.push(t.span("core.score", |_| {
                let mut full = vec![0.0; dp * p];
                if let Some((_, bu)) = best {
                    for i in 0..p {
                        for (a, &c) in union_cols.iter().enumerate() {
                            full[i * dp + c] = bu[i * u + a];
                        }
                    }
                }
                full
            }));
        }
        let (vec_beta, mu) = t.span("core.average", |_| {
            let mut vec_beta = vec![0.0; dp * p];
            for est in &estimates {
                for (b, e) in vec_beta.iter_mut().zip(est) {
                    *b += e;
                }
            }
            for b in &mut vec_beta {
                *b /= estimates.len() as f64;
            }
            let mut mu = means.clone();
            for a in uoi_core::partition_coefficients(&vec_beta, p, d) {
                for (m, s) in mu.iter_mut().zip(gemv(&a, &means)) {
                    *m -= s;
                }
            }
            (vec_beta, mu)
        });
        let out = FitOut {
            supports: supports_per_lambda,
            beta: vec_beta,
            offset: mu,
        };
        (out, lambdas)
    });
    st.kkt_rel_max = kkt_rel_max(&kkt, &lambdas);
    (out, st)
}

//! The benchmark's workloads: their inputs, their fit configuration, and
//! how a fit's output is compared and scored against ground truth.

use uoi_core::{
    flatten_coefficients, DistOptions, ExecMode, ParallelLayout, SelectionCounts, UoiFitter,
    UoiLassoConfig, UoiVarConfig, UoiVarFitter, VarRegression,
};
use uoi_data::{validate_xy, LinearConfig, LinearDataset, ValidationPolicy, VarConfig, VarProcess};
use uoi_linalg::Matrix;
use uoi_mpisim::MachineModel;
use uoi_solvers::{ols_on_support, AdmmConfig};

/// Rank threads a distributed fit executes. One, so that every fit runs
/// on one core: two lockstep rank threads on a shared host wait for
/// whichever core the host slows, and their times spread too far.
pub const EXEC_RANKS: usize = 1;
/// Ranks the cost model prices a distributed fit at.
pub const MODELED_RANKS: usize = 2;
/// Magnitude below which a coefficient counts as zero.
pub const SUPPORT_TOL: f64 = 1e-6;
/// Largest coefficient gap a distributed fit may show against the serial
/// reference (the consensus solver is statistically, not bitwise,
/// equivalent).
pub const DIST_BETA_TOL: f64 = 5e-3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Exec {
    Serial,
    Dist,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `LinearConfig` with `n` samples, `p` features, `k` nonzeros and
    /// signal-to-noise ratio `snr`.
    Lasso {
        n: usize,
        p: usize,
        k: usize,
        snr: f64,
    },
    /// A VAR(1) over `p` nodes (density 0.05, companion radius 0.6),
    /// `n` observations after a burn-in.
    Var { p: usize, n: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub exec: Exec,
    pub max_iter: usize,
    /// Datasets generated per run; timed fits cycle through them, and the
    /// quality metrics pool over them.
    pub datasets: usize,
    /// A dataset whose fit scores a lower `selection_f1` fails the
    /// check: the minimum over seeds 1-5 minus 0.1.
    pub f1_floor: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lasso_gram",
        why: "serial UoI_LASSO, n=4096 >> p=256: the batched Gram build in uoi-linalg does most of the work",
        shape: Shape::Lasso { n: 4096, p: 256, k: 20, snr: 8.0 },
        exec: Exec::Serial,
        max_iter: 150,
        datasets: 8,
        f1_floor: 0.85,
    },
    Workload {
        name: "lasso_path",
        why: "serial UoI_LASSO, p=384=2n: the uoi-solvers ADMM lambda path does most of the work and the Gram is small",
        shape: Shape::Lasso { n: 192, p: 384, k: 10, snr: 128.0 },
        exec: Exec::Serial,
        max_iter: 150,
        datasets: 32,
        f1_floor: 0.80,
    },
    Workload {
        name: "lasso_dist",
        why: "lasso_gram's inputs through the distributed path, 1 rank thread priced as 2 modeled ranks: per-rank Grams, Tier-2 shuffles, a consensus allreduce per ADMM step",
        shape: Shape::Lasso { n: 4096, p: 256, k: 20, snr: 8.0 },
        exec: Exec::Dist,
        max_iter: 150,
        datasets: 8,
        f1_floor: 0.85,
    },
    Workload {
        name: "var_dist",
        why: "distributed UoI_VAR (fig7 path), 1 rank thread priced as 2 modeled ranks: Kronecker pulls from reader windows and the lockstep multi-column ADMM",
        shape: Shape::Var { p: 64, n: 256 },
        exec: Exec::Dist,
        max_iter: 200,
        datasets: 32,
        f1_floor: 0.33,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The same workload at a shape small enough for a seconds-long
    /// smoke run and the unit tests.
    pub fn smoke(mut self) -> Workload {
        self.shape = match self.shape {
            Shape::Lasso { snr, .. } if self.name == "lasso_path" => Shape::Lasso {
                n: 64,
                p: 128,
                k: 5,
                snr,
            },
            Shape::Lasso { snr, .. } => Shape::Lasso {
                n: 256,
                p: 32,
                k: 5,
                snr,
            },
            Shape::Var { .. } => Shape::Var { p: 12, n: 96 },
        };
        self.datasets = 2;
        self.f1_floor = 0.0;
        self
    }

    /// The UoI configuration: B1 = B2 = 5, q = 8, lambda_min_ratio 5e-2,
    /// one in-rank thread, every other knob at its default. `seed` is the
    /// bootstrap seed.
    pub fn lasso_config(&self, seed: u64) -> UoiLassoConfig {
        UoiLassoConfig {
            b1: 5,
            b2: 5,
            q: 8,
            lambda_min_ratio: 5e-2,
            support_tol: SUPPORT_TOL,
            seed,
            admm: AdmmConfig {
                max_iter: self.max_iter,
                threads: 1,
                ..AdmmConfig::default()
            },
            ..UoiLassoConfig::default()
        }
    }

    pub fn var_config(&self, seed: u64) -> UoiVarConfig {
        UoiVarConfig {
            order: 1,
            block_len: None,
            base: self.lasso_config(seed),
        }
    }

    pub fn dist_options(&self) -> DistOptions {
        DistOptions {
            exec_ranks: EXEC_RANKS,
            modeled_ranks: MODELED_RANKS,
            machine: MachineModel::deterministic(),
            layout: ParallelLayout::admm_only(),
            n_readers: EXEC_RANKS,
        }
    }

    fn mode(&self, exec: Exec) -> ExecMode {
        match exec {
            Exec::Serial => ExecMode::Serial,
            Exec::Dist => ExecMode::Dist(self.dist_options()),
        }
    }

    pub fn lasso_fitter(&self, seed: u64, exec: Exec) -> UoiFitter {
        UoiFitter::new(self.lasso_config(seed)).mode(self.mode(exec))
    }

    pub fn var_fitter(&self, seed: u64, exec: Exec) -> UoiVarFitter {
        UoiVarFitter::new(self.var_config(seed)).mode(self.mode(exec))
    }

    /// Fit `data` through the public entry point in mode `exec`.
    pub fn fit(&self, data: &Data, seed: u64, exec: Exec) -> Result<FitOut, String> {
        match data {
            Data::Lasso(ds) => self
                .lasso_fitter(seed, exec)
                .fit(&ds.x, &ds.y)
                .map(FitOut::from)
                .map_err(|e| e.to_string()),
            Data::Var { series, .. } => self
                .var_fitter(seed, exec)
                .fit(series)
                .map(FitOut::from)
                .map_err(|e| e.to_string()),
        }
    }

    /// Generate dataset `j` of the run seeded by `seed`.
    pub fn generate(&self, seed: u64, j: usize) -> Data {
        let data_seed = mix(seed, j as u64);
        match self.shape {
            Shape::Lasso { n, p, k, snr } => Data::Lasso(
                LinearConfig {
                    n_samples: n,
                    n_features: p,
                    n_nonzero: k,
                    snr,
                    seed: data_seed,
                    ..LinearConfig::default()
                }
                .generate(),
            ),
            Shape::Var { p, n } => {
                let process = VarProcess::generate(&VarConfig {
                    p,
                    order: 1,
                    density: 0.05,
                    target_radius: 0.6,
                    noise_std: 1.0,
                    seed: data_seed,
                });
                let series = process.simulate(n, 50, mix(data_seed, 1));
                Data::Var { series, process }
            }
        }
    }
}

/// SplitMix64 of `(seed, stream)`: independent dataset seeds per run.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub enum Data {
    Lasso(LinearDataset),
    Var { series: Matrix, process: VarProcess },
}

impl Data {
    /// The input check every fit would otherwise meet first: non-finite
    /// cells, constant or duplicate columns (`Reject` never edits).
    pub fn validate(&mut self) -> Result<(), String> {
        let outcome = match self {
            Data::Lasso(ds) => validate_xy(&mut ds.x, &mut ds.y, ValidationPolicy::Reject),
            Data::Var { series, .. } => {
                let mut dummy = vec![0.0; series.rows()];
                validate_xy(series, &mut dummy, ValidationPolicy::Reject)
            }
        };
        match outcome {
            Ok(o) if o.is_clean() => Ok(()),
            Ok(o) => Err(format!("generated data has {} issues", o.issues.len())),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Every input bit, for the check that generation is deterministic.
    pub fn bits(&self) -> Vec<u64> {
        let cells = match self {
            Data::Lasso(ds) => [ds.x.as_slice(), &ds.y],
            Data::Var { series, .. } => [series.as_slice(), &[]],
        };
        cells
            .iter()
            .flat_map(|c| c.iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Ground truth: the true coefficient vector (VAR: `vec B`) and the
    /// indices it selects (VAR: Granger edges `i * p + j`, from node `j`
    /// to node `i`).
    pub fn truth(&self) -> (Vec<f64>, Vec<usize>) {
        match self {
            Data::Lasso(ds) => (ds.beta_true.clone(), ds.support_true.clone()),
            Data::Var { process, .. } => {
                let beta = flatten_coefficients(&process.coeffs);
                let edges = granger_edges(&beta, process.dim(), 0.0);
                (beta, edges)
            }
        }
    }

    /// Least squares told the true support (VAR: each node regressed on
    /// its true parents), on the centred data: the estimate a selection
    /// procedure can at best match.
    pub fn oracle(&self) -> Vec<f64> {
        match self {
            Data::Lasso(ds) => {
                let means = ds.x.col_means();
                let y_mean = ds.y.iter().sum::<f64>() / ds.y.len() as f64;
                let mut xc = ds.x.clone();
                xc.center_cols(&means);
                let yc: Vec<f64> = ds.y.iter().map(|v| v - y_mean).collect();
                ols_on_support(&xc, &yc, &ds.support_true)
            }
            Data::Var { series, process } => {
                let (p, dp) = (process.dim(), process.order() * process.dim());
                let mut centred = series.clone();
                centred.center_cols(&series.col_means());
                let reg = VarRegression::build(&centred, process.order());
                let truth = flatten_coefficients(&process.coeffs);
                let mut beta = vec![0.0; dp * p];
                for i in 0..p {
                    let parents: Vec<usize> =
                        (0..dp).filter(|&c| truth[i * dp + c] != 0.0).collect();
                    let bi = ols_on_support(&reg.x, &reg.y.col(i), &parents);
                    beta[i * dp..(i + 1) * dp].copy_from_slice(&bi);
                }
                beta
            }
        }
    }

    /// Size of the index space `selected` draws from.
    pub fn selection_space(&self) -> usize {
        match self {
            Data::Lasso(ds) => ds.x.cols(),
            Data::Var { process, .. } => process.dim() * process.dim(),
        }
    }

    /// Indices a fitted coefficient vector selects, comparable to
    /// [`Data::truth`].
    pub fn selected(&self, beta: &[f64]) -> Vec<usize> {
        match self {
            Data::Lasso(_) => uoi_solvers::support_of(beta, SUPPORT_TOL),
            Data::Var { process, .. } => granger_edges(beta, process.dim(), SUPPORT_TOL),
        }
    }
}

/// Granger edges `i * p + j` of a vectorised VAR coefficient vector: an
/// edge exists when any lag's `A[i, j]` exceeds `tol` in magnitude.
fn granger_edges(vec_beta: &[f64], p: usize, tol: f64) -> Vec<usize> {
    let dp = vec_beta.len() / p;
    (0..p)
        .flat_map(|i| (0..p).map(move |j| (i, j)))
        .filter(|&(i, j)| (0..dp / p).any(|lag| vec_beta[i * dp + lag * p + j].abs() > tol))
        .map(|(i, j)| i * p + j)
        .collect()
}

/// What a fit returns that the checks compare: the per-lambda supports,
/// the coefficients, and the offset (LASSO intercept, VAR mean term).
#[derive(Debug, Clone, PartialEq)]
pub struct FitOut {
    pub supports: Vec<Vec<usize>>,
    pub beta: Vec<f64>,
    pub offset: Vec<f64>,
}

impl From<uoi_core::UoiFit> for FitOut {
    fn from(f: uoi_core::UoiFit) -> Self {
        FitOut {
            supports: f.supports_per_lambda,
            beta: f.beta,
            offset: vec![f.intercept],
        }
    }
}

impl From<uoi_core::UoiVarFit> for FitOut {
    fn from(f: uoi_core::UoiVarFit) -> Self {
        FitOut {
            supports: f.supports_per_lambda,
            beta: f.vec_beta,
            offset: f.mu,
        }
    }
}

impl FitOut {
    /// Same supports and the same bits in every coefficient.
    pub fn bit_identical(&self, other: &FitOut) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.supports == other.supports
            && bits(&self.beta) == bits(&other.beta)
            && bits(&self.offset) == bits(&other.offset)
    }

    /// The distributed-vs-serial check: identical supports per lambda
    /// and coefficients within [`DIST_BETA_TOL`].
    pub fn agrees_with(&self, serial: &FitOut) -> bool {
        self.supports == serial.supports
            && self.beta.len() == serial.beta.len()
            && self
                .beta
                .iter()
                .zip(&serial.beta)
                .all(|(a, b)| (a - b).abs() <= DIST_BETA_TOL)
    }
}

/// Ground-truth accounting of one or more fits, pooled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
    pub err_sq: f64,
    pub truth_sq: f64,
    pub oracle_sq: f64,
}

impl Quality {
    pub fn of(data: &Data, fit: &FitOut) -> Quality {
        let (beta_true, truth) = data.truth();
        let c = SelectionCounts::compare(&data.selected(&fit.beta), &truth, data.selection_space());
        let dist_sq = |b: &[f64]| -> f64 {
            b.iter()
                .zip(&beta_true)
                .map(|(a, t)| (a - t) * (a - t))
                .sum()
        };
        Quality {
            tp: c.true_positives,
            fp: c.false_positives,
            fn_: c.false_negatives,
            err_sq: dist_sq(&fit.beta),
            truth_sq: beta_true.iter().map(|b| b * b).sum(),
            oracle_sq: dist_sq(&data.oracle()),
        }
    }

    pub fn add(&mut self, o: Quality) {
        self.tp += o.tp;
        self.fp += o.fp;
        self.fn_ += o.fn_;
        self.err_sq += o.err_sq;
        self.truth_sq += o.truth_sq;
        self.oracle_sq += o.oracle_sq;
    }

    pub fn f1(&self) -> f64 {
        let denom = 2 * self.tp + self.fp + self.fn_;
        if denom == 0 {
            1.0
        } else {
            (2 * self.tp) as f64 / denom as f64
        }
    }

    /// `||beta_hat - beta*|| / ||beta*||`.
    pub fn coef_rel_err(&self) -> f64 {
        (self.err_sq / self.truth_sq).sqrt()
    }

    /// `||beta_hat - beta*|| / ||beta_oracle - beta*||`.
    pub fn coef_err_vs_oracle(&self) -> f64 {
        (self.err_sq / self.oracle_sq).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granger_edges_follow_vec_layout() {
        // p = 2, order 1: vec index i*p + j holds A[i, j].
        let beta = [0.0, 0.5, 0.0, -0.2];
        assert_eq!(granger_edges(&beta, 2, 0.0), vec![1, 3]);
        // Order 2: column i holds A_1[i, :] then A_2[i, :].
        let beta = [0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(granger_edges(&beta, 2, 0.0), vec![0]);
    }

    #[test]
    fn pooled_quality() {
        let mut q = Quality {
            tp: 3,
            fp: 1,
            fn_: 0,
            err_sq: 1.0,
            truth_sq: 16.0,
            oracle_sq: 1.0,
        };
        q.add(Quality {
            tp: 1,
            fp: 0,
            fn_: 1,
            err_sq: 3.0,
            truth_sq: 48.0,
            oracle_sq: 0.0,
        });
        assert_eq!(q.f1(), 8.0 / 10.0);
        assert_eq!(q.coef_rel_err(), 0.25);
        assert_eq!(q.coef_err_vs_oracle(), 2.0);
    }
}

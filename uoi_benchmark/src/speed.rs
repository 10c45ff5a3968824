//! The host-speed reference that the gated times are normalised by.
//!
//! On a shared host the guest's speed changes by up to 1.75× for seconds
//! to minutes at a time (see README.md, Noise). Three small fixed
//! kernels, timed right before and right after each piece of timed work,
//! measure the speed the host is giving this thread at that moment: a
//! chain of dependent multiply-adds (core latency), a dense
//! matrix-vector product (streaming from L2), and triangular solves
//! (strided L2 access with a dependency chain). No single kind of kernel
//! slows as much as every workload does, so their geometric mean is the
//! reference.
//!
//! The kernels are the benchmark's own code: a change to the library
//! moves the timed work but never the reference.

use std::hint::black_box;
use std::time::Instant;

/// Geometric-mean time of the three kernels on the host the benchmark was
/// defined on, in its fast state (see README.md). A normalised time is a
/// wall time times `REF_NOMINAL_S / reference time`: the seconds the work
/// would have taken on that host at that speed.
pub const REF_NOMINAL_S: f64 = 2.0e-3;

const CHAIN_LEN: usize = 500_000;
const MATVEC_N: usize = 256;
const MATVEC_REPS: usize = 40;
const TRI_N: usize = 384;
const TRI_REPS: usize = 10;

pub struct Reference {
    /// `MATVEC_N`² dense matrix and the vector it is applied to.
    a: Vec<f64>,
    x: Vec<f64>,
    /// `TRI_N`² lower-triangular matrix, row-major, diagonally dominant.
    l: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let a = (0..MATVEC_N * MATVEC_N)
            .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
            .collect();
        let mut l = vec![0.0; TRI_N * TRI_N];
        for i in 0..TRI_N {
            for j in 0..i {
                l[i * TRI_N + j] = 1e-3 * ((i + j) % 7) as f64;
            }
            l[i * TRI_N + i] = 2.0;
        }
        Self {
            a,
            x: vec![1.0; MATVEC_N],
            l,
        }
    }

    /// Time the three kernels once and return the host's current slowdown:
    /// their geometric-mean time over [`REF_NOMINAL_S`].
    pub fn slowdown(&mut self) -> f64 {
        let times = [
            timed(chain),
            timed(|| self.matvec()),
            timed(|| self.triangular()),
        ];
        let log_mean = times.iter().map(|t| t.ln()).sum::<f64>() / times.len() as f64;
        log_mean.exp() / REF_NOMINAL_S
    }

    /// Repeated normalised products `x ← A x / ‖A x‖`.
    fn matvec(&mut self) {
        let n = MATVEC_N;
        let mut y = vec![0.0; n];
        for _ in 0..MATVEC_REPS {
            for (yi, row) in y.iter_mut().zip(black_box(&self.a).chunks_exact(n)) {
                *yi = row.iter().zip(&self.x).map(|(a, b)| a * b).sum();
            }
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (xi, yi) in self.x.iter_mut().zip(&y) {
                *xi = yi / norm;
            }
        }
        black_box(&self.x);
    }

    /// Forward then backward substitution with `L` and `Lᵀ`; the backward
    /// pass reads `L` by columns.
    fn triangular(&self) {
        let (n, l) = (TRI_N, black_box(&self.l));
        let mut b = vec![1.0; n];
        for _ in 0..TRI_REPS {
            for i in 0..n {
                let s: f64 = (0..i).map(|j| l[i * n + j] * b[j]).sum();
                b[i] = (b[i] - s) / l[i * n + i];
            }
            for i in (0..n).rev() {
                let s: f64 = (i + 1..n).map(|j| l[j * n + i] * b[j]).sum();
                b[i] = (b[i] - s) / l[i * n + i];
            }
        }
        black_box(&b);
    }
}

/// Dependent multiply-adds: each waits for the one before.
fn chain() {
    let (m, k) = (black_box(0.999_999_9), black_box(1e-9));
    let mut v = black_box(1.0f64);
    for _ in 0..CHAIN_LEN {
        v = v.mul_add(m, k);
    }
    black_box(v);
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// How far the timed work slows for a given reference slowdown, as a
/// power: the fits slow by the reference's slowdown to this power. The
/// reference slows less than the fits between the host's states (1.33×
/// against 1.2–1.7×). Over two sets of ten runs of each workload, the
/// per-run power ranged from about 0.9 (`lasso_path`) to 1.8 (`var_dist`);
/// one power for all workloads, 1.3, gave the smallest largest spread of
/// `fit_s` across seeds.
pub const WORK_EXPONENT: f64 = 1.3;

/// The slowdown over a piece of work, from the readings of
/// [`Reference::slowdown`] just before and just after it: their geometric
/// mean to the power [`WORK_EXPONENT`]. Dividing the work's wall time by
/// it gives the normalised time.
pub fn around(before: f64, after: f64) -> f64 {
    (before * after).sqrt().powf(WORK_EXPONENT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_a_positive_ratio() {
        let mut r = Reference::new();
        let s = r.slowdown();
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
        // The product stays normalised, so repeated calls do not drift
        // into denormals or overflow.
        r.slowdown();
        assert!(r.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn slowdown_around_work_is_a_power_of_the_geometric_mean_of_its_readings() {
        assert_eq!(around(1.0, 1.0), 1.0);
        assert_eq!(around(1.5, 1.5), 1.5f64.powf(WORK_EXPONENT));
        assert_eq!(around(1.0, 4.0), 2.0f64.powf(WORK_EXPONENT));
    }
}

//! Batched multi-bootstrap Gram engine.
//!
//! The UoI maps build `X_b^T X_b` (and the paired `X_b^T y_b`) once per
//! bootstrap resample. With the zero-copy representation a resample is a
//! weight vector `w` over the rows of the *shared* design matrix `X`, so
//! the Gram of resample `b` is `X^T diag(w_b) X`. Computing each of these
//! independently streams all of `X` from DRAM `B` times. This module
//! instead packs `X` into cache-resident panels **once** and reuses each
//! packed panel across every resample in the batch, so the design matrix
//! makes a single trip from memory no matter how many bootstraps ride on
//! it.
//!
//! ## Packing layout and tiling
//!
//! The upper triangle of each `p × p` Gram is partitioned into horizontal
//! *bands* of [`GRAM_BAND`] rows. One parallel task owns band `j0..j1` of
//! **all** `B` outputs. Within a task, the rows of `X` are consumed in
//! *panels* of [`GRAM_PANEL_ROWS`]; the panel's column suffix `[j0..p)` is
//! copied into a contiguous packed buffer (stride `p - j0`), and a
//! register-tiled micro-kernel then sweeps the band's tiles once per
//! resample, reading only the packed copy. For the fig2 shape (`p = 512`)
//! a packed panel is `64 × 512 × 8 B = 256 KiB` — inside L2 — so the
//! `B - 1` extra sweeps hit cache instead of DRAM.
//!
//! ## Vector width
//!
//! Each batch runs the widest micro-kernel the CPU reports at run time
//! (`is_x86_feature_detected!`):
//!
//! | variant | register tile | compiled for |
//! |---|---|---|
//! | `avx512f` | 8×16: sixteen zmm accumulators, 8 broadcasts and 2 loads per 16 FMAs | AVX-512F + FMA (x86-64) |
//! | `avx2` | 4×8: eight ymm accumulators, 4 broadcasts and 2 loads per 8 FMAs | AVX2 + FMA (x86-64) |
//! | `portable` | 4×4, `f64::mul_add` | the baseline ISA; CPUs without FMA and every other target |
//!
//! The two x86 tiles are written with `std::arch` intrinsics: the generic
//! tile with `mul_add` compiles to scalar `vfmadd231sd`, not packed FMAs.
//! They sweep the band column tile by column tile, on a grid from the
//! band's first column, and run every row tile that reaches the column
//! tile inside, so its packed rows are read from L1 by all of them. A
//! tile is written back with whole-vector load-add-store; tiles that
//! straddle the diagonal and the ragged tile at the right edge `p` mask
//! off the lanes they must not touch. Rows past the band's last full row
//! tile (`p` not a multiple of the tile height) take the generic 4×4
//! tile, compiled for the variant's features. The portable kernel sweeps
//! row tile by row tile, each row tile's column tiles starting at its own
//! first column. [`kernel_variant`] names the variant this process runs.
//!
//! ## Determinism
//!
//! Every `(Gram row, resample)` output element has exactly one owning
//! task, and each task walks panels in ascending row order, accumulating
//! a fresh register tile per `(panel, tile)` that is added to the output
//! block before the next panel. The floating-point bracketing of every
//! element is therefore a function of the matrix shape alone: it does not
//! depend on the rayon thread count, on which other resamples share the
//! batch, or on whether the serial fallback ran. `batch([w])` is
//! bit-identical to the same `w` inside a larger batch.
//!
//! Nor does it depend on the variant. Every element gets a fresh
//! accumulator per `(panel, tile)`, starting at `+0.0`; the panel's
//! nonzero rows are summed in ascending order, each term one fused
//! multiply-add `acc = fma(w_r · x_rj, x_rc, acc)`, rounded once; then one
//! add into the output. Tile shape and vector width only change how many
//! elements advance side by side, so every variant matches the portable
//! kernel bit for bit. [`BRACKETING`] names this rule; checkpoints carry
//! it, so Grams of two bracketings never meet in one fit.
//!
//! The weighted factor `w_r · x_rj` depends only on the row and the band
//! column `j`, so once per `(panel, band, resample)` the task writes it
//! for the panel's nonzero rows into a scratch buffer (at most `64 × 64`
//! doubles, carved from the task's packing buffer), and the tile reads it
//! back with a broadcast. Unit weights (`None`) store `1 · x_rj`, which
//! is `x_rj` exactly.
//!
//! The rhs `X^T diag(w) y` keeps its own bracketing: per nonzero row, the
//! coefficient `w_r · y_r` and then `out_j += coeff · x_rj`, a multiply
//! and an add, never fused.

use crate::dense::Matrix;
use crate::kernels;
use rayon::prelude::*;
use std::cell::Cell;

/// Height (in rows of `X`) of one packed panel.
///
/// Chosen so a packed panel of the fig2 design (`p = 512`) is 256 KiB:
/// comfortably cache-resident, which is what earns the batched sweeps
/// their DRAM amortization.
pub const GRAM_PANEL_ROWS: usize = 64;

/// Width (in Gram rows) of one band; a band is the unit of parallelism.
pub const GRAM_BAND: usize = 64;

/// Modeled working set of the tiled kernel: one packed panel. Used by the
/// pipeline charge sites; the 2.2x cache-resident discount of the machine
/// model only applies while a panel actually fits (`p <~ 1024`).
pub fn gram_kernel_ws(p: usize) -> f64 {
    (GRAM_PANEL_ROWS * p * 8) as f64
}

thread_local! {
    static PACKS: Cell<u64> = const { Cell::new(0) };
}

/// Number of panel-pack operations performed on the calling thread since
/// it started.
///
/// Test hook for the batch amortization contract: a batch of `B`
/// resamples packs each `(band, panel)` exactly once, so the count is
/// independent of `B`. The count is per thread so that concurrent tests
/// cannot bump it; a band that runs on another thread counts there.
pub fn pack_count() -> u64 {
    PACKS.with(Cell::get)
}

/// The floating-point bracketing every variant computes a Gram element
/// with (see the module's *Determinism*): 64-row panels in ascending
/// order, one fused multiply-add per term. It changes whenever any Gram's
/// bits would, whatever the ISA; checkpoint fingerprints fold it in.
pub const BRACKETING: &str = "panel64-fma";

/// Identifier recorded in run reports, so a benchmark snapshot states
/// which Gram engine — and which vector ISA — produced it, e.g.
/// `"gram-batched-tiled-v4+avx512f"`. v4 brackets each term as one fused
/// multiply-add ([`BRACKETING`]).
pub fn kernel_variant() -> &'static str {
    Kernel::detect().name()
}

/// One instantiation of the micro-kernel: a register-tile shape and the
/// vector ISA it is compiled for. All variants are bit-identical, and a
/// batch always runs [`Kernel::detect`]; the type is public so that tests
/// and benchmarks can force each variant ([`gram_rhs_batch_on`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// 4×4 `mul_add` tile for the baseline ISA; runs on every CPU.
    Portable,
    /// 4×8 ymm tile with AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// 8×16 zmm tile with AVX-512F and FMA.
    #[cfg(target_arch = "x86_64")]
    Avx512Fma,
}

impl Kernel {
    /// Every variant compiled for this target, narrowest first.
    pub const ALL: &'static [Kernel] = &[
        Kernel::Portable,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2Fma,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512Fma,
    ];

    /// Whether this CPU can run the variant.
    pub fn supported(self) -> bool {
        match self {
            Kernel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2Fma => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Fma => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma")
            }
        }
    }

    /// The widest variant this CPU supports.
    pub fn detect() -> Kernel {
        Kernel::ALL
            .iter()
            .rev()
            .copied()
            .find(|k| k.supported())
            .unwrap_or(Kernel::Portable)
    }

    /// The [`kernel_variant`] string of this variant.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "gram-batched-tiled-v4+portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2Fma => "gram-batched-tiled-v4+avx2",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512Fma => "gram-batched-tiled-v4+avx512f",
        }
    }
}

/// A Gram matrix with only its upper triangle populated (strict lower is
/// zero). Produced by the batched kernel so consumers that only read the
/// upper triangle (Cholesky, `symv`, sub-Gram extraction) can skip the
/// O(p²) mirror.
#[derive(Clone, Debug)]
pub struct UpperGram(Matrix);

impl UpperGram {
    /// Wrap an upper-stored matrix. Debug-asserts squareness.
    pub fn from_upper(m: Matrix) -> Self {
        debug_assert_eq!(m.rows(), m.cols());
        UpperGram(m)
    }

    pub fn order(&self) -> usize {
        self.0.rows()
    }

    /// The upper-stored backing matrix (strict lower triangle is zero).
    pub fn upper(&self) -> &Matrix {
        &self.0
    }

    pub fn into_upper(self) -> Matrix {
        self.0
    }

    /// Canonical element access: `get(i, j) == get(j, i)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i <= j {
            self.0[(i, j)]
        } else {
            self.0[(j, i)]
        }
    }

    /// Mirror the upper triangle into the strict lower half, producing a
    /// full symmetric matrix for consumers that read both triangles.
    pub fn into_full(self) -> Matrix {
        let mut m = self.0;
        let p = m.rows();
        for i in 1..p {
            for j in 0..i {
                m[(i, j)] = m[(j, i)];
            }
        }
        m
    }
}

/// One parallel unit: band `j0..j1` of every output in the batch.
struct BandTask<'a> {
    j0: usize,
    j1: usize,
    /// Per resample: the band's rows of the output Gram (`(j1-j0) * p`).
    blocks: Vec<&'a mut [f64]>,
    /// Per resample: the band's segment of `X^T diag(w) y` (`j1 - j0`).
    rhs: Vec<&'a mut [f64]>,
}

/// Weight view for one resample: `None` means unit weights (plain SYRK).
type WeightOpt<'a> = Option<&'a [f64]>;

/// Compute band `j0..j1` of every resample's Gram (and rhs segment) with
/// the given micro-kernel variant.
fn band_body(
    kernel: Kernel,
    a: &Matrix,
    weights: &[WeightOpt<'_>],
    y: Option<&[f64]>,
    task: &mut BandTask<'_>,
) {
    assert!(
        kernel.supported(),
        "{kernel:?} Gram kernel on a CPU without its features"
    );
    match kernel {
        Kernel::Portable => band_body_tiled(a, weights, y, task, |v, block| {
            tile_rows::<4, 4>(v, v.j0, block)
        }),
        // SAFETY: `kernel.supported()` above checked with
        // `is_x86_feature_detected!` that this CPU has AVX2 and FMA, the
        // features `x86::band_body_avx2` enables.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2Fma => unsafe { x86::band_body_avx2(a, weights, y, task) },
        // SAFETY: `kernel.supported()` above checked with
        // `is_x86_feature_detected!` that this CPU has AVX-512F and FMA,
        // the features `x86::band_body_avx512` enables.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512Fma => unsafe { x86::band_body_avx512(a, weights, y, task) },
    }
}

/// One resample's view of a packed panel, as a tile sweep reads it.
struct PanelView<'a> {
    /// The panel's rows, columns `j0..p` each, at stride `p - j0`.
    packed: &'a [f64],
    stride: usize,
    /// For the `i`-th entry of `rows`, the pre-scaled row-tile operand
    /// `w_r · x[r, j0..j1]` at `scaled[i * (j1 - j0)..]`.
    scaled: &'a [f64],
    /// The panel's nonzero-weight rows (local index, weight), ascending.
    rows: &'a [(u32, f64)],
    j0: usize,
    j1: usize,
}

impl PanelView<'_> {
    fn p(&self) -> usize {
        self.j0 + self.stride
    }

    fn bw(&self) -> usize {
        self.j1 - self.j0
    }
}

/// Compute band `j0..j1` of every resample's Gram (and rhs segment) by
/// packing each row panel once and sweeping it `B` times from cache with
/// `sweep`, which adds one resample's panel sums into the band's rows.
///
/// Always inlined, so that each variant's body — the packing, the
/// pre-scaling and the rhs `axpy` — is compiled for that variant's
/// target features.
#[inline(always)]
fn band_body_tiled(
    a: &Matrix,
    weights: &[WeightOpt<'_>],
    y: Option<&[f64]>,
    task: &mut BandTask<'_>,
    sweep: impl Fn(&PanelView<'_>, &mut [f64]),
) {
    let (n, p) = a.shape();
    let (j0, j1) = (task.j0, task.j1);
    let stride = p - j0;
    let bw = j1 - j0;
    let b = weights.len();
    let panel_rows = GRAM_PANEL_ROWS.min(n.max(1));
    // One buffer per task: the packed panel, then the pre-scaled row-tile
    // operand of the current resample (at most 64 × 64 doubles).
    let mut scratch = vec![0.0f64; panel_rows * (stride + bw)];
    let (packed, scaled) = scratch.split_at_mut(panel_rows * stride);
    // Nonzero (local row, weight) pairs of the current panel, per resample.
    let mut nz: Vec<Vec<(u32, f64)>> = vec![Vec::new(); b];

    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + GRAM_PANEL_ROWS).min(n);
        let rows = i1 - i0;
        for r in 0..rows {
            packed[r * stride..(r + 1) * stride].copy_from_slice(&a.row(i0 + r)[j0..]);
        }
        PACKS.with(|c| c.set(c.get() + 1));
        for (k, w) in weights.iter().enumerate() {
            nz[k].clear();
            match w {
                None => nz[k].extend((0..rows).map(|r| (r as u32, 1.0))),
                Some(w) => {
                    for r in 0..rows {
                        let wv = w[i0 + r];
                        if wv != 0.0 {
                            nz[k].push((r as u32, wv));
                        }
                    }
                }
            }
        }
        for k in 0..b {
            if nz[k].is_empty() {
                continue;
            }
            // `w_r · x[r, j]` for the band's columns, once per resample.
            for (&(r, wv), dst) in nz[k].iter().zip(scaled.chunks_exact_mut(bw)) {
                let src = &packed[r as usize * stride..][..bw];
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = wv * x;
                }
            }
            let view = PanelView {
                packed,
                stride,
                scaled,
                rows: &nz[k],
                j0,
                j1,
            };
            sweep(&view, task.blocks[k]);
            if let Some(y) = y {
                let seg = &mut *task.rhs[k];
                for &(r, wv) in &nz[k] {
                    let c = wv * y[i0 + r as usize];
                    if c != 0.0 {
                        let row = &packed[r as usize * stride..r as usize * stride + bw];
                        kernels::axpy(c, row, seg);
                    }
                }
            }
        }
        i0 = i1;
    }
}

/// `TR × TC` register-tiled `mul_add` sweep of one panel over the upper
/// triangle of the band's rows `jt0..j1`, for a single resample. Square
/// tiles only (`TR == TC`), so each row's column tiles start at the row
/// tile itself. The portable kernel runs it over the whole band; the x86
/// kernels run it over a last row tile shorter than their own.
#[inline(always)]
fn tile_rows<const TR: usize, const TC: usize>(v: &PanelView<'_>, jt0: usize, block: &mut [f64]) {
    let (p, bw, j0) = (v.p(), v.bw(), v.j0);
    let mut jt = jt0;
    while jt < v.j1 {
        let jh = (jt + TR).min(v.j1);
        let mh = jh - jt;
        let mut ct = jt;
        while ct < p {
            let ch = (ct + TC).min(p);
            let nw = ch - ct;
            let mut acc = [[0.0f64; TC]; TR];
            if mh == TR && nw == TC {
                // Full tile: TR × TC register accumulators, unrolled lanes.
                for (&(r, _), srow) in v.rows.iter().zip(v.scaled.chunks_exact(bw)) {
                    let lj: &[f64; TR] = srow[jt - j0..][..TR]
                        .try_into()
                        .expect("row-tile slice has TR elements");
                    let lc: &[f64; TC] = v.packed[r as usize * v.stride + (ct - j0)..][..TC]
                        .try_into()
                        .expect("column-tile slice has TC elements");
                    for rr in 0..TR {
                        let s = lj[rr];
                        for cc in 0..TC {
                            acc[rr][cc] = s.mul_add(lc[cc], acc[rr][cc]);
                        }
                    }
                }
            } else {
                // Ragged edge tile: same bracketing, generic bounds.
                for (&(r, _), srow) in v.rows.iter().zip(v.scaled.chunks_exact(bw)) {
                    let base = r as usize * v.stride + (ct - j0);
                    for rr in 0..mh {
                        let s = srow[(jt - j0) + rr];
                        for cc in 0..nw {
                            acc[rr][cc] = s.mul_add(v.packed[base + cc], acc[rr][cc]);
                        }
                    }
                }
            }
            add_tile(&acc, mh, nw, jt, ct, p, &mut block[(jt - j0) * p..]);
            ct = ch;
        }
        jt = jh;
    }
}

/// Add the leading `mh × nw` block of a tile's accumulators into the
/// output rows `jt..jt + mh` (`rows` starts at row `jt`), keeping only
/// the upper triangle. Separate from the sweeps so that a full tile's
/// accumulators are indexed by constants only and stay in registers.
#[inline(always)]
fn add_tile<const TR: usize, const TC: usize>(
    acc: &[[f64; TC]; TR],
    mh: usize,
    nw: usize,
    jt: usize,
    ct: usize,
    p: usize,
    rows: &mut [f64],
) {
    for rr in 0..mh {
        let j = jt + rr;
        let row = &mut rows[rr * p..(rr + 1) * p];
        for cc in 0..nw {
            // Diagonal tiles straddle `j`: keep only the upper part.
            if ct + cc >= j {
                row[ct + cc] += acc[rr][cc];
            }
        }
    }
}

/// The intrinsic tiles of the x86 variants. Each accumulates a tile of
/// the same elements as the generic sweep, with the same fused
/// multiply-add per term in the same row order, so its bits match.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{band_body_tiled, tile_rows, BandTask, Matrix, PanelView, WeightOpt};
    use std::arch::x86_64::*;

    /// [`band_body_tiled`] with the 4×8 AVX2 tile.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn band_body_avx2(
        a: &Matrix,
        weights: &[WeightOpt<'_>],
        y: Option<&[f64]>,
        task: &mut BandTask<'_>,
    ) {
        band_body_tiled(a, weights, y, task, |v, block| sweep_avx2(v, block))
    }

    /// [`band_body_tiled`] with the 8×16 AVX-512 tile.
    #[target_feature(enable = "avx512f,fma")]
    pub(super) fn band_body_avx512(
        a: &Matrix,
        weights: &[WeightOpt<'_>],
        y: Option<&[f64]>,
        task: &mut BandTask<'_>,
    ) {
        band_body_tiled(a, weights, y, task, |v, block| sweep_avx512(v, block))
    }

    /// A panel view whose bounds the tiles below rely on were checked:
    /// each nonzero row has its packed row and its `bw` pre-scaled
    /// entries. Only [`Checked::new`] makes one.
    #[derive(Clone, Copy)]
    struct Checked<'v, 'a>(&'v PanelView<'a>);

    impl<'v, 'a> Checked<'v, 'a> {
        fn new(v: &'v PanelView<'a>) -> Self {
            assert!(v.scaled.len() >= v.rows.len() * v.bw());
            assert!(v
                .rows
                .iter()
                .all(|&(r, _)| (r as usize + 1) * v.stride <= v.packed.len()));
            Checked(v)
        }

        /// Check that the tile at rows `jt..jt + tr`, columns
        /// `ct..ct + nw` lies inside the band, and that `block` has the
        /// band's `bw` rows of `p`.
        fn check_tile(self, jt: usize, tr: usize, ct: usize, nw: usize, block: &[f64]) {
            let v = self.0;
            assert!(v.j0 <= jt && jt + tr <= v.j1 && v.j0 <= ct && ct + nw <= v.p());
            assert_eq!(block.len(), v.bw() * v.p());
        }
    }

    /// The x86 sweep order: `TC`-wide column tiles on a grid from `j0`,
    /// outermost, so that a column tile's packed rows stay in L1 while
    /// every full `TR`-row tile of the band that reaches it runs over it
    /// (the pre-scaled operand, at most 64 × 64 doubles, stays there
    /// too). Rows past the last full row tile take the generic 4×4 tile.
    #[inline(always)]
    fn sweep<const TR: usize, const TC: usize>(
        v: &PanelView<'_>,
        block: &mut [f64],
        tile: impl Fn(Checked<'_, '_>, usize, usize, usize, &mut [f64]),
    ) {
        let checked = Checked::new(v);
        let p = v.p();
        let full = v.j0 + v.bw() / TR * TR;
        let mut ct = v.j0;
        while ct < p {
            let nw = (p - ct).min(TC);
            let mut jt = v.j0;
            while jt < full && jt < ct + nw {
                tile(checked, jt, ct, nw, block);
                jt += TR;
            }
            ct += nw;
        }
        tile_rows::<4, 4>(v, full, block);
    }

    #[target_feature(enable = "avx512f,fma")]
    fn sweep_avx512(v: &PanelView<'_>, block: &mut [f64]) {
        sweep::<8, 16>(v, block, |c, jt, ct, nw, block| {
            tile_8x16(c, jt, ct, nw, block)
        })
    }

    /// One 8×16 tile at rows `jt..jt + 8`, columns `ct..ct + nw`
    /// (`nw <= 16`, `jt < ct + nw`): sixteen zmm accumulators, two per
    /// row. Only the elements on or right of the diagonal are written.
    #[target_feature(enable = "avx512f,fma")]
    fn tile_8x16(c: Checked<'_, '_>, jt: usize, ct: usize, nw: usize, block: &mut [f64]) {
        assert!(nw <= 16);
        c.check_tile(jt, 8, ct, nw, block);
        let v = c.0;
        let (p, bw) = (v.p(), v.bw());
        let cols = (1u32 << nw) - 1;
        let (lo, hi) = (cols as u8, (cols >> 8) as u8);
        let mut acc = [_mm512_setzero_pd(); 16];
        let mut s = v.scaled[jt - v.j0..].as_ptr();
        let cols0 = v.packed.as_ptr().wrapping_add(ct - v.j0);
        for &(r, _) in v.rows {
            let x = cols0.wrapping_add(r as usize * v.stride);
            // SAFETY: `Checked::new` bounds row `r` of `packed` and this
            // row's `bw` entries of `scaled`. The masks select the tile's
            // `nw` columns, all inside row `r` (`ct + nw <= p`, checked
            // above); the eight broadcasts read the row's `scaled` entries
            // `jt - j0 .. jt - j0 + 8 <= bw`. Masked-off lanes are not
            // accessed.
            unsafe {
                let x0 = _mm512_maskz_loadu_pd(lo, x);
                let x1 = _mm512_maskz_loadu_pd(hi, x.wrapping_add(8));
                for rr in 0..8 {
                    let b = _mm512_set1_pd(*s.add(rr));
                    acc[2 * rr] = _mm512_fmadd_pd(b, x0, acc[2 * rr]);
                    acc[2 * rr + 1] = _mm512_fmadd_pd(b, x1, acc[2 * rr + 1]);
                }
            }
            s = s.wrapping_add(bw);
        }
        for rr in 0..8 {
            // Lanes left of the diagonal `j = jt + rr` stay untouched.
            let keep = cols & !((1u32 << (jt + rr).saturating_sub(ct)) - 1);
            let out = block[(jt - v.j0 + rr) * p + ct..].as_mut_ptr();
            for h in 0..2 {
                let m = (keep >> (8 * h)) as u8;
                let o = out.wrapping_add(8 * h);
                // SAFETY: the mask keeps columns `ct..ct + nw` of output
                // row `jt + rr`, inside the band's block (`check_tile`).
                unsafe {
                    let sum = _mm512_add_pd(_mm512_maskz_loadu_pd(m, o), acc[2 * rr + h]);
                    _mm512_mask_storeu_pd(o, m, sum);
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    fn sweep_avx2(v: &PanelView<'_>, block: &mut [f64]) {
        sweep::<4, 8>(v, block, |c, jt, ct, nw, block| {
            tile_4x8(c, jt, ct, nw, block)
        })
    }

    /// Lane mask of a ymm register: lane `i` set iff `from <= i < to`.
    #[target_feature(enable = "avx2")]
    fn lanes(from: i64, to: i64) -> __m256i {
        let idx = _mm256_setr_epi64x(0, 1, 2, 3);
        _mm256_and_si256(
            _mm256_cmpgt_epi64(idx, _mm256_set1_epi64x(from - 1)),
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(to), idx),
        )
    }

    /// One 4×8 tile at rows `jt..jt + 4`, columns `ct..ct + nw`
    /// (`nw <= 8`, `jt < ct + nw`): eight ymm accumulators, two per row.
    /// Only the elements on or right of the diagonal are written.
    #[target_feature(enable = "avx2,fma")]
    fn tile_4x8(c: Checked<'_, '_>, jt: usize, ct: usize, nw: usize, block: &mut [f64]) {
        assert!(nw <= 8);
        c.check_tile(jt, 4, ct, nw, block);
        let v = c.0;
        let (p, bw) = (v.p(), v.bw());
        let nw = nw as i64;
        let (lo, hi) = (lanes(0, nw), lanes(0, nw - 4));
        let mut acc = [_mm256_setzero_pd(); 8];
        let mut s = v.scaled[jt - v.j0..].as_ptr();
        let cols0 = v.packed.as_ptr().wrapping_add(ct - v.j0);
        for &(r, _) in v.rows {
            let x = cols0.wrapping_add(r as usize * v.stride);
            // SAFETY: as in `tile_8x16`: `Checked::new` bounds row `r` and
            // its pre-scaled entries, the masks select the tile's `nw`
            // columns inside row `r`, the four broadcasts read the row's
            // `scaled` entries `jt - j0 .. jt - j0 + 4 <= bw`, and
            // masked-off lanes are not accessed.
            unsafe {
                let x0 = _mm256_maskload_pd(x, lo);
                let x1 = _mm256_maskload_pd(x.wrapping_add(4), hi);
                for rr in 0..4 {
                    let b = _mm256_broadcast_sd(&*s.add(rr));
                    acc[2 * rr] = _mm256_fmadd_pd(b, x0, acc[2 * rr]);
                    acc[2 * rr + 1] = _mm256_fmadd_pd(b, x1, acc[2 * rr + 1]);
                }
            }
            s = s.wrapping_add(bw);
        }
        for rr in 0..4 {
            // Lanes left of the diagonal `j = jt + rr` stay untouched.
            let from = (jt + rr) as i64 - ct as i64;
            let out = block[(jt - v.j0 + rr) * p + ct..].as_mut_ptr();
            for h in 0..2 {
                let m = lanes(from - 4 * h as i64, nw - 4 * h as i64);
                let o = out.wrapping_add(4 * h);
                // SAFETY: the mask keeps columns `ct..ct + nw` of output
                // row `jt + rr`, inside the band's block (`check_tile`).
                unsafe {
                    let sum = _mm256_add_pd(_mm256_maskload_pd(o, m), acc[2 * rr + h]);
                    _mm256_maskstore_pd(o, m, sum);
                }
            }
        }
    }
}

/// Core batch driver: one pass over `X` for all resamples, returning the
/// upper-stored Grams and (when `y` is given) the paired rhs vectors.
fn batch_core(
    a: &Matrix,
    weights: &[WeightOpt<'_>],
    y: Option<&[f64]>,
) -> (Vec<UpperGram>, Vec<Vec<f64>>) {
    batch_core_scheduled(Kernel::detect(), a, weights, y, None)
}

/// Like [`batch_core`], but with an explicit micro-kernel variant and an
/// optional explicit band execution order (test hooks): because each band
/// of each output has exactly one owning task, any schedule — any thread
/// count, any completion order — must produce bit-identical results.
fn batch_core_scheduled(
    kernel: Kernel,
    a: &Matrix,
    weights: &[WeightOpt<'_>],
    y: Option<&[f64]>,
    order: Option<&[usize]>,
) -> (Vec<UpperGram>, Vec<Vec<f64>>) {
    let (n, p) = a.shape();
    let b = weights.len();
    for w in weights.iter().flatten() {
        assert_eq!(w.len(), n, "weight length must match row count");
    }
    if let Some(y) = y {
        assert_eq!(y.len(), n, "response length must match row count");
    }
    let mut grams: Vec<Vec<f64>> = (0..b).map(|_| vec![0.0f64; p * p]).collect();
    let mut rhs: Vec<Vec<f64>> = if y.is_some() {
        (0..b).map(|_| vec![0.0f64; p]).collect()
    } else {
        Vec::new()
    };

    if p > 0 && n > 0 {
        let n_bands = p.div_ceil(GRAM_BAND);
        let mut tasks: Vec<BandTask<'_>> = (0..n_bands)
            .map(|bi| BandTask {
                j0: bi * GRAM_BAND,
                j1: ((bi + 1) * GRAM_BAND).min(p),
                blocks: Vec::with_capacity(b),
                rhs: Vec::with_capacity(b),
            })
            .collect();
        for buf in grams.iter_mut() {
            for (bi, chunk) in buf.chunks_mut(GRAM_BAND * p).enumerate() {
                tasks[bi].blocks.push(chunk);
            }
        }
        for rbuf in rhs.iter_mut() {
            let mut rest: &mut [f64] = rbuf;
            for task in tasks.iter_mut() {
                let (seg, tail) = rest.split_at_mut(task.j1 - task.j0);
                task.rhs.push(seg);
                rest = tail;
            }
        }
        let flops = b.saturating_mul(n).saturating_mul(p).saturating_mul(p);
        if let Some(order) = order {
            debug_assert_eq!(order.len(), tasks.len());
            for &ti in order {
                band_body(kernel, a, weights, y, &mut tasks[ti]);
            }
        } else if flops >= 1 << 18 && tasks.len() > 1 {
            tasks
                .par_iter_mut()
                .for_each(|t| band_body(kernel, a, weights, y, t));
        } else {
            for t in tasks.iter_mut() {
                band_body(kernel, a, weights, y, t);
            }
        }
    }

    let grams = grams
        .into_iter()
        .map(|g| UpperGram::from_upper(Matrix::from_vec(p, p, g)))
        .collect();
    (grams, rhs)
}

/// Compute `X^T diag(w_b) X` for every resample in one pass over `X`.
/// `None` weights mean the unweighted Gram `X^T X`.
pub fn gram_batch(a: &Matrix, weights: &[WeightOpt<'_>]) -> Vec<UpperGram> {
    batch_core(a, weights, None).0
}

/// Compute `(X^T diag(w_b) X, X^T diag(w_b) y)` for every resample in one
/// pass over `X`.
pub fn gram_rhs_batch(a: &Matrix, y: &[f64], weights: &[&[f64]]) -> Vec<(UpperGram, Vec<f64>)> {
    gram_rhs_batch_on(Kernel::detect(), a, y, weights)
}

/// [`gram_rhs_batch`] on a given micro-kernel variant, for benchmarks
/// that time each variant. Every variant gives the same bits.
///
/// # Panics
/// If this CPU does not support `kernel` ([`Kernel::supported`]).
pub fn gram_rhs_batch_on(
    kernel: Kernel,
    a: &Matrix,
    y: &[f64],
    weights: &[&[f64]],
) -> Vec<(UpperGram, Vec<f64>)> {
    let opts: Vec<WeightOpt<'_>> = weights.iter().map(|w| Some(*w)).collect();
    let (grams, rhs) = batch_core_scheduled(kernel, a, &opts, Some(y), None);
    grams.into_iter().zip(rhs).collect()
}

/// Batch entry point with the legacy full-symmetric output contract:
/// every Gram is mirrored into both triangles.
pub fn syrk_t_weighted_batch(a: &Matrix, weights: &[&[f64]]) -> Vec<Matrix> {
    let opts: Vec<WeightOpt<'_>> = weights.iter().map(|w| Some(*w)).collect();
    gram_batch(a, &opts)
        .into_iter()
        .map(UpperGram::into_full)
        .collect()
}

/// Upper-stored `X^T X` (no mirror).
pub fn syrk_t_upper(a: &Matrix) -> UpperGram {
    gram_batch(a, &[None]).pop().expect("batch of one")
}

/// Upper-stored `X^T diag(w) X` (no mirror).
pub fn syrk_t_weighted_upper(a: &Matrix, w: &[f64]) -> UpperGram {
    gram_batch(a, &[Some(w)]).pop().expect("batch of one")
}

/// `X^T diag(w) y_c` for every response column in one pass over `X`.
///
/// The VAR pipelines solve the same lag-stacked design against `d`
/// response series; sharing the row sweep keeps the design matrix read
/// once instead of `d` times.
pub fn gemv_t_weighted_multi(a: &Matrix, w: &[f64], ys: &[&[f64]]) -> Vec<Vec<f64>> {
    let (n, p) = a.shape();
    assert_eq!(w.len(), n, "weight length must match row count");
    for y in ys {
        assert_eq!(y.len(), n, "response length must match row count");
    }
    let mut out = vec![vec![0.0f64; p]; ys.len()];
    for i in 0..n {
        let wi = w[i];
        if wi == 0.0 {
            continue;
        }
        let row = a.row(i);
        for (c, y) in ys.iter().enumerate() {
            let coeff = wi * y[i];
            if coeff != 0.0 {
                kernels::axpy(coeff, row, &mut out[c]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;

    fn demo_matrix(n: usize, p: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        Matrix::from_fn(n, p, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    fn demo_weights(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 4) as f64
            })
            .collect()
    }

    /// Reference: materialize the resample by repeating rows and run the
    /// row-at-a-time oracle. Integer multiplicities only.
    fn materialized_gram(a: &Matrix, w: &[f64]) -> Matrix {
        let mut idx = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            for _ in 0..wi as usize {
                idx.push(i);
            }
        }
        blas::syrk_t(&a.gather_rows(&idx))
    }

    #[test]
    fn batch_matches_materialized_oracle() {
        let a = demo_matrix(97, 37, 3);
        let ws: Vec<Vec<f64>> = (0..4).map(|k| demo_weights(97, 10 + k)).collect();
        let refs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        let grams = syrk_t_weighted_batch(&a, &refs);
        for (k, g) in grams.iter().enumerate() {
            let want = materialized_gram(&a, &ws[k]);
            assert!(g.approx_eq(&want, 1e-9), "bootstrap {k} disagrees");
        }
    }

    #[test]
    fn rhs_matches_gemv_oracle() {
        let a = demo_matrix(71, 23, 5);
        let y: Vec<f64> = (0..71).map(|i| (i as f64 * 0.37).sin()).collect();
        let ws: Vec<Vec<f64>> = (0..3).map(|k| demo_weights(71, 40 + k)).collect();
        let refs: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        for (k, (_, rhs)) in gram_rhs_batch(&a, &y, &refs).iter().enumerate() {
            let want = blas::gemv_t_weighted(&a, &ws[k], &y);
            for (got, want) in rhs.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-9, "bootstrap {k} rhs disagrees");
            }
        }
    }

    /// Every variant this CPU runs; the others are named on stderr,
    /// which libtest does not capture (only the `print!` family is), so a
    /// passing test that checked fewer variants says so in the log.
    fn kernels() -> Vec<Kernel> {
        use std::io::Write;
        let (run, skip): (Vec<Kernel>, Vec<Kernel>) =
            Kernel::ALL.iter().partition(|k| k.supported());
        if !skip.is_empty() {
            let _ = writeln!(
                std::io::stderr(),
                "SKIPPED: this CPU lacks the features of the {skip:?} Gram kernels"
            );
        }
        run
    }

    #[test]
    fn batch_of_one_bit_identical_to_larger_batch() {
        let a = demo_matrix(130, 61, 7);
        let ws: Vec<Vec<f64>> = (0..5).map(|k| demo_weights(130, 70 + k)).collect();
        let opts: Vec<WeightOpt<'_>> = ws.iter().map(|w| Some(w.as_slice())).collect();
        for kernel in kernels() {
            let batched = batch_core_scheduled(kernel, &a, &opts, None, None).0;
            for (k, w) in opts.iter().enumerate() {
                let solo = batch_core_scheduled(kernel, &a, &[*w], None, None).0;
                assert_eq!(
                    solo[0].upper().as_slice(),
                    batched[k].upper().as_slice(),
                    "{kernel:?}: bootstrap {k} depends on batch composition"
                );
            }
        }
    }

    #[test]
    fn unweighted_specialization_matches_unit_weights() {
        let a = demo_matrix(83, 29, 11);
        let ones = vec![1.0; 83];
        let upper = syrk_t_upper(&a);
        let weighted = syrk_t_weighted_upper(&a, &ones);
        assert_eq!(upper.upper().as_slice(), weighted.upper().as_slice());
    }

    #[test]
    fn upper_gram_mirror_and_canonical_access() {
        let a = demo_matrix(40, 13, 13);
        let ug = syrk_t_upper(&a);
        for i in 0..13 {
            for j in 0..i {
                assert_eq!(ug.upper()[(i, j)], 0.0, "strict lower must be zero");
                assert_eq!(ug.get(i, j), ug.get(j, i));
            }
        }
        let full = ug.clone().into_full();
        for i in 0..13 {
            for j in 0..13 {
                let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
                assert_eq!(full[(i, j)], ug.upper()[(lo, hi)]);
            }
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let empty = Matrix::zeros(0, 4);
        let grams = gram_batch(&empty, &[None, Some(&[])]);
        for g in &grams {
            assert_eq!(g.order(), 4);
            assert!(g.upper().as_slice().iter().all(|&v| v == 0.0));
        }
        let zero_w = vec![0.0; 9];
        let a = demo_matrix(9, 3, 17);
        let g = syrk_t_weighted_upper(&a, &zero_w);
        assert!(g.upper().as_slice().iter().all(|&v| v == 0.0));
        let y = vec![1.0; 9];
        let (_, rhs) = &gram_rhs_batch(&a, &y, &[&zero_w])[0];
        assert!(rhs.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn multi_rhs_matches_per_column_oracle() {
        let a = demo_matrix(57, 19, 19);
        let w = demo_weights(57, 23);
        let y1: Vec<f64> = (0..57).map(|i| (i as f64 * 0.11).cos()).collect();
        let y2: Vec<f64> = (0..57).map(|i| (i as f64 * 0.29).sin()).collect();
        let multi = gemv_t_weighted_multi(&a, &w, &[&y1, &y2]);
        for (got, y) in multi.iter().zip([&y1, &y2]) {
            let want = blas::gemv_t_weighted(&a, &w, y);
            for (g, w_) in got.iter().zip(&want) {
                assert!((g - w_).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn thread_count_sweep_bit_identical() {
        // Several bands, large enough to cross the parallel threshold.
        let a = demo_matrix(300, 160, 29);
        let ws: Vec<Vec<f64>> = (0..3).map(|k| demo_weights(300, 90 + k)).collect();
        let opts: Vec<WeightOpt<'_>> = ws.iter().map(|w| Some(w.as_slice())).collect();
        let y: Vec<f64> = (0..300).map(|i| (i as f64 * 0.07).sin()).collect();
        let n_bands = 160usize.div_ceil(GRAM_BAND);
        assert!(n_bands >= 3, "test shape must span several bands");
        for kernel in kernels() {
            let reference = batch_core_scheduled(kernel, &a, &opts, Some(&y), None);
            let want: Vec<(Vec<f64>, Vec<f64>)> = reference
                .0
                .into_iter()
                .zip(reference.1)
                .map(|(g, r)| (g.into_upper().into_vec(), r))
                .collect();
            for threads in [1usize, 2, 4, 8] {
                // Emulate a T-thread schedule: bands are dealt round-robin
                // to the workers and each worker drains its share
                // back-to-back, so the global completion order differs for
                // every T.
                let mut order = Vec::with_capacity(n_bands);
                for t in 0..threads {
                    order.extend((t..n_bands).step_by(threads));
                }
                let got = batch_core_scheduled(kernel, &a, &opts, Some(&y), Some(&order));
                let got: Vec<(Vec<f64>, Vec<f64>)> = got
                    .0
                    .into_iter()
                    .zip(got.1)
                    .map(|(g, r)| (g.into_upper().into_vec(), r))
                    .collect();
                assert_eq!(got, want, "{kernel:?}: {threads}-thread schedule diverged");
            }
        }
    }

    #[test]
    fn packs_each_panel_exactly_once_regardless_of_batch_size() {
        let a = demo_matrix(200, 96, 31);
        let ws: Vec<Vec<f64>> = (0..8).map(|k| demo_weights(200, 50 + k)).collect();
        let one: Vec<&[f64]> = vec![ws[0].as_slice()];
        let eight: Vec<&[f64]> = ws.iter().map(|w| w.as_slice()).collect();
        let before = pack_count();
        let _ = syrk_t_weighted_batch(&a, &one);
        let solo_packs = pack_count() - before;
        let before = pack_count();
        let _ = syrk_t_weighted_batch(&a, &eight);
        let batch_packs = pack_count() - before;
        assert_eq!(
            solo_packs, batch_packs,
            "batch must pack each (band, panel) once, independent of B"
        );
        // Sanity: the expected grid of (band, panel) pairs.
        let bands = 96usize.div_ceil(GRAM_BAND);
        let panels = 200usize.div_ceil(GRAM_PANEL_ROWS);
        assert_eq!(solo_packs, (bands * panels) as u64);
    }

    /// Weight patterns: 0 dense integer multiplicities, 1 sparse (about
    /// one row in eight kept, fractional), 2 all zero, 3 unweighted.
    fn weight_pattern(n: usize, seed: u64, mode: u8) -> Option<Vec<f64>> {
        match mode {
            0 => Some(demo_weights(n, seed)),
            1 => Some(
                demo_weights(n, seed)
                    .iter()
                    .zip(demo_weights(n, seed + 1))
                    .map(|(&w, v)| if v == 0.0 { w * 0.75 } else { 0.0 })
                    .collect(),
            ),
            2 => Some(vec![0.0; n]),
            _ => None,
        }
    }

    /// Every kernel against a scalar statement of the bracketing the
    /// module's *Determinism* section promises, bit for bit.
    mod oracle {
        use super::*;

        /// Scalar reference: for every upper element `(j, c)`, a fresh sum
        /// per panel of `GRAM_PANEL_ROWS` rows, starting at `+0.0`, over
        /// the panel's nonzero-weight rows in ascending order, each term
        /// one fused multiply-add `sum = fma(w_r · x_rj, x_rc, sum)`,
        /// added to the output once per panel. The rhs adds
        /// `(w_r · y_r) · x_rj` row by row, a multiply and an add,
        /// skipping zero coefficients. `None` weights are unit weights.
        fn bracketing_oracle(a: &Matrix, w: WeightOpt<'_>, y: &[f64]) -> (Vec<f64>, Vec<f64>) {
            let (n, p) = a.shape();
            let weight = |r: usize| w.map_or(1.0, |w| w[r]);
            let mut gram = vec![0.0f64; p * p];
            let mut rhs = vec![0.0f64; p];
            for i0 in (0..n).step_by(GRAM_PANEL_ROWS) {
                let rows: Vec<usize> = (i0..(i0 + GRAM_PANEL_ROWS).min(n))
                    .filter(|&r| weight(r) != 0.0)
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                for j in 0..p {
                    for c in j..p {
                        let mut sum = 0.0f64;
                        for &r in &rows {
                            sum = (weight(r) * a[(r, j)]).mul_add(a[(r, c)], sum);
                        }
                        gram[j * p + c] += sum;
                    }
                }
                for &r in &rows {
                    let coeff = weight(r) * y[r];
                    if coeff != 0.0 {
                        for (j, out) in rhs.iter_mut().enumerate() {
                            *out += coeff * a[(r, j)];
                        }
                    }
                }
            }
            (gram, rhs)
        }

        /// `kernel`'s Grams and rhs, for dense integer, sparse fractional,
        /// all-zero and unit weights, must equal the oracle's `to_bits`.
        fn matches_oracle(kernel: Kernel, n: usize, p: usize, seed: u64) -> Result<(), String> {
            let a = demo_matrix(n, p, seed);
            let y: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.17 + seed as f64).cos())
                .collect();
            let ws: Vec<Option<Vec<f64>>> = (0..4u8)
                .map(|mode| weight_pattern(n, seed + 300, mode))
                .collect();
            let opts: Vec<WeightOpt<'_>> = ws.iter().map(|w| w.as_deref()).collect();
            let (grams, rhs) = batch_core_scheduled(kernel, &a, &opts, Some(&y), None);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            for (mode, (g, r)) in grams.into_iter().zip(&rhs).enumerate() {
                let (want_g, want_r) = bracketing_oracle(&a, opts[mode], &y);
                if bits(g.upper().as_slice()) != bits(&want_g) {
                    return Err(format!(
                        "{kernel:?} Gram differs from the oracle at n={n}, p={p}, weights {mode}"
                    ));
                }
                if bits(r) != bits(&want_r) {
                    return Err(format!(
                        "{kernel:?} rhs differs from the oracle at n={n}, p={p}, weights {mode}"
                    ));
                }
            }
            Ok(())
        }

        #[test]
        fn kernels_match_bracketing_oracle_on_edge_shapes() {
            // Every variant's edges: p not a multiple of the 16-, 8- and
            // 4-wide column tiles (masked right-edge tiles); diagonal
            // tiles straddling the row tile; a last band whose height is
            // not a multiple of 8 or 4 (ragged bottom rows); and a last
            // panel shorter than GRAM_PANEL_ROWS.
            let shapes = [
                (0, 5),     // no rows: every Gram is zero
                (1, 1),     // one element
                (37, 3),    // p below every tile edge, n < GRAM_PANEL_ROWS
                (50, 13),   // p not a multiple of 4 or 8
                (40, 24),   // p a multiple of 8 but not of 16
                (64, 64),   // one full band, one full panel
                (65, 66),   // one row and two columns past a panel and a band
                (130, 30),  // ragged last panel
                (71, 100),  // last band 36 rows: 8-row tiles leave 4
                (200, 150), // three bands, the last one ragged
                (97, 203),  // four bands; p not a multiple of 8
                (129, 256), // the benchmark's p: whole tiles, ragged panel
            ];
            for kernel in kernels() {
                for (i, &(n, p)) in shapes.iter().enumerate() {
                    matches_oracle(kernel, n, p, 41 + i as u64).unwrap_or_else(|e| panic!("{e}"));
                }
            }
        }

        proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases(24))]

            #[test]
            fn kernels_match_bracketing_oracle_on_random_shapes(
                n in 1usize..180,
                p in 1usize..150,
                seed in 0u64..1000,
            ) {
                for kernel in kernels() {
                    proptest::prop_assert_eq!(matches_oracle(kernel, n, p, seed), Ok(()));
                }
            }
        }
    }

    /// Each wide variant against the portable kernel, one test per
    /// variant so the test list names what ran.
    #[cfg(target_arch = "x86_64")]
    mod variants {
        use super::*;

        /// Gram and rhs bits of `kernel` must equal the portable kernel's.
        fn matches_portable(kernel: Kernel, n: usize, p: usize, seed: u64) -> Result<(), String> {
            let a = demo_matrix(n, p, seed);
            let y: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.13 + seed as f64).sin())
                .collect();
            let ws: Vec<Option<Vec<f64>>> = (0..4u8)
                .map(|mode| weight_pattern(n, seed + 100, mode))
                .collect();
            let opts: Vec<WeightOpt<'_>> = ws.iter().map(|w| w.as_deref()).collect();
            let bits = |kernel: Kernel| {
                let (grams, rhs) = batch_core_scheduled(kernel, &a, &opts, Some(&y), None);
                let grams: Vec<Vec<u64>> = grams
                    .into_iter()
                    .map(|g| {
                        g.into_upper()
                            .into_vec()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    })
                    .collect();
                let rhs: Vec<Vec<u64>> = rhs
                    .iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect();
                (grams, rhs)
            };
            if bits(kernel) != bits(Kernel::Portable) {
                return Err(format!("{kernel:?} differs from Portable at n={n}, p={p}"));
            }
            Ok(())
        }

        /// Whether this CPU runs `kernel`. When it does not, the test that
        /// asked says so on the process's stderr, which libtest does not
        /// capture (only the `print!` family is), so a passing test that
        /// checked nothing is visible in the log.
        fn runs_here(kernel: Kernel) -> bool {
            use std::io::Write;
            let ok = kernel.supported();
            if !ok {
                let _ = writeln!(
                    std::io::stderr(),
                    "SKIPPED: this CPU lacks the {kernel:?} Gram kernel's features; nothing was checked"
                );
            }
            ok
        }

        #[test]
        fn avx512_bit_identical_to_portable() {
            if !runs_here(Kernel::Avx512Fma) {
                return;
            }
            let shapes = [
                (37, 3),    // p below every tile edge, n < GRAM_PANEL_ROWS
                (50, 13),   // p not a multiple of 8
                (130, 30),  // p not a multiple of 16, n not a multiple of 64
                (64, 64),   // one full band, one full panel
                (200, 150), // three bands, the last one ragged
                (97, 203),  // four bands; p not a multiple of 8
            ];
            for (i, &(n, p)) in shapes.iter().enumerate() {
                matches_portable(Kernel::Avx512Fma, n, p, 7 + i as u64)
                    .unwrap_or_else(|e| panic!("{e}"));
            }
        }

        proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases(24))]

            #[test]
            fn avx512_bit_identical_on_random_shapes(n in 1usize..180, p in 1usize..210, seed in 0u64..1000) {
                if runs_here(Kernel::Avx512Fma) {
                    proptest::prop_assert_eq!(matches_portable(Kernel::Avx512Fma, n, p, seed), Ok(()));
                }
            }

        }
    }
}

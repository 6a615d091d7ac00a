//! Stencil sweep kernels and discrete residuals.
//!
//! The Jacobi update for stencil `S` at interior point `(r, c)` is
//!
//! ```text
//! u'(r,c) = ( Σ_taps coeff·u(r+dy, c+dx) + rhs_scale·h²·f(r,c) ) / divisor
//! ```
//!
//! Every out-of-place Jacobi sweep runs through one of two drivers:
//! [`jacobi_sweep_blend_region`], a column-tiled pass over a region (the
//! full interior for [`jacobi_sweep_blend`], a temporal-tiling band step
//! driven by [`parspeed_grid::BandSchedule`], or a partition's deep-halo
//! ghost region), and [`jacobi_sweep_blend_par`], the same pass row-parallel
//! under rayon. It declares its work, [`sweep_seconds`], a function of the
//! grid's size alone, and runs on the thread count the pool has timed
//! fastest for that size: the paper's optimal `P` for the grid's size,
//! measured on this machine. Each output row
//! dispatches on [`Stencil::kernel_kind`]: the four catalogue stencils run
//! fused kernels that read whole padded row slices with hoisted
//! halo/offset arithmetic, each stencil's taps written once (`TapSum`),
//! while any other stencil falls back to the tap-driven row loop. The
//! fused kernels perform the identical arithmetic in the identical order,
//! so results are bit-for-bit equal to the per-point reference
//! [`jacobi_sweep_region_generic`] — the property every equivalence test
//! in this workspace leans on — and Jacobi reads only `src`, so row
//! parallelism cannot change results either.
//!
//! Each row is one traversal: the loop that computes a cell's update also
//! applies the ω-blend, stores the cell and folds `|prev − new|` into the
//! max-norm update difference, `prev` being the centre value the update
//! already loads. The three full-grid passes of a weighted-Jacobi
//! iteration (sweep, blend, convergence diff) are one loop over each row.
//! [`jacobi_sweep`], [`jacobi_sweep_region`] and [`jacobi_sweep_par`] are
//! the plain sweeps: one driver call each with ω = 1 and no diff.
//!
//! [`sor_sweep`] is the in-place lexicographic relaxation sweep
//! (Gauss-Seidel/SOR) under the same dispatch and on the same tap sums;
//! its per-point relaxation and running max-difference go through the
//! crate-internal `relax_update` helper, the fused convergence reduction
//! the red-black solver shares.

use parspeed_grid::{Grid2D, Region};
use parspeed_stencil::{KernelKind, Stencil};
use rayon::prelude::*;

/// Column-tile width of the fused traversal. A tile bounds the reuse
/// distance between the padded source rows two consecutive output rows
/// share, keeping them L1-resident even when a full row (8·`n` bytes) no
/// longer fits.
const COL_TILE: usize = 512;

/// Cells a row kernel updates per step, and the independent partial
/// maxima its max-norm fold keeps (the checked Jacobi rows here and
/// `split::laned_max`): one running max would be a serial dependency
/// chain, one `maxsd` per cell.
pub(crate) const LANES: usize = 8;

/// The nominal `t_fp` that prices declared work, in seconds per flop:
/// fixed, so that an operation's work is a function of its size alone.
/// Its value only places the pool's size classes and its floor; the pool
/// times the thread counts themselves.
const FLOP_SECONDS: f64 = 0.25e-9;

/// The serial work `W`, in seconds, of `points` updates costing
/// `flops_per_point` each (`W = points · E · t_fp` at the nominal
/// `t_fp`): what the row-parallel kernels declare to the pool, which
/// runs each size class on the thread count its trials timed fastest.
pub fn sweep_seconds(points: usize, flops_per_point: f64) -> f64 {
    points as f64 * flops_per_point * FLOP_SECONDS
}

/// Jacobi sweep over the whole interior of `src` into `dst`.
pub fn jacobi_sweep(stencil: &Stencil, src: &Grid2D, dst: &mut Grid2D, f: &Grid2D, h2: f64) {
    jacobi_sweep_blend(stencil, src, dst, f, h2, 1.0, false);
}

/// Rayon row-parallel full-interior sweep; bit-identical to
/// [`jacobi_sweep`] (each worker writes disjoint `dst` rows computed from
/// the immutable `src`). Small grids run inline: see [`sweep_seconds`].
pub fn jacobi_sweep_par(stencil: &Stencil, src: &Grid2D, dst: &mut Grid2D, f: &Grid2D, h2: f64) {
    jacobi_sweep_blend_par(stencil, src, dst, f, h2, 1.0, false);
}

/// Jacobi sweep over `region` (coordinates of `f`/the global problem);
/// `offset = (row0, col0)` maps global coordinates to `src`/`dst` local
/// interior coordinates (`local = global − offset`): the shape of a
/// partition that owns a local grid.
pub fn jacobi_sweep_region(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    region: &Region,
    offset: (usize, usize),
) {
    jacobi_sweep_blend_region(stencil, src, dst, f, h2, region, offset, 1.0, false);
}

/// The per-point tap-interpreting sweep — the reference benches and
/// identity tests compare the fused kernels against.
pub fn jacobi_sweep_region_generic(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    region: &Region,
    offset: (usize, usize),
) {
    let rs_h2 = stencil.rhs_scale() * h2;
    let inv = 1.0 / stencil.divisor();
    let lc0 = region.c0 as isize - offset.1 as isize;
    for gr in region.r0..region.r1 {
        let lr = gr as isize - offset.0 as isize;
        for (lc, gc) in (lc0..).zip(region.c0..region.c1) {
            let mut acc = 0.0;
            for t in stencil.taps() {
                acc += t.coeff * src.get_h(lr + t.offset.dy as isize, lc + t.offset.dx as isize);
            }
            acc += rs_h2 * f.get(gr, gc);
            dst.set_h(lr, lc, acc * inv);
        }
    }
}

/// Fused sweep + ω-blend + optional max-norm update reduction in one
/// traversal of each row: the loop that computes a cell's Jacobi update
/// of `src` into `dst` also blends `dst = ω·dst + (1−ω)·src` when
/// `ω ≠ 1`, stores the cell and, when `compute_diff`, folds
/// `|src − dst|` into the returned max. Bit-identical to
/// [`jacobi_sweep`] followed by a separate blend pass and a separate
/// `max_abs_diff` pass (the blend arithmetic and the per-point
/// differences are unchanged; a max-fold is order-independent). Returns
/// `0.0` when `compute_diff` is false.
pub fn jacobi_sweep_blend(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    omega: f64,
    compute_diff: bool,
) -> f64 {
    let region = Region::new(0, src.rows(), 0, src.cols());
    jacobi_sweep_blend_region(stencil, src, dst, f, h2, &region, (0, 0), omega, compute_diff)
}

/// [`jacobi_sweep_blend`] over one region, with `offset` mapping it to
/// local coordinates as in [`jacobi_sweep_region`]. The region may reach
/// into the halo (the deep-halo executor's ghost sweeps). Fused kernels
/// serve the catalogue stencils wherever `fusable` admits the region,
/// the tap-driven row loop everything else; either way each cell is
/// updated, blended, stored and folded into the diff in one step.
#[allow(clippy::too_many_arguments)]
pub fn jacobi_sweep_blend_region(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    region: &Region,
    offset: (usize, usize),
    omega: f64,
    compute_diff: bool,
) -> f64 {
    let update = Update::new(stencil, h2, omega, compute_diff);
    let kind = fusable(stencil, src, dst, f, region, offset);
    let mut worst = 0.0f64;
    let mut tc0 = region.c0;
    while tc0 < region.c1 {
        let tc1 = (tc0 + COL_TILE).min(region.c1);
        let w = tc1 - tc0;
        // Local column of the tile start can be negative (deep-halo
        // expanded regions); `fusable` guarantees the padded offsets are
        // non-negative and the slices in bounds.
        let lc0 = tc0 as isize - offset.1 as isize;
        let b = (lc0 + src.halo() as isize) as usize;
        let bd = (lc0 + dst.halo() as isize) as usize;
        let fb = tc0 + f.halo();
        for gr in region.r0..region.r1 {
            let lr = gr as isize - offset.0 as isize;
            let frow = &f.padded_row(gr as isize)[fb..fb + w];
            let out = &mut dst.padded_row_mut(lr)[bd..bd + w];
            let row_worst = match kind {
                Some(kind) => fused_row(kind, src, lr, b, frow, out, update),
                None => generic_row(stencil, src, lr, lc0, gr, tc0..tc1, f, update, out),
            };
            worst = worst.max(row_worst);
        }
        tc0 = tc1;
    }
    worst
}

/// Rayon row-parallel [`jacobi_sweep_blend`]; bit-identical to it (each
/// worker writes disjoint `dst` rows from the immutable `src`, and the
/// max-norm reduction is order-independent).
pub fn jacobi_sweep_blend_par(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    omega: f64,
    compute_diff: bool,
) -> f64 {
    let region = Region::new(0, src.rows(), 0, src.cols());
    let update = Update::new(stencil, h2, omega, compute_diff);
    let kind = fusable(stencil, src, dst, f, &region, (0, 0));
    let (rows, cols) = (src.rows(), src.cols());
    let (dst_halo, stride) = (dst.halo(), dst.stride());
    dst.as_mut_slice()
        .par_chunks_mut(stride)
        .enumerate()
        .with_work(sweep_seconds(rows * cols, stencil.flops_per_point()))
        .map(|(pr, row)| {
            if pr < dst_halo || pr >= dst_halo + rows {
                return 0.0;
            }
            let r = pr - dst_halo;
            let lr = r as isize;
            let out = &mut row[dst_halo..dst_halo + cols];
            match kind {
                Some(kind) => {
                    let frow = &f.padded_row(lr)[f.halo()..f.halo() + cols];
                    fused_row(kind, src, lr, src.halo(), frow, out, update)
                }
                None => generic_row(stencil, src, lr, 0, r, 0..cols, f, update, out),
            }
        })
        .reduce(|| 0.0f64, f64::max)
}

/// The constants of one sweep, and what an out-of-place Jacobi sweep
/// does to a cell once its tap sum is in: the update, the ω-blend and the
/// diff fold. The in-place SOR rows take the constants only.
#[derive(Debug, Clone, Copy)]
struct Update {
    /// `rhs_scale · h²`.
    rs_h2: f64,
    /// `1 / divisor`.
    inv: f64,
    omega: f64,
    diff: bool,
}

impl Update {
    fn new(stencil: &Stencil, h2: f64, omega: f64, diff: bool) -> Self {
        Self { rs_h2: stencil.rhs_scale() * h2, inv: 1.0 / stencil.divisor(), omega, diff }
    }

    /// The new value of a cell with tap sum `acc`, forcing `f` and
    /// previous value `prev`: `(acc + rs·h²·f)/divisor`, then, when
    /// `blend`, `ω·new + (1−ω)·prev`; when `diff`, `|prev − new|` is
    /// folded into `worst`. The callers pass `blend` and `diff` as
    /// constants where they can, so each row kernel compiles to one
    /// branch-free loop per setting.
    #[inline(always)]
    fn cell(self, acc: f64, f: f64, prev: f64, blend: bool, diff: bool, worst: &mut f64) -> f64 {
        let mut new = (acc + self.rs_h2 * f) * self.inv;
        if blend {
            new = self.omega * new + (1.0 - self.omega) * prev;
        }
        if diff {
            fold_max(worst, (prev - new).abs());
        }
        new
    }
}

/// Relaxed in-place point update plus the running max-difference fold —
/// the fused convergence reduction every in-place sweep (SOR here, the
/// red-black half-sweep in `split.rs`) shares instead of a separate diff
/// pass.
#[inline]
pub(crate) fn relax_update(old: f64, jacobi: f64, omega: f64, worst: &mut f64) -> f64 {
    let new = old + omega * (jacobi - old);
    fold_max(worst, (new - old).abs());
    new
}

/// `worst = max(worst, v)` as one compare-and-select. For a `worst` that
/// is never NaN it gives `f64::max`'s value (a NaN `v` leaves `worst` as
/// it is), but it compiles to a single `maxsd`/`maxpd`, where `f64::max`
/// adds a compare and a blend per cell for its NaN rule: a measurable
/// share of the laned half-sweep and residual loops (`split::laned_max`).
#[inline(always)]
pub(crate) fn fold_max(worst: &mut f64, v: f64) {
    *worst = if *worst < v { v } else { *worst };
}

/// In-place lexicographic relaxation sweep (Gauss-Seidel for `omega = 1`,
/// SOR otherwise) over the full interior of `u`; returns the max-norm
/// update difference of the sweep. Dispatches to fused row kernels for the
/// catalogue stencils; the arithmetic (and therefore the iterate sequence)
/// is identical to the tap-driven loop either way.
pub fn sor_sweep(stencil: &Stencil, u: &mut Grid2D, f: &Grid2D, h2: f64, omega: f64) -> f64 {
    let update = Update::new(stencil, h2, omega, true);
    let n_rows = u.rows();
    let cols = u.cols();
    let full = Region::new(0, n_rows, 0, cols);
    // In-place update: `u` is both source and destination.
    let kind = fusable(stencil, u, u, f, &full, (0, 0));
    let mut worst = 0.0f64;
    match kind {
        Some(kind) => {
            let (halo, stride) = (u.halo(), u.stride());
            for r in 0..n_rows {
                let frow = &f.padded_row(r as isize)[f.halo()..f.halo() + cols];
                let (above, mid, below) = u.split_row_mut(r);
                let rows = (above, mid, below, stride);
                let row_worst = match kind {
                    KernelKind::FivePoint => sor_row::<FivePt>(rows, halo, frow, update),
                    KernelKind::NinePointBox => sor_row::<NinePtBox>(rows, halo, frow, update),
                    KernelKind::NinePointStar => sor_row::<NinePtStar>(rows, halo, frow, update),
                    KernelKind::ThirteenPointStar => {
                        sor_row::<ThirteenPt>(rows, halo, frow, update)
                    }
                };
                worst = worst.max(row_worst);
            }
        }
        None => {
            for r in 0..n_rows {
                let ri = r as isize;
                for c in 0..cols {
                    let ci = c as isize;
                    let mut acc = 0.0;
                    for t in stencil.taps() {
                        acc +=
                            t.coeff * u.get_h(ri + t.offset.dy as isize, ci + t.offset.dx as isize);
                    }
                    let jacobi = (acc + update.rs_h2 * f.get(r, c)) * update.inv;
                    let old = u.get(r, c);
                    let new = relax_update(old, jacobi, omega, &mut worst);
                    u.set(r, c, new);
                }
            }
        }
    }
    worst
}

/// Max-norm of the discrete residual `(div·u − Σ c·u_nb)/(rs·h²) − f`,
/// the fixed-point defect of the Jacobi form.
pub fn residual_max(stencil: &Stencil, u: &Grid2D, f: &Grid2D, h2: f64) -> f64 {
    let rs_h2 = stencil.rhs_scale() * h2;
    let mut worst = 0.0f64;
    for r in 0..u.rows() {
        for c in 0..u.cols() {
            let (ri, ci) = (r as isize, c as isize);
            let mut nb = 0.0;
            for t in stencil.taps() {
                nb += t.coeff * u.get_h(ri + t.offset.dy as isize, ci + t.offset.dx as isize);
            }
            let res = (stencil.divisor() * u.get(r, c) - nb) / rs_h2 - f.get(r, c);
            worst = worst.max(res.abs());
        }
    }
    worst
}

/// Whether the fused kernel for `stencil` may sweep `region`: a kernel
/// must exist and the region's local image must stay `reach` away from
/// the edge of the *padded* extents of `src` and `dst`, so every padded
/// row slice the kernel takes is in bounds. A region confined to the
/// interiors of grids with halo ≥ reach always qualifies; so do the
/// halo-overlapping expanded regions the deep-halo executor sweeps, as
/// long as the halo is at least one reach wider than the overlap. (The
/// tap-driven fallback can additionally write the outermost halo ring,
/// which the fused path cannot slice.)
fn fusable(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &Grid2D,
    f: &Grid2D,
    region: &Region,
    offset: (usize, usize),
) -> Option<KernelKind> {
    let kind = stencil.kernel_kind()?;
    let k = stencil.reach() as isize;
    let lr0 = region.r0 as isize - offset.0 as isize;
    let lr1 = region.r1 as isize - offset.0 as isize;
    let lc0 = region.c0 as isize - offset.1 as isize;
    let lc1 = region.c1 as isize - offset.1 as isize;
    let margin_ok = |g: &Grid2D| {
        let h = g.halo() as isize;
        lr0 >= k - h
            && lr1 <= g.rows() as isize + h - k
            && lc0 >= k - h
            && lc1 <= g.cols() as isize + h - k
    };
    let ok = lr1 >= lr0
        && lc1 >= lc0
        && margin_ok(src)
        && margin_ok(dst)
        && region.r1 <= f.rows()
        && region.c1 <= f.cols();
    ok.then_some(kind)
}

/// One generic (tap-driven) output row written into a padded `dst` row
/// slice — the drivers' fallback for stencils without a fused kernel.
/// Returns the row's max update difference (0 without the diff).
#[allow(clippy::too_many_arguments)]
fn generic_row(
    stencil: &Stencil,
    src: &Grid2D,
    lr: isize,
    lc_start: isize,
    gr: usize,
    gc: std::ops::Range<usize>,
    f: &Grid2D,
    update: Update,
    out: &mut [f64],
) -> f64 {
    let (blend, diff) = (update.omega != 1.0, update.diff);
    let mut worst = 0.0f64;
    for (lc, (o, gc)) in (lc_start..).zip(out.iter_mut().zip(gc)) {
        let mut acc = 0.0;
        for t in stencil.taps() {
            acc += t.coeff * src.get_h(lr + t.offset.dy as isize, lc + t.offset.dx as isize);
        }
        *o = update.cell(acc, f.get(gr, gc), src.get_h(lr, lc), blend, diff, &mut worst);
    }
    worst
}

/// A catalogue stencil's tap sum in catalogue tap order, which keeps the
/// fused kernels bit-identical to the tap-driven path: `at(dy, dx)` reads
/// the source cell `dy` rows down and `dx` columns right of the one being
/// updated. The first tap's product opens the sum, and a −1 coefficient
/// negates exactly, so `acc -= x` ≡ `acc += −1.0·x`.
trait TapSum {
    /// How many rows and columns the taps reach.
    const REACH: usize;
    fn sum(at: impl Fn(isize, isize) -> f64) -> f64;
}

/// [`KernelKind::FivePoint`]: N, S, W, E, unit coefficients.
struct FivePt;

impl TapSum for FivePt {
    const REACH: usize = 1;
    #[inline(always)]
    fn sum(at: impl Fn(isize, isize) -> f64) -> f64 {
        let mut acc = at(-1, 0);
        acc += at(1, 0);
        acc += at(0, -1);
        acc += at(0, 1);
        acc
    }
}

/// [`KernelKind::NinePointBox`]: N, S, W, E at 4, then NW, NE, SW, SE.
struct NinePtBox;

impl TapSum for NinePtBox {
    const REACH: usize = 1;
    #[inline(always)]
    fn sum(at: impl Fn(isize, isize) -> f64) -> f64 {
        let mut acc = 4.0 * at(-1, 0);
        acc += 4.0 * at(1, 0);
        acc += 4.0 * at(0, -1);
        acc += 4.0 * at(0, 1);
        acc += at(-1, -1);
        acc += at(-1, 1);
        acc += at(1, -1);
        acc += at(1, 1);
        acc
    }
}

/// [`KernelKind::NinePointStar`]: N, S, W, E at 16, then NN, SS, WW, EE
/// at −1.
struct NinePtStar;

impl TapSum for NinePtStar {
    const REACH: usize = 2;
    #[inline(always)]
    fn sum(at: impl Fn(isize, isize) -> f64) -> f64 {
        let mut acc = 16.0 * at(-1, 0);
        acc += 16.0 * at(1, 0);
        acc += 16.0 * at(0, -1);
        acc += 16.0 * at(0, 1);
        acc -= at(-2, 0);
        acc -= at(2, 0);
        acc -= at(0, -2);
        acc -= at(0, 2);
        acc
    }
}

/// [`KernelKind::ThirteenPointStar`]: the nine-point star's taps, then
/// NW, NE, SW, SE at 4.
struct ThirteenPt;

impl TapSum for ThirteenPt {
    const REACH: usize = 2;
    #[inline(always)]
    fn sum(at: impl Fn(isize, isize) -> f64) -> f64 {
        let mut acc = NinePtStar::sum(&at);
        acc += 4.0 * at(-1, -1);
        acc += 4.0 * at(-1, 1);
        acc += 4.0 * at(1, -1);
        acc += 4.0 * at(1, 1);
        acc
    }
}

/// One fused output row: `out[i]` is the update of local point
/// `(lr, b - src.halo() + i)`; `b` is the padded column of the first
/// output point; `frow` holds the matching forcing values. Returns the
/// row's max update difference (0 without the diff).
fn fused_row(
    kind: KernelKind,
    src: &Grid2D,
    lr: isize,
    b: usize,
    frow: &[f64],
    out: &mut [f64],
    update: Update,
) -> f64 {
    match kind {
        KernelKind::FivePoint => row_kernel::<FivePt, 3, 10>(src, lr, b, frow, out, update),
        KernelKind::NinePointBox => row_kernel::<NinePtBox, 3, 10>(src, lr, b, frow, out, update),
        KernelKind::NinePointStar => row_kernel::<NinePtStar, 5, 12>(src, lr, b, frow, out, update),
        KernelKind::ThirteenPointStar => {
            row_kernel::<ThirteenPt, 5, 12>(src, lr, b, frow, out, update)
        }
    }
}

/// [`fused_row`] for stencil `S`: picks the kernel compiled for the
/// sweep's blend and diff setting.
fn row_kernel<S: TapSum, const R: usize, const W: usize>(
    src: &Grid2D,
    lr: isize,
    b: usize,
    frow: &[f64],
    out: &mut [f64],
    update: Update,
) -> f64 {
    match (update.omega != 1.0, update.diff) {
        (false, false) => row_pass::<S, R, W, false, false>(src, lr, b, frow, out, update),
        (false, true) => row_pass::<S, R, W, false, true>(src, lr, b, frow, out, update),
        (true, false) => row_pass::<S, R, W, true, false>(src, lr, b, frow, out, update),
        (true, true) => row_pass::<S, R, W, true, true>(src, lr, b, frow, out, update),
    }
}

/// The one traversal of a fused row of stencil `S`, which reads `R =
/// 2k+1` source rows: for each cell, the tap sum, the update, the blend
/// when `BLEND`, the store and, when `DIFF`, the fold of `|prev − new|`,
/// where `prev` is the centre cell the loop reads anyway.
///
/// With the diff, the row goes [`LANES`] cells at a time: each source
/// row's window of `W = LANES + 2k` cells is borrowed as one `&[f64; W]`
/// and the cells written through one `&mut [f64; LANES]`, after one
/// bounds check each, so the chunk's arithmetic vectorizes, and the diff
/// folds into [`LANES`] independent maxima, where one running max would
/// be a serial dependency chain. A max over a set is order-independent,
/// so the result is the same. Without the diff a plain loop over the
/// cells vectorizes as it stands, where the chunked one compiles to
/// strided loads. (The red-black half-sweep's `split::laned_max` copies
/// each input's chunk into an array instead, which suits that kernel:
/// borrowing ran the half-sweep 20–70 % slower. A checked 5-point row
/// built on it ran at 2.1 ns per point at n = 127, single thread, against
/// 0.9 for this form, so the two helpers stay apart.)
#[inline(never)]
fn row_pass<S: TapSum, const R: usize, const W: usize, const BLEND: bool, const DIFF: bool>(
    src: &Grid2D,
    lr: isize,
    b: usize,
    frow: &[f64],
    out: &mut [f64],
    update: Update,
) -> f64 {
    const { assert!(R == 2 * S::REACH + 1 && W == LANES + 2 * S::REACH) };
    let (k, w) = (S::REACH, out.len());
    // Row `r` is source row `lr − k + r` from padded column `b − k`.
    let rows: [&[f64]; R] =
        std::array::from_fn(|r| &src.padded_row(lr + r as isize - k as isize)[b - k..b + w + k]);
    let frow = &frow[..w];
    let k = k as isize;
    if !DIFF {
        for (i, (o, &fv)) in out.iter_mut().zip(frow).enumerate() {
            let at = |dy: isize, dx: isize| rows[(k + dy) as usize][(i as isize + k + dx) as usize];
            *o = update.cell(S::sum(at), fv, at(0, 0), BLEND, false, &mut 0.0);
        }
        return 0.0;
    }
    let mut lanes = [0.0f64; LANES];
    let body = w - w % LANES;
    let (head, tail) = out.split_at_mut(body);
    for (i, chunk) in (0..).step_by(LANES).zip(head.chunks_exact_mut(LANES)) {
        let chunk: &mut [f64; LANES] = chunk.try_into().expect("a full chunk");
        let fc: &[f64; LANES] = frow[i..i + LANES].try_into().expect("a full chunk");
        let x: [&[f64; W]; R] =
            std::array::from_fn(|r| rows[r][i..i + W].try_into().expect("a full window"));
        for l in 0..LANES {
            let at = |dy: isize, dx: isize| x[(k + dy) as usize][(l as isize + k + dx) as usize];
            chunk[l] = update.cell(S::sum(at), fc[l], at(0, 0), BLEND, true, &mut lanes[l]);
        }
    }
    for ((o, lane), i) in tail.iter_mut().zip(&mut lanes).zip(body..) {
        let at = |dy: isize, dx: isize| rows[(k + dy) as usize][(i as isize + k + dx) as usize];
        *o = update.cell(S::sum(at), frow[i], at(0, 0), BLEND, true, lane);
    }
    let mut worst = 0.0f64;
    for lane in lanes {
        fold_max(&mut worst, lane);
    }
    worst
}

/// One fused in-place relaxation row of stencil `S`. `rows` holds the
/// `above`, `mid` and `below` slices of [`Grid2D::split_row_mut`] and the
/// grid's stride; `mid`'s first interior cell is at `halo`. West reads
/// within `mid` see values already relaxed this sweep, exactly like the
/// tap-driven in-place loop. Returns the row's max update difference.
fn sor_row<S: TapSum>(
    (above, mid, below, stride): (&[f64], &mut [f64], &[f64], usize),
    halo: usize,
    frow: &[f64],
    update: Update,
) -> f64 {
    // The source row `dy` rows from `mid`: the tail of `above` or the
    // head of `below`.
    let row = |dy: isize| -> &[f64] {
        let d = dy.unsigned_abs();
        if dy < 0 {
            &above[above.len() - d * stride..][..stride]
        } else {
            &below[(d - 1) * stride..][..stride]
        }
    };
    let mut worst = 0.0f64;
    for (i, &fv) in frow.iter().enumerate() {
        let j = i + halo;
        let acc = S::sum(|dy, dx| {
            let c = j.wrapping_add_signed(dx);
            if dy == 0 {
                mid[c]
            } else {
                row(dy)[c]
            }
        });
        let jacobi = (acc + update.rs_h2 * fv) * update.inv;
        mid[j] = relax_update(mid[j], jacobi, update.omega, &mut worst);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_setup(n: usize, v: f64, halo: usize) -> (Grid2D, Grid2D, Grid2D) {
        let mut src = Grid2D::new(n, n, halo);
        src.fill(v);
        src.fill_halo(v);
        let dst = Grid2D::new(n, n, halo);
        let f = Grid2D::new(n, n, 0);
        (src, dst, f)
    }

    fn patterned(n: usize, halo: usize) -> (Grid2D, Grid2D) {
        let mut src = Grid2D::from_fn(n, n, halo, |r, c| ((r * 31 + c * 17) % 7) as f64 * 0.37);
        src.fill_halo(1.25);
        let f = Grid2D::from_fn(n, n, 0, |r, c| (r as f64 - c as f64) * 0.11);
        (src, f)
    }

    #[test]
    fn constant_field_is_fixed_point_for_all_stencils() {
        for s in Stencil::catalog() {
            let halo = s.reach();
            let (src, mut dst, f) = constant_setup(6, 3.5, halo);
            jacobi_sweep(&s, &src, &mut dst, &f, 0.01);
            for r in 0..6 {
                for c in 0..6 {
                    assert!((dst.get(r, c) - 3.5).abs() < 1e-12, "{} at ({r},{c})", s.name());
                }
            }
        }
    }

    #[test]
    fn fused_is_bit_identical_to_generic_for_all_stencils() {
        for s in Stencil::catalog() {
            assert!(s.kernel_kind().is_some(), "{} must have a fused kernel", s.name());
            for n in [1usize, 2, 3, 8, 17] {
                let halo = s.reach();
                let (src, f) = patterned(n, halo);
                let region = Region::new(0, n, 0, n);
                let mut fused = Grid2D::new(n, n, halo);
                let mut generic = Grid2D::new(n, n, halo);
                jacobi_sweep(&s, &src, &mut fused, &f, 0.004);
                jacobi_sweep_region_generic(&s, &src, &mut generic, &f, 0.004, &region, (0, 0));
                assert_eq!(
                    fused.max_abs_diff(&generic),
                    0.0,
                    "{} fused differs from generic at n={n}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        for s in Stencil::catalog() {
            let n = 19;
            let halo = s.reach();
            let (src, f) = patterned(n, halo);
            let mut seq = Grid2D::new(n, n, halo);
            let mut par = Grid2D::new(n, n, halo);
            jacobi_sweep(&s, &src, &mut seq, &f, 0.004);
            pool.install(|| jacobi_sweep_par(&s, &src, &mut par, &f, 0.004));
            assert_eq!(seq.max_abs_diff(&par), 0.0, "{}", s.name());
        }
    }

    #[test]
    fn sweep_work_follows_the_problem_size() {
        let e = Stencil::five_point().flops_per_point();
        assert_eq!(sweep_seconds(0, e), 0.0);
        assert_eq!(sweep_seconds(400, e), 4.0 * sweep_seconds(100, e));
        // ×4 per doubling of n, and the same work for the same size on
        // every call: nothing is timed.
        let n2 = |n: usize| sweep_seconds(n * n, e);
        assert!((n2(2047) / n2(1023) - 4.0).abs() < 0.01);
        assert_eq!(n2(127).to_bits(), (127.0 * 127.0 * e * FLOP_SECONDS).to_bits());
    }

    #[test]
    fn tiling_covers_regions_wider_than_one_tile() {
        // n > COL_TILE exercises the tile seam; compare against generic.
        let n = COL_TILE + 37;
        let s = Stencil::nine_point_box();
        let mut src = Grid2D::from_fn(3, n, 1, |r, c| ((r * 13 + c * 7) % 11) as f64);
        src.fill_halo(0.5);
        let f = Grid2D::from_fn(3, n, 0, |r, c| ((r + c) % 3) as f64);
        let region = Region::new(0, 3, 0, n);
        let mut fused = Grid2D::new(3, n, 1);
        let mut generic = Grid2D::new(3, n, 1);
        jacobi_sweep_region(&s, &src, &mut fused, &f, 0.01, &region, (0, 0));
        jacobi_sweep_region_generic(&s, &src, &mut generic, &f, 0.01, &region, (0, 0));
        assert_eq!(fused.max_abs_diff(&generic), 0.0);
    }

    #[test]
    fn region_sweep_updates_only_the_region() {
        let s = Stencil::five_point();
        let mut src = Grid2D::new(4, 4, 1);
        src.fill(1.0);
        src.fill_halo(1.0);
        let f = Grid2D::new(4, 4, 0);
        let mut dst = Grid2D::new(4, 4, 1);
        let region = Region::new(1, 3, 1, 3);
        jacobi_sweep_region(&s, &src, &mut dst, &f, 0.01, &region, (0, 0));
        assert_eq!(dst.get(1, 1), 1.0);
        assert_eq!(dst.get(0, 0), 0.0); // untouched
    }

    #[test]
    fn offset_maps_global_to_local() {
        // A 2×4 partition covering global rows 2..4 of a 4-row problem.
        let s = Stencil::five_point();
        let mut local_src = Grid2D::new(2, 4, 1);
        local_src.fill(2.0);
        local_src.fill_halo(2.0);
        let mut local_dst = Grid2D::new(2, 4, 1);
        let f = Grid2D::new(4, 4, 0); // global forcing
        let region = Region::new(2, 4, 0, 4);
        jacobi_sweep_region(&s, &local_src, &mut local_dst, &f, 0.01, &region, (2, 0));
        for r in 0..2 {
            for c in 0..4 {
                assert!((local_dst.get(r, c) - 2.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn offset_region_fused_matches_generic() {
        // The partitioned-executor shape: local grid = region, offset maps
        // global to local, forcing is global.
        for s in Stencil::catalog() {
            let halo = s.reach();
            let n = 9;
            let region = Region::new(3, 7, 0, n);
            let mut local_src = Grid2D::from_fn(region.rows(), region.cols(), halo, |r, c| {
                ((r * 5 + c) % 4) as f64
            });
            local_src.fill_halo(0.75);
            let f = Grid2D::from_fn(n, n, 0, |r, c| ((r * c) % 3) as f64);
            let offset = (region.r0, region.c0);
            let mut fused = Grid2D::new(region.rows(), region.cols(), halo);
            let mut generic = Grid2D::new(region.rows(), region.cols(), halo);
            jacobi_sweep_region(&s, &local_src, &mut fused, &f, 0.01, &region, offset);
            jacobi_sweep_region_generic(&s, &local_src, &mut generic, &f, 0.01, &region, offset);
            assert_eq!(fused.max_abs_diff(&generic), 0.0, "{}", s.name());
        }
    }

    #[test]
    fn blend_fusion_matches_the_three_pass_reference() {
        use parspeed_stencil::Tap;
        let mut stencils = Stencil::catalog().to_vec();
        // A non-catalogue stencil exercises the generic fallback path.
        stencils.push(Stencil::new("pair", vec![Tap::unit(0, -1), Tap::unit(0, 1)], 1.0, 2.0));
        for s in &stencils {
            for omega in [1.0, 0.8] {
                let n = 9;
                let halo = s.reach();
                let (src, f) = patterned(n, halo);
                let mut fused = Grid2D::new(n, n, halo);
                let d_fused = jacobi_sweep_blend(s, &src, &mut fused, &f, 0.004, omega, true);
                // Reference: the historical three separate passes.
                let mut reference = Grid2D::new(n, n, halo);
                jacobi_sweep(s, &src, &mut reference, &f, 0.004);
                if omega != 1.0 {
                    for r in 0..n {
                        let srow = src.interior_row(r).to_vec();
                        for (nv, &uv) in reference.interior_row_mut(r).iter_mut().zip(&srow) {
                            *nv = omega * *nv + (1.0 - omega) * uv;
                        }
                    }
                }
                assert_eq!(fused.max_abs_diff(&reference), 0.0, "{} ω={omega}", s.name());
                assert_eq!(d_fused, src.max_abs_diff(&reference), "{} ω={omega}", s.name());
                let mut par = Grid2D::new(n, n, halo);
                let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
                let d_par = pool
                    .install(|| jacobi_sweep_blend_par(s, &src, &mut par, &f, 0.004, omega, true));
                assert_eq!(par.max_abs_diff(&fused), 0.0, "{} ω={omega}", s.name());
                assert_eq!(d_par, d_fused, "{} ω={omega}", s.name());
            }
        }
    }

    #[test]
    fn blend_without_diff_reports_zero_but_updates() {
        let s = Stencil::five_point();
        let (src, f) = patterned(6, 1);
        let mut a = Grid2D::new(6, 6, 1);
        let mut b = Grid2D::new(6, 6, 1);
        let d = jacobi_sweep_blend(&s, &src, &mut a, &f, 0.004, 0.9, false);
        assert_eq!(d, 0.0);
        jacobi_sweep_blend(&s, &src, &mut b, &f, 0.004, 0.9, true);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn custom_stencil_falls_back_to_generic() {
        use parspeed_stencil::Tap;
        let s = Stencil::new("pair", vec![Tap::unit(0, -1), Tap::unit(0, 1)], 1.0, 2.0);
        assert!(s.kernel_kind().is_none());
        let (src, mut dst, f) = constant_setup(5, 2.0, 1);
        jacobi_sweep(&s, &src, &mut dst, &f, 0.01);
        assert!((dst.get(2, 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sor_sweep_fused_matches_tap_driven_iterates() {
        // Run the fused in-place sweep and an explicitly tap-driven copy of
        // the same recurrence; the iterates must agree bitwise.
        for s in Stencil::catalog() {
            let n = 7;
            let halo = s.reach();
            let (mut u_fused, f) = patterned(n, halo);
            let mut u_ref = u_fused.clone();
            let (h2, omega) = (0.01, 0.9);
            let rs_h2 = s.rhs_scale() * h2;
            let inv = 1.0 / s.divisor();
            for _ in 0..3 {
                let d = sor_sweep(&s, &mut u_fused, &f, h2, omega);
                let mut worst = 0.0f64;
                for r in 0..n {
                    for c in 0..n {
                        let (ri, ci) = (r as isize, c as isize);
                        let mut acc = 0.0;
                        for t in s.taps() {
                            acc += t.coeff
                                * u_ref.get_h(ri + t.offset.dy as isize, ci + t.offset.dx as isize);
                        }
                        let jacobi = (acc + rs_h2 * f.get(r, c)) * inv;
                        let old = u_ref.get(r, c);
                        let new = old + omega * (jacobi - old);
                        worst = worst.max((new - old).abs());
                        u_ref.set(r, c, new);
                    }
                }
                assert_eq!(u_fused.max_abs_diff(&u_ref), 0.0, "{}", s.name());
                assert_eq!(d, worst, "{}", s.name());
            }
        }
    }

    #[test]
    fn residual_zero_iff_discrete_solution() {
        // For the 5-point operator, u = x²−y² (harmonic) has zero discrete
        // residual *exactly* (the 5-point stencil is exact on quadratics).
        let n = 8;
        let h = 1.0 / (n as f64 + 1.0);
        let s = Stencil::five_point();
        let mut u = Grid2D::from_fn(n, n, 1, |r, c| {
            let (x, y) = ((c as f64 + 1.0) * h, (r as f64 + 1.0) * h);
            x * x - y * y
        });
        // Ghosts take the analytic extension.
        for r in -1..=(n as isize) {
            for c in -1..=(n as isize) {
                let interior = r >= 0 && r < n as isize && c >= 0 && c < n as isize;
                if !interior {
                    let (x, y) = ((c as f64 + 1.0) * h, (r as f64 + 1.0) * h);
                    u.set_h(r, c, x * x - y * y);
                }
            }
        }
        let f = Grid2D::new(n, n, 0);
        let res = residual_max(&s, &u, &f, h * h);
        assert!(res < 1e-10, "residual {res}");
    }

    #[test]
    fn residual_positive_for_wrong_solution() {
        let n = 6;
        let s = Stencil::five_point();
        let mut u = Grid2D::from_fn(n, n, 1, |r, c| (r * c) as f64);
        u.fill_halo(0.0);
        let f = Grid2D::new(n, n, 0);
        assert!(residual_max(&s, &u, &f, 0.01) > 1.0);
    }
}

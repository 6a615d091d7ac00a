//! The colour-split grid and the one red-black half-sweep kernel.
//!
//! A red-black half-sweep of the 5-point operator updates the cells of
//! one colour from the cells of the other. In the natural layout both
//! colours interleave along every row, so a half-sweep strides by 2. A
//! [`SplitGrid`] stores the colours apart instead: padded cell `(P, Q)`
//! of an `n×n` interior with its Dirichlet ring (`0 ≤ P, Q ≤ n+1`) lives
//! in plane `(P+Q) mod 2` (0 red, 1 black) at index `⌊Q/2⌋` of row `P`,
//! each plane `(n+2) × ⌈(n+2)/2⌉`. A colour-χ cell then finds its N and S
//! neighbours at its own index in rows `P±1` of the other plane, and its
//! W and E neighbours at two adjacent indices of row `P` of the other
//! plane, so [`half_sweep`] reads and writes every plane at unit stride
//! and updates plane χ in place.

use crate::apply::{relax_update, sweep_seconds};
use crate::PoissonProblem;
use parspeed_grid::Grid2D;
use rayon::prelude::*;

/// Independent partial maxima in [`laned_max`], so the running max is
/// not one serial dependency chain (as in the Jacobi row tail).
const LANES: usize = 8;

/// Cells from which a plane buffer counts as large: 1 MiB of `f64`.
const LARGE_CELLS: usize = 1 << 17;

/// Capacity reserved for a large plane buffer: just past 32 MiB, the
/// ceiling of glibc's adaptive mmap threshold (`DEFAULT_MMAP_THRESHOLD_MAX`
/// on 64-bit targets).
const LARGE_CAPACITY: usize = (32 << 20) / std::mem::size_of::<f64>() + 1;

/// A zeroed buffer of `len` cells for planes.
///
/// Planes live only as long as one solve. Under glibc, a large buffer
/// below [`LARGE_CAPACITY`] comes from the calling thread's malloc arena
/// once a freed mapping has raised the adaptive mmap threshold, and an
/// arena keeps freed cells resident: two server workers could each keep
/// a large solve's worth (`solve-large` `peak_rss_mib` in `perfbench/`).
/// So on glibc a buffer from 1 MiB up to the ceiling reserves capacity
/// just past it, which always gets a mapping of its own that goes back
/// to the OS when the buffer is dropped. Only the cells in use are ever
/// touched, so the rest of the reservation costs address space, not
/// memory, under the default overcommit heuristic. Under strict
/// overcommit (`vm.overcommit_memory = 2`) each reservation counts in
/// full against the commit limit: about 32 MiB per large buffer, five of
/// them for a multigrid solve at n = 1023. Other allocators, and
/// buffers at or past the ceiling, get exactly `len`.
pub(crate) fn plane_buffer(len: usize) -> Vec<f64> {
    if !cfg!(target_env = "gnu") || !(LARGE_CELLS..LARGE_CAPACITY).contains(&len) {
        return vec![0.0; len];
    }
    let mut buffer = Vec::with_capacity(LARGE_CAPACITY);
    buffer.resize(len, 0.0);
    buffer
}

/// Slots per plane row at interior side `n`: `⌈(n+2)/2⌉`.
pub(crate) fn plane_width(n: usize) -> usize {
    (n + 3) / 2
}

/// Slots per plane at interior side `n`: `(n+2)·⌈(n+2)/2⌉`.
pub(crate) fn plane_len(n: usize) -> usize {
    (n + 2) * plane_width(n)
}

/// A square grid with a one-cell ring, stored as a red and a black plane.
#[derive(Debug, Clone)]
pub(crate) struct SplitGrid {
    n: usize,
    width: usize,
    /// The red plane's `n+2` rows, then the black plane's.
    data: Vec<f64>,
}

impl SplitGrid {
    /// An all-zero grid of interior side `n`.
    pub(crate) fn new(n: usize) -> Self {
        Self { n, width: plane_width(n), data: plane_buffer(2 * plane_len(n)) }
    }

    /// The initial iterate of `problem` split: a zero interior and the
    /// problem's boundary data on the ring, as in
    /// [`PoissonProblem::initial_grid`].
    pub(crate) fn initial(problem: &PoissonProblem) -> Self {
        let n = problem.n();
        let mut s = Self::new(n);
        let edge = n as isize;
        for i in -1..=edge {
            for (r, c) in [(-1, i), (edge, i), (i, -1), (i, edge)] {
                let slot = s.slot((r + 1) as usize, (c + 1) as usize);
                s.data[slot] = problem.boundary_at(r, c);
            }
        }
        s
    }

    /// The split copy of square grid `g`, which has no halo, with a zero
    /// ring.
    pub(crate) fn from_interior(g: &Grid2D) -> Self {
        let n = g.rows();
        assert!(g.cols() == n && g.halo() == 0, "a square grid without halo");
        let mut s = Self::new(n);
        for p in 1..=n {
            let src = g.interior_row(p - 1);
            let (even, odd) = s.row_pair_mut(p);
            // Column 1 opens the row (odd slot 0), then pairs (2k, 2k+1).
            odd[0] = src[0];
            for (pair, (e, o)) in src[1..].chunks(2).zip(even[1..].iter_mut().zip(&mut odd[1..])) {
                *e = pair[0];
                if let Some(&v) = pair.get(1) {
                    *o = v;
                }
            }
        }
        s
    }

    /// The natural-layout copy with a halo of 1 holding the ring.
    #[cfg(test)]
    pub(crate) fn to_grid(&self) -> Grid2D {
        self.to_grid_in(Vec::new())
    }

    /// The natural-layout copy, with a halo of 1 holding the ring, written
    /// into `buffer`'s allocation whatever its length and contents: a
    /// solve hands over a scratch buffer it is done with rather than
    /// allocate and fault in pages for its result.
    pub(crate) fn to_grid_in(&self, mut buffer: Vec<f64>) -> Grid2D {
        let n = self.n;
        buffer.resize((n + 2) * (n + 2), 0.0);
        self.write_natural(&mut buffer);
        Grid2D::from_vec(n, n, 1, buffer)
    }

    /// Writes every padded cell, ring included, into `out` in natural
    /// row-major order (`(n+2)²` cells).
    pub(crate) fn write_natural(&self, out: &mut [f64]) {
        let side = self.n + 2;
        for (p, row) in out[..side * side].chunks_exact_mut(side).enumerate() {
            let (even, odd) = self.row_pair(p);
            for (pair, (&e, &o)) in row.chunks_mut(2).zip(even.iter().zip(odd)) {
                pair[0] = e;
                if let Some(v) = pair.get_mut(1) {
                    *v = o;
                }
            }
        }
    }

    /// Row `p`'s even-column cells (plane `p mod 2`) and odd-column cells
    /// (the other plane).
    fn row_pair(&self, p: usize) -> (&[f64], &[f64]) {
        let w = self.width;
        let row = |colour: usize| &self.plane(colour)[p * w..(p + 1) * w];
        (row(p % 2), row(1 - p % 2))
    }

    fn row_pair_mut(&mut self, p: usize) -> (&mut [f64], &mut [f64]) {
        let w = self.width;
        let (red, black) = self.planes_mut();
        let (red, black) = (&mut red[p * w..(p + 1) * w], &mut black[p * w..(p + 1) * w]);
        if p.is_multiple_of(2) {
            (red, black)
        } else {
            (black, red)
        }
    }

    /// The storage, for reuse once the grid is no longer needed.
    pub(crate) fn into_buffer(self) -> Vec<f64> {
        self.data
    }

    /// Interior side.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Slots per plane row: `⌈(n+2)/2⌉`.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    fn slot(&self, p: usize, q: usize) -> usize {
        ((p + q) & 1) * plane_len(self.n) + p * self.width + q / 2
    }

    /// Padded cell `(p, q)`.
    #[cfg(test)]
    pub(crate) fn get(&self, p: usize, q: usize) -> f64 {
        self.data[self.slot(p, q)]
    }

    /// Zeroes every cell, ring included.
    pub(crate) fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Plane `colour` (0 red, 1 black), row after row.
    pub(crate) fn plane(&self, colour: usize) -> &[f64] {
        let len = plane_len(self.n);
        &self.data[colour * len..(colour + 1) * len]
    }

    /// Both planes, red then black, writable.
    pub(crate) fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        self.data.split_at_mut(plane_len(self.n))
    }
}

/// Colour-χ cells of padded row `p` of an `n`-interior: the first slot
/// `k0` and the cell count. Cell `i` sits at padded column
/// `Q = 2(k0+i) + q0` with `q0 = 1 − k0`.
pub(crate) fn colour_cells(n: usize, p: usize, colour: usize) -> (usize, usize) {
    let q0 = (p + colour) & 1;
    let k0 = 1 - q0;
    (k0, (n - q0) / 2 + 1 - k0)
}

/// The 5-point reads of row `p`'s colour cells from the other plane
/// (`w` slots a row): N and S at the cells' own slots (from `k0`) of rows
/// `p∓1`, and row `p` from slot 0, where cell `i` finds W at `i` and E
/// at `i+1`.
pub(crate) fn cross(other: &[f64], w: usize, p: usize, k0: usize) -> [&[f64]; 3] {
    let row = |r: usize| &other[r * w..(r + 1) * w];
    [&row(p - 1)[k0..], &row(p + 1)[k0..], row(p)]
}

/// Runs `cell(x, &mut out[i], lane)` for every cell `i` of `out`, with
/// `x[k] = inputs[k][i]`; each call may fold a max-norm contribution into
/// `lane`, one of [`LANES`] partial maxima taken in turn. Returns their
/// max, which equals one running fold (a max over a set is
/// order-independent). Each input's chunk of [`LANES`] cells is copied
/// into an array after one bounds check, so a chunk's arithmetic
/// vectorizes; indexing the slices per cell, or borrowing the chunks
/// instead of copying them, ran the sequential red-black sweep 20–70 %
/// slower.
#[inline(always)]
pub(crate) fn laned_max<const K: usize>(
    out: &mut [f64],
    inputs: [&[f64]; K],
    mut cell: impl FnMut([f64; K], &mut f64, &mut f64),
) -> f64 {
    let len = out.len();
    let inputs = inputs.map(|s| &s[..len]);
    let mut lanes = [0.0f64; LANES];
    let body = len - len % LANES;
    let (head, tail) = out.split_at_mut(body);
    for (i, chunk) in (0..).step_by(LANES).zip(head.chunks_exact_mut(LANES)) {
        let x: [[f64; LANES]; K] =
            std::array::from_fn(|k| inputs[k][i..i + LANES].try_into().expect("a full chunk"));
        for l in 0..LANES {
            cell(std::array::from_fn(|k| x[k][l]), &mut chunk[l], &mut lanes[l]);
        }
    }
    for ((o, lane), i) in tail.iter_mut().zip(&mut lanes).zip(body..) {
        cell(inputs.map(|s| s[i]), o, lane);
    }
    lanes.into_iter().fold(0.0f64, f64::max)
}

/// How a half-sweep turns a cell's Jacobi value into its new value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Update {
    /// SOR relax-and-diff through `relax_update`: `u + ω·(jacobi − u)`,
    /// with `|new − old|` folded into the half-sweep's returned max.
    Relax(f64),
    /// Multigrid's plain Gauss-Seidel overwrite; the half-sweep returns 0.
    Plain,
}

/// The serial work, in seconds, of one colour half-sweep at interior
/// side `n`: half the cells, each the 5-point update (6 flops) plus, for
/// [`Update::Relax`], the relaxation and its diff.
pub(crate) fn half_sweep_work(n: usize, update: Update) -> f64 {
    let flops = match update {
        Update::Relax(_) => 10.0,
        Update::Plain => 6.0,
    };
    sweep_seconds(n * n / 2, flops)
}

/// One colour-χ half-sweep of `−∇²u = f` (spacing² `h2`) in place on
/// plane χ of `u`, reading the other plane and plane χ of `f`. Each cell
/// computes `(N + S + W + E + h²·f)·0.25` in that order, so the result is
/// bit-identical to the natural-layout sequential sweep. Row-parallel on
/// as many pool threads as its work pays for when `parallel`. Returns the
/// half-sweep's max-norm update difference (0 for [`Update::Plain`]).
pub(crate) fn half_sweep(
    u: &mut SplitGrid,
    f: &SplitGrid,
    h2: f64,
    colour: usize,
    update: Update,
    parallel: bool,
) -> f64 {
    let (n, w) = (u.n, u.width);
    let (red, black) = u.planes_mut();
    let (mine, other): (&mut [f64], &[f64]) = if colour == 0 { (red, black) } else { (black, red) };
    let fplane = f.plane(colour);
    let row = |p: usize, out: &mut [f64]| -> f64 {
        if p == 0 || p > n {
            return 0.0;
        }
        let (k0, len) = colour_cells(n, p, colour);
        let [up, down, mid] = cross(other, w, p, k0);
        colour_row(update, &mut out[k0..k0 + len], up, down, mid, &fplane[p * w + k0..], h2)
    };
    if parallel {
        mine.par_chunks_mut(w)
            .enumerate()
            .with_work(half_sweep_work(n, update))
            .map(|(p, out)| row(p, out))
            .reduce(|| 0.0f64, f64::max)
    } else {
        mine.chunks_mut(w).enumerate().map(|(p, out)| row(p, out)).fold(0.0f64, f64::max)
    }
}

/// One plane row of a half-sweep: `out[i]` from `up[i]`, `down[i]`,
/// `mid[i]` (W), `mid[i+1]` (E) and `frow[i]`.
#[inline]
fn colour_row(
    update: Update,
    out: &mut [f64],
    up: &[f64],
    down: &[f64],
    mid: &[f64],
    frow: &[f64],
    h2: f64,
) -> f64 {
    let inputs = [up, down, mid, &mid[1..], frow];
    let jacobi = |[n, s, w, e, f]: [f64; 5]| (n + s + w + e + h2 * f) * 0.25;
    match update {
        Update::Relax(omega) => {
            laned_max(out, inputs, |x, o, lane| *o = relax_update(*o, jacobi(x), omega, lane))
        }
        Update::Plain => laned_max(out, inputs, |x, o, _| *o = jacobi(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_round_trips_the_interior() {
        for n in [1usize, 2, 3, 6, 7] {
            let g = Grid2D::from_fn(n, n, 0, |r, c| (r * 10 + c + 1) as f64);
            let s = SplitGrid::from_interior(&g);
            assert_eq!(s.width(), (n + 3) / 2);
            let back = s.to_grid();
            for r in 0..n {
                assert_eq!(back.interior_row(r), g.interior_row(r), "n={n}");
            }
            // A zero ring: the padded cells sum to the interior's.
            let total: f64 = back.as_slice().iter().sum();
            assert_eq!(total, g.as_slice().iter().sum::<f64>(), "n={n}");
            // Padded (P, Q) sits in plane (P+Q) mod 2 at index ⌊Q/2⌋.
            let w = s.width();
            assert_eq!(s.plane(0)[w], g.get(0, 0)); // (1, 1): red, slot 0
            if n > 1 {
                assert_eq!(s.plane(1)[w + 1], g.get(0, 1)); // (1, 2): black, slot 1
            }
        }
    }

    #[test]
    fn initial_matches_the_problem_initial_grid() {
        use crate::Manufactured;
        for n in [1usize, 2, 5, 8] {
            for p in [
                PoissonProblem::manufactured(n, Manufactured::Saddle),
                PoissonProblem::laplace(n, 2.5),
            ] {
                let s = SplitGrid::initial(&p);
                assert_eq!(s.to_grid().as_slice(), p.initial_grid(1).as_slice(), "n={n}");
            }
        }
    }

    #[test]
    fn large_plane_buffers_reserve_past_the_mmap_ceiling() {
        let small = plane_buffer(LARGE_CELLS - 1);
        assert_eq!(small.len(), LARGE_CELLS - 1);
        assert!(small.capacity() < LARGE_CAPACITY);
        let large = plane_buffer(2 * plane_len(1023));
        assert_eq!(large.len(), 2 * plane_len(1023));
        if cfg!(target_env = "gnu") {
            assert!(large.capacity() * std::mem::size_of::<f64>() > 32 << 20);
        }
        // Past the ceiling a buffer maps on its own: nothing reserved.
        let huge = plane_buffer(LARGE_CAPACITY + 1);
        assert_eq!(huge.len(), LARGE_CAPACITY + 1);
        assert!(huge.capacity() < 2 * LARGE_CAPACITY);
        assert!(small.iter().chain(&large).chain(&huge).all(|&v| v == 0.0));
    }

    #[test]
    fn a_grid_without_halo_gets_a_zero_ring() {
        let f = Grid2D::from_fn(3, 3, 0, |_, _| 2.0);
        let s = SplitGrid::from_interior(&f);
        assert_eq!(s.get(0, 2), 0.0);
        assert_eq!(s.get(2, 4), 0.0);
        assert_eq!(s.get(2, 2), 2.0);
    }

    #[test]
    fn colour_cells_cover_each_row_once() {
        for n in 1..9usize {
            for p in 1..=n {
                let mut seen = vec![0u8; n + 2];
                for colour in 0..2 {
                    let (k0, len) = colour_cells(n, p, colour);
                    for k in k0..k0 + len {
                        let q = 2 * k + (1 - k0);
                        assert_eq!((p + q) & 1, colour);
                        seen[q] += 1;
                    }
                }
                assert_eq!(seen[0], 0);
                assert_eq!(seen[n + 1], 0);
                assert!(seen[1..=n].iter().all(|&s| s == 1), "n={n} p={p}: {seen:?}");
            }
        }
    }
}

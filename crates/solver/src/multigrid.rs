//! Geometric multigrid for the 5-point Poisson problem.
//!
//! The paper's related work (§2) cites Kamowitz's "SOR and MGR[v]
//! experiments on the Crystal multicomputer" — multigrid was already the
//! serious competitor to the point-iterative methods the model prices.
//! This V-cycle (red-black Gauss-Seidel smoothing, full-weighting
//! restriction, bilinear prolongation) completes the solver substrate: it
//! converges in O(1) cycles independent of `n`, which is why the paper's
//! per-iteration cycle-time model, not iteration counts, is the right
//! place to study architecture.
//!
//! Grids use interior sides `n = 2^k − 1` so coarsening halves cleanly
//! (`n_c = (n−1)/2`). The fine level carries arbitrary Dirichlet data in
//! its ring; coarse levels solve homogeneous-boundary *error* equations,
//! so any problem the other solvers accept works here too.
//!
//! A solve allocates every level's `u` and `f` once, colour-split
//! (`split`), plus one scratch buffer the size of the fine level's planes:
//! each level's residual on the way down, its coarse correction in
//! natural order on the way up, and at the end the solution the solve
//! returns. Nothing is allocated inside the V-cycle. The smoother is the
//! red-black solver's half-sweep kernel; the residual (fused with its
//! max-norm), full-weighting restriction and bilinear prolongation are
//! row-slice kernels over the planes. Each kernel declares its own
//! level's work (`level_work`; the smoother's is
//! `split::half_sweep_work`), so the pool runs the fine levels on every
//! thread they pay for and the coarse ones inline: the paper's optimal
//! `P` for each level's own `n`. Every kernel keeps the arithmetic order
//! of the natural-layout sequential V-cycle, so the iterates are
//! bit-identical to it on any thread count.

use crate::apply::{fold_max, sweep_seconds};
use crate::split::{
    colour_cells, cross, half_sweep, laned_max, plane_buffer, plane_len, plane_width, SplitGrid,
    Update,
};
use crate::{run_schedule, CheckPolicy, PoissonProblem, SolveStatus};
use parspeed_grid::Grid2D;
use rayon::prelude::*;

/// Geometric multigrid V-cycle solver (5-point stencil).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultigridSolver {
    /// Convergence tolerance on the residual max-norm.
    pub tol: f64,
    /// Maximum V-cycles.
    pub max_cycles: usize,
    /// Pre-smoothing red-black sweeps per level.
    pub pre_smooth: usize,
    /// Post-smoothing red-black sweeps per level.
    pub post_smooth: usize,
    /// Gauss-Seidel sweeps on the coarsest (n ≤ 3) level.
    pub coarse_sweeps: usize,
}

impl Default for MultigridSolver {
    fn default() -> Self {
        Self { tol: 1e-9, max_cycles: 50, pre_smooth: 2, post_smooth: 2, coarse_sweeps: 32 }
    }
}

/// True iff `n` is a valid multigrid interior side (`2^k − 1`, `k ≥ 1`).
pub fn valid_side(n: usize) -> bool {
    n >= 1 && (n + 1).is_power_of_two()
}

/// Flops per fine point of the residual `f − (4u − Σnb)/h²` and its max.
const RESIDUAL_FLOPS: f64 = 9.0;
/// Flops per coarse point of the 9-point full weighting.
const RESTRICT_FLOPS: f64 = 11.0;
/// Flops per fine point of the bilinear correction (at most 4 adds, a
/// scale and the add into `u`).
const PROLONG_FLOPS: f64 = 3.0;

/// The serial work, in seconds, each of a level's grid-transfer kernels
/// declares at interior side `n`: the residual, the restriction into the
/// next coarser level, and the prolongation from it. (The smoother's is
/// `split::half_sweep_work`.)
pub(crate) fn level_work(n: usize) -> [f64; 3] {
    let nc = n.saturating_sub(1) / 2;
    [
        sweep_seconds(n * n, RESIDUAL_FLOPS),
        sweep_seconds(nc * nc, RESTRICT_FLOPS),
        sweep_seconds(n * n, PROLONG_FLOPS),
    ]
}

/// One level of the hierarchy, allocated once per solve.
struct Level {
    h2: f64,
    u: SplitGrid,
    f: SplitGrid,
}

/// One red-black Gauss-Seidel sweep (both colours) of a level.
fn smooth(level: &mut Level) {
    for colour in 0..2 {
        half_sweep(&mut level.u, &level.f, level.h2, colour, Update::Plain, true);
    }
}

/// Residual `r = f − A·u` with `A = (4u − Σnb)/h²` (ring included in `u`)
/// into the interior cells of `out`, laid out as `u`'s two planes (its
/// ring slots are left as they were); returns `max |r|`.
fn residual(u: &SplitGrid, f: &SplitGrid, h2: f64, out: &mut [f64]) -> f64 {
    let (n, w) = (u.n(), u.width());
    let (out_red, out_black) = out[..2 * plane_len(n)].split_at_mut(plane_len(n));
    out_red
        .par_chunks_mut(w)
        .zip(out_black.par_chunks_mut(w))
        .enumerate()
        .with_work(level_work(n)[0])
        .map(|(p, (red_row, black_row))| {
            if p == 0 || p > n {
                return 0.0;
            }
            let mut worst = 0.0f64;
            for (colour, out) in [red_row, black_row].into_iter().enumerate() {
                let (k0, len) = colour_cells(n, p, colour);
                let [up, down, mid] = cross(u.plane(1 - colour), w, p, k0);
                let centre = &u.plane(colour)[p * w + k0..];
                let frow = &f.plane(colour)[p * w + k0..];
                let inputs = [up, down, mid, &mid[1..], centre, frow];
                let out = &mut out[k0..k0 + len];
                let row_max = laned_max(out, inputs, |[n, s, w, e, c, f], o, lane| {
                    *o = f - (4.0 * c - (n + s + w + e)) / h2;
                    fold_max(lane, o.abs());
                });
                worst = worst.max(row_max);
            }
            worst
        })
        .reduce(|| 0.0f64, f64::max)
}

/// Full-weighting restriction of the fine residual (`nf`, laid out as by
/// [`residual`]) into the interior of `coarse` (`(nf−1)/2`).
fn restrict(fine: &[f64], nf: usize, coarse: &mut SplitGrid) {
    let (nc, wc) = (coarse.n(), coarse.width());
    let wf = plane_width(nf);
    let (fine_red, fine_black) = fine[..2 * plane_len(nf)].split_at(plane_len(nf));
    let (red, black) = coarse.planes_mut();
    red.par_chunks_mut(wc)
        .zip(black.par_chunks_mut(wc))
        .enumerate()
        .with_work(level_work(nf)[1])
        .for_each(|(pc, (red_row, black_row))| {
            if pc == 0 || pc > nc {
                return;
            }
            // Coarse padded (pc, qc) sits at fine padded (2pc, 2qc), a red
            // cell: its N, S, W, E are black, its corners red.
            let p = 2 * pc;
            let rows =
                |r: usize| (&fine_red[r * wf..(r + 1) * wf], &fine_black[r * wf..(r + 1) * wf]);
            let ((r_up, b_up), (r_mid, b_mid), (r_down, b_down)) =
                (rows(p - 1), rows(p), rows(p + 1));
            for (colour, out) in [red_row, black_row].into_iter().enumerate() {
                let (k0, len) = colour_cells(nc, pc, colour);
                for (o, k) in out[k0..k0 + len].iter_mut().zip(k0..) {
                    // Fine padded column 2qc = 2(2k + 1 − k0): slot j, whose
                    // W neighbour is black slot j − 1.
                    let j = 2 * k + 1 - k0;
                    *o = 0.25 * r_mid[j]
                        + 0.125 * (b_up[j] + b_down[j] + b_mid[j - 1] + b_mid[j])
                        + 0.0625 * (r_up[j - 1] + r_up[j] + r_down[j - 1] + r_down[j]);
                }
            }
        });
}

/// Bilinear prolongation of the coarse correction (zero ring: the
/// homogeneous boundary of the error equation), added into `fine`;
/// `scratch` holds the coarse grid in natural order while it runs.
fn prolong_add(coarse: &SplitGrid, fine: &mut SplitGrid, scratch: &mut [f64]) {
    let (nf, wf) = (fine.n(), fine.width());
    let side = coarse.n() + 2;
    coarse.write_natural(scratch);
    let coarse_row = |a: usize| &scratch[a * side..(a + 1) * side];
    let (red, black) = fine.planes_mut();
    red.par_chunks_mut(wf)
        .zip(black.par_chunks_mut(wf))
        .enumerate()
        .with_work(level_work(nf)[2])
        .for_each(|(p, (red_row, black_row))| {
            if p == 0 || p > nf {
                return;
            }
            // Fine padded (p, q) lies on coarse row p/2 when p is even and
            // between rows p/2 and p/2 + 1 when odd; likewise for columns.
            let (c0, c1) = (coarse_row(p / 2), coarse_row(p / 2 + 1));
            for (colour, out) in [red_row, black_row].into_iter().enumerate() {
                let (k0, len) = colour_cells(nf, p, colour);
                let out = &mut out[k0..k0 + len];
                // Cell i has q = 2k + 1 − k0 with k = k0 + i: coarse column
                // k when q is even (k0 = 1), columns k and k + 1 when odd.
                let (w0, e0) = (&c0[k0..k0 + len], &c0[k0 + 1..k0 + 1 + len]);
                let (w1, e1) = (&c1[k0..k0 + len], &c1[k0 + 1..k0 + 1 + len]);
                match (p % 2 == 0, k0 == 1) {
                    (true, true) => {
                        for (i, o) in out.iter_mut().enumerate() {
                            *o += w0[i];
                        }
                    }
                    (true, false) => {
                        for (i, o) in out.iter_mut().enumerate() {
                            *o += 0.5 * (w0[i] + e0[i]);
                        }
                    }
                    (false, true) => {
                        for (i, o) in out.iter_mut().enumerate() {
                            *o += 0.5 * (w0[i] + w1[i]);
                        }
                    }
                    (false, false) => {
                        for (i, o) in out.iter_mut().enumerate() {
                            *o += 0.25 * (w0[i] + e0[i] + w1[i] + e1[i]);
                        }
                    }
                }
            }
        });
}

/// One V-cycle from `levels[0]` down. `scratch` holds each level's
/// residual on the way down and its coarse correction on the way up.
fn vcycle(levels: &mut [Level], scratch: &mut [f64], cfg: &MultigridSolver) {
    let (level, coarser) = levels.split_first_mut().expect("a V-cycle needs a level");
    let Some(next) = coarser.first_mut() else {
        for _ in 0..cfg.coarse_sweeps {
            smooth(level);
        }
        return;
    };
    for _ in 0..cfg.pre_smooth {
        smooth(level);
    }
    residual(&level.u, &level.f, level.h2, scratch);
    restrict(scratch, level.u.n(), &mut next.f);
    next.u.clear(); // zero initial error, zero ring
    vcycle(coarser, scratch, cfg);
    prolong_add(&coarser[0].u, &mut level.u, scratch);
    for _ in 0..cfg.post_smooth {
        smooth(level);
    }
}

impl MultigridSolver {
    /// Solves `problem` by repeated V-cycles; the problem's interior side
    /// must satisfy [`valid_side`]. One [`run_schedule`] step is one
    /// V-cycle and its relative residual, checked every cycle.
    pub fn solve(&self, problem: &PoissonProblem) -> (Grid2D, SolveStatus) {
        let n = problem.n();
        assert!(valid_side(n), "multigrid needs n = 2^k − 1, got {n}");
        let mut h = problem.h();
        let mut levels = vec![Level {
            h2: h * h,
            u: SplitGrid::initial(problem),
            f: SplitGrid::from_interior(problem.forcing()),
        }];
        let mut side = n;
        while side > 3 {
            side = (side - 1) / 2;
            h *= 2.0;
            levels.push(Level { h2: h * h, u: SplitGrid::new(side), f: SplitGrid::new(side) });
        }
        // One residual the size of the fine level's planes, which also
        // has room for the padded result the solve returns in it.
        let mut res = plane_buffer(2 * plane_len(n));
        if self.max_cycles == 0 {
            // No cycle ran: the residual is still the initial one.
            let status = SolveStatus { converged: false, iterations: 0, final_diff: 1.0 };
            return (levels[0].u.to_grid_in(res), status);
        }
        let fine_residual = |levels: &[Level], res: &mut [f64]| {
            let fine = &levels[0];
            residual(&fine.u, &fine.f, fine.h2, res)
        };
        let norm0 = fine_residual(&levels, &mut res).max(f64::MIN_POSITIVE);
        let mut cycle = |_: usize, _: bool| {
            vcycle(&mut levels, &mut res, self);
            fine_residual(&levels, &mut res) / norm0
        };
        let mut every = CheckPolicy::Every(1);
        let (run, _) = run_schedule(&mut cycle, &mut every, self.tol, self.max_cycles, 1, None);
        (levels[0].u.to_grid_in(res), run.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::half_sweep_work;
    use crate::{JacobiSolver, Manufactured};
    use parspeed_stencil::Stencil;

    #[test]
    fn valid_sides() {
        for n in [1usize, 3, 7, 15, 31, 63, 127] {
            assert!(valid_side(n), "{n}");
        }
        for n in [0usize, 2, 4, 8, 16, 100] {
            assert!(!valid_side(n), "{n}");
        }
    }

    #[test]
    fn converges_in_a_handful_of_cycles() {
        let p = PoissonProblem::manufactured(31, Manufactured::SinSin);
        let (u, status) = MultigridSolver::default().solve(&p);
        assert!(status.converged);
        assert!(status.iterations <= 12, "{} cycles", status.iterations);
        let err = u.max_abs_diff(&p.exact_solution().unwrap());
        assert!(err < 5e-3, "error {err}");
    }

    #[test]
    fn cycle_count_is_h_independent() {
        // The multigrid signature: cycles do not grow with n.
        let cycles = |n: usize| {
            let p = PoissonProblem::manufactured(n, Manufactured::Bubble);
            let (_, s) = MultigridSolver::default().solve(&p);
            assert!(s.converged, "n={n}");
            s.iterations
        };
        let c15 = cycles(15);
        let c63 = cycles(63);
        assert!(c63 <= c15 + 2, "cycles grew: {c15} → {c63}");
    }

    #[test]
    fn orders_of_magnitude_fewer_iterations_than_jacobi() {
        let p = PoissonProblem::manufactured(31, Manufactured::SinSin);
        let (_, mg) = MultigridSolver::default().solve(&p);
        let (_, jac) = JacobiSolver::with_tol(1e-9).solve(&p, &Stencil::five_point());
        assert!(
            jac.iterations > 100 * mg.iterations,
            "MG {} vs Jacobi {}",
            mg.iterations,
            jac.iterations
        );
    }

    #[test]
    fn agrees_with_jacobi_solution() {
        let p = PoissonProblem::manufactured(15, Manufactured::Bubble);
        let (u_mg, _) = MultigridSolver { tol: 1e-12, ..Default::default() }.solve(&p);
        let (u_j, _) = JacobiSolver::with_tol(1e-12).solve(&p, &Stencil::five_point());
        assert!(u_mg.max_abs_diff(&u_j) < 1e-8);
    }

    #[test]
    fn handles_nonzero_boundary() {
        // Saddle: harmonic with non-trivial Dirichlet data; the V-cycle
        // must reproduce it (coarse levels see only the error equation).
        let p = PoissonProblem::manufactured(31, Manufactured::Saddle);
        let (u, status) = MultigridSolver::default().solve(&p);
        assert!(status.converged);
        let err = u.max_abs_diff(&p.exact_solution().unwrap());
        assert!(err < 1e-4, "error {err} (5-point is exact on quadratics)");
    }

    #[test]
    fn restriction_preserves_constants() {
        let fine = vec![2.0; 2 * plane_len(7)];
        let mut split = SplitGrid::new(3);
        restrict(&fine, 7, &mut split);
        let coarse = split.to_grid();
        // Interior coarse points see the full 9-point weighting: exactly 2.
        assert!((coarse.get(1, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prolongation_interpolates_bilinearly() {
        let coarse = SplitGrid::from_interior(&Grid2D::from_fn(3, 3, 0, |r, c| (r + c) as f64));
        let mut split = SplitGrid::new(7);
        prolong_add(&coarse, &mut split, &mut [0.0; 5 * 5]);
        let fine = split.to_grid();
        // Fine point (3,3) coincides with coarse (1,1) = 2.
        assert!((fine.get(3, 3) - 2.0).abs() < 1e-12);
        // Fine point (3,4) sits between coarse (1,1)=2 and (1,2)=3 → 2.5.
        assert!((fine.get(3, 4) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn each_level_declares_its_own_work() {
        // Every kernel's work follows its level's points: a quarter per
        // coarsening, so each level lands in its own size class of the
        // pool and gets the thread count timed fastest for its own n.
        let kernels =
            |n: usize| level_work(n).into_iter().chain([half_sweep_work(n, Update::Plain)]);
        for (fine, coarse) in kernels(1023).zip(kernels(511)) {
            assert!((fine / coarse - 4.0).abs() < 0.02, "{fine} s against {coarse} s");
        }
    }

    #[test]
    #[should_panic(expected = "2^k − 1")]
    fn rejects_bad_sides() {
        let p = PoissonProblem::laplace(10, 0.0);
        let _ = MultigridSolver::default().solve(&p);
    }
}

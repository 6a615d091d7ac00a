//! Red-black Gauss-Seidel/SOR: the parallelizable ordering.
//!
//! Colouring the grid like a checkerboard makes every same-colour update
//! independent: a red update reads only black cells (the 5-point cross
//! always lands on the opposite colour), so each half-sweep parallelizes
//! perfectly — the classic answer to lexicographic SOR's sequential data
//! dependence, and the ordering a machine from the paper would actually
//! run.
//!
//! A solve splits `u` and `f` into colour planes once (`split`), runs
//! every half-sweep in place on one plane at unit stride — row-parallel
//! on as many pool threads as its work pays for — and writes `u` back
//! once. That is one pass and one fan-out per half-sweep. Because
//! colour-χ updates never read colour-χ cells, the result is
//! bit-identical to the in-place sequential red-black sweep.

use crate::split::{half_sweep, SplitGrid, Update};
use crate::{PoissonProblem, SolveStatus};
use parspeed_grid::Grid2D;

/// Red-black SOR solver (5-point stencil: the colouring argument requires
/// the cross stencil, whose taps all touch the opposite colour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedBlackSolver {
    /// Convergence tolerance on the max-norm update difference.
    pub tol: f64,
    /// Iteration cap (full red+black sweeps).
    pub max_iters: usize,
    /// Relaxation factor in `(0, 2)`.
    pub omega: f64,
    /// Run the colour half-sweeps with rayon.
    pub parallel: bool,
}

impl RedBlackSolver {
    /// Red-black Gauss-Seidel.
    pub fn gauss_seidel(tol: f64) -> Self {
        Self { tol, max_iters: 200_000, omega: 1.0, parallel: true }
    }

    /// Red-black SOR with the optimal 5-point factor
    /// `ω* = 2/(1 + sin(π·h))`.
    pub fn optimal(n: usize, tol: f64) -> Self {
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        Self { tol, max_iters: 200_000, omega: 2.0 / (1.0 + h.sin()), parallel: true }
    }

    /// Sequential variant (for equivalence tests).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Solves `problem` (5-point stencil).
    pub fn solve(&self, problem: &PoissonProblem) -> (Grid2D, SolveStatus) {
        assert!(self.omega > 0.0 && self.omega < 2.0, "SOR needs 0 < ω < 2");
        let h2 = problem.h() * problem.h();
        let mut u = SplitGrid::initial(problem);
        let f = SplitGrid::from_interior(problem.forcing());
        let update = Update::Relax(self.omega);

        let mut iterations = 0;
        let mut diff = f64::INFINITY;
        let mut converged = false;
        while iterations < self.max_iters {
            let d_red = half_sweep(&mut u, &f, h2, 0, update, self.parallel);
            let d_black = half_sweep(&mut u, &f, h2, 1, update, self.parallel);
            iterations += 1;
            diff = d_red.max(d_black);
            if diff < self.tol {
                converged = true;
                break;
            }
        }
        (u.to_grid_in(f.into_buffer()), SolveStatus { converged, iterations, final_diff: diff })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JacobiSolver, Manufactured, SorSolver};
    use parspeed_stencil::Stencil;

    #[test]
    fn parallel_and_sequential_are_bit_identical() {
        let n = 20;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let par = RedBlackSolver::gauss_seidel(1e-9);
        let seq = RedBlackSolver::gauss_seidel(1e-9).sequential();
        let (us, ss) = seq.solve(&p);
        // Self-sized (inline at this n) and on pinned pools of 2 and 3.
        for threads in [0, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (up, sp) = pool.install(|| par.solve(&p));
            assert_eq!(sp.iterations, ss.iterations, "{threads} threads");
            assert_eq!(up.max_abs_diff(&us), 0.0, "parallel differs from sequential");
        }
    }

    #[test]
    fn converges_to_the_analytic_solution() {
        let n = 20;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (u, status) = RedBlackSolver::optimal(n, 1e-10).solve(&p);
        assert!(status.converged);
        let err = u.max_abs_diff(&p.exact_solution().unwrap());
        assert!(err < 5e-3, "error {err}");
    }

    #[test]
    fn red_black_gs_converges_like_lexicographic_gs() {
        let n = 16;
        let p = PoissonProblem::manufactured(n, Manufactured::Bubble);
        let (_, rb) = RedBlackSolver::gauss_seidel(1e-8).solve(&p);
        let (_, gs) = SorSolver::gauss_seidel(1e-8).solve(&p, &Stencil::five_point());
        assert!(rb.converged && gs.converged);
        let ratio = rb.iterations as f64 / gs.iterations as f64;
        assert!(ratio > 0.6 && ratio < 1.7, "ratio {ratio}");
    }

    #[test]
    fn beats_jacobi_and_optimal_sor_beats_gs() {
        let n = 20;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (_, jac) = JacobiSolver::with_tol(1e-8).solve(&p, &Stencil::five_point());
        let (_, rb_gs) = RedBlackSolver::gauss_seidel(1e-8).solve(&p);
        let (_, rb_sor) = RedBlackSolver::optimal(n, 1e-8).solve(&p);
        assert!(rb_gs.iterations < jac.iterations);
        assert!(rb_sor.iterations * 3 < rb_gs.iterations);
    }

    #[test]
    fn laplace_flattens_to_boundary_constant() {
        let p = PoissonProblem::laplace(12, -1.5);
        let (u, status) = RedBlackSolver::gauss_seidel(1e-11).solve(&p);
        assert!(status.converged);
        for r in 0..12 {
            for c in 0..12 {
                assert!((u.get(r, c) + 1.5).abs() < 1e-8);
            }
        }
    }
}

//! Gauss-Seidel and successive over-relaxation (lexicographic ordering).

use crate::apply::sor_sweep;
use crate::{run_schedule, CheckPolicy, PoissonProblem, SolveStatus};
use parspeed_grid::Grid2D;
use parspeed_stencil::Stencil;

/// SOR solver (`omega = 1` is Gauss-Seidel) with scheduled convergence
/// checks. Sequential by construction — the lexicographic ordering the
/// paper contrasts with the parallelizable Jacobi and red-black sweeps.
/// Each sweep runs through [`sor_sweep`], which dispatches the catalogue
/// stencils to fused row-slice kernels (bit-identical to the tap-driven
/// loop) and folds the max-norm update difference into the relaxation
/// itself — there is no separate diff pass to schedule away; the
/// [`CheckPolicy`] governs only how often the fold is *consulted*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SorSolver {
    /// Convergence tolerance on the max-norm update difference.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Relaxation factor in `(0, 2)`.
    pub omega: f64,
    /// When to check convergence.
    pub check: CheckPolicy,
}

impl SorSolver {
    /// Gauss-Seidel (`ω = 1`).
    pub fn gauss_seidel(tol: f64) -> Self {
        Self { tol, max_iters: 200_000, omega: 1.0, check: CheckPolicy::Every(1) }
    }

    /// SOR with the asymptotically optimal factor for the 5-point Laplacian
    /// on an `n×n` grid: `ω* = 2 / (1 + sin(π·h))`, `h = 1/(n+1)`.
    pub fn optimal(n: usize, tol: f64) -> Self {
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        Self { tol, max_iters: 200_000, omega: 2.0 / (1.0 + h.sin()), check: CheckPolicy::Every(1) }
    }

    /// Solves `problem` with `stencil` by in-place relaxation sweeps; one
    /// [`run_schedule`] step is one sweep.
    pub fn solve(&self, problem: &PoissonProblem, stencil: &Stencil) -> (Grid2D, SolveStatus) {
        assert!(self.omega > 0.0 && self.omega < 2.0, "SOR needs 0 < ω < 2");
        let h2 = problem.h() * problem.h();
        let mut u = problem.initial_grid(stencil.reach());
        let f = problem.forcing();
        let mut sweep = |_: usize, _: bool| sor_sweep(stencil, &mut u, f, h2, self.omega);
        let mut check = self.check;
        let (run, _) = run_schedule(&mut sweep, &mut check, self.tol, self.max_iters, 1, None);
        (u, run.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JacobiSolver, Manufactured};

    #[test]
    fn gauss_seidel_converges_about_twice_as_fast_as_jacobi() {
        let n = 16;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (_, gs) = SorSolver::gauss_seidel(1e-8).solve(&p, &Stencil::five_point());
        let (_, jac) = JacobiSolver::with_tol(1e-8).solve(&p, &Stencil::five_point());
        assert!(gs.converged && jac.converged);
        let ratio = jac.iterations as f64 / gs.iterations as f64;
        assert!(ratio > 1.6 && ratio < 2.6, "ratio {ratio}");
    }

    #[test]
    fn optimal_sor_is_dramatically_faster() {
        let n = 24;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (_, sor) = SorSolver::optimal(n, 1e-8).solve(&p, &Stencil::five_point());
        let (_, gs) = SorSolver::gauss_seidel(1e-8).solve(&p, &Stencil::five_point());
        assert!(sor.converged && gs.converged);
        assert!(
            sor.iterations * 4 < gs.iterations,
            "SOR {} vs GS {}",
            sor.iterations,
            gs.iterations
        );
    }

    #[test]
    fn sor_reaches_the_same_solution_as_jacobi() {
        let n = 12;
        let p = PoissonProblem::manufactured(n, Manufactured::Bubble);
        let (u_sor, _) = SorSolver::optimal(n, 1e-11).solve(&p, &Stencil::five_point());
        let (u_jac, _) = JacobiSolver::with_tol(1e-11).solve(&p, &Stencil::five_point());
        assert!(u_sor.max_abs_diff(&u_jac) < 1e-7);
    }

    #[test]
    fn works_with_the_nine_point_box() {
        let n = 12;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (u, s) = SorSolver::gauss_seidel(1e-9).solve(&p, &Stencil::nine_point_box());
        assert!(s.converged);
        let err = u.max_abs_diff(&p.exact_solution().unwrap());
        // Plain Mehrstellen without the h²∇²f/12 rhs correction is second
        // order with a larger constant than the 5-point cross.
        assert!(err < 2e-2, "error {err}");
    }

    #[test]
    fn sparse_check_policies_stop_at_the_first_scheduled_diff_below_tol() {
        // The wire's `check_policy` reaches this solver; under a sparse
        // schedule the solve must stop at the first *scheduled* iteration
        // whose sweep diff is below `tol`, holding exactly the iterate and
        // diff a plain loop of `sor_sweep` calls has there.
        let (n, tol) = (12, 1e-9);
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let h2 = p.h() * p.h();
        let policies = [
            CheckPolicy::Every(4),
            CheckPolicy::Every(9),
            CheckPolicy::geometric(),
            CheckPolicy::Geometric { start: 2, factor: 2.0, max_interval: 8 },
        ];
        for s in [Stencil::five_point(), Stencil::nine_point_box()] {
            for check in policies {
                let solver = SorSolver { check, max_iters: 5_000, ..SorSolver::optimal(n, tol) };
                let (u, status) = solver.solve(&p, &s);
                let label = format!("{} {check:?}", s.name());
                assert!(status.converged, "{label}");

                let mut reference = p.initial_grid(s.reach());
                let (mut done, mut stop) = (0, None);
                for k in check.schedule(solver.max_iters) {
                    let mut diff = f64::INFINITY;
                    while done < k {
                        diff = sor_sweep(&s, &mut reference, p.forcing(), h2, solver.omega);
                        done += 1;
                    }
                    if diff < tol {
                        stop = Some((k, diff));
                        break;
                    }
                }
                let (k, diff) = stop.expect("the reference loop converges");
                assert!(k > check.first_check(), "{label}: no check before the stop");
                assert_eq!(status.iterations, k, "{label}");
                assert_eq!(status.final_diff.to_bits(), diff.to_bits(), "{label}");
                for r in 0..n {
                    for c in 0..n {
                        assert_eq!(u.get(r, c).to_bits(), reference.get(r, c).to_bits(), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "0 < ω < 2")]
    fn rejects_divergent_omega() {
        let p = PoissonProblem::laplace(4, 0.0);
        let bad = SorSolver { omega: 2.5, ..SorSolver::gauss_seidel(1e-6) };
        let _ = bad.solve(&p, &Stencil::five_point());
    }
}

//! Conjugate gradients on the 5-point operator.
//!
//! CG is the algorithm behind the paper's §5 counter-example: each
//! iteration needs two *global* inner products, and on the Finite Element
//! Machine every processor had to exchange its partial sum with every
//! other — the communication pattern that breaks the extremal-allocation
//! result. [`CgStats`] therefore counts the global reductions alongside
//! the numerics, so `parspeed-core::fem` can price them.

use crate::{run_schedule, CheckPolicy, PoissonProblem, SolveStatus};
use parspeed_grid::Grid2D;

/// Conjugate-gradient solver for `-∇²u = f` (5-point discretization,
/// zero Dirichlet boundary folded into the right-hand side).
///
/// One [`run_schedule`] step is one CG iteration, checked every
/// iteration against the relative residual `‖r‖₂/‖b‖₂`. CG declines
/// checkpoint snapshots: its state is the iterate `x`, the residual `r`,
/// the search direction `p` and `ρ = r·r`, and a restart from `x` alone
/// rebuilds `r` as `b − A·x` and restarts `p` at `r`, which is not
/// bit-identical to the uninterrupted run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgSolver {
    /// Relative residual tolerance `‖r‖₂ / ‖b‖₂`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

/// Counters the §5 communication model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CgStats {
    /// CG iterations run.
    pub iterations: usize,
    /// Global inner products performed (2 per iteration + setup).
    pub global_reductions: usize,
}

impl Default for CgSolver {
    fn default() -> Self {
        Self { tol: 1e-10, max_iters: 10_000 }
    }
}

/// `y = A·x` for the scaled 5-point operator `(4x − Σnb)/h²` with zero
/// ghost values (boundary contributions live in `b`).
fn apply_a(x: &[f64], y: &mut [f64], n: usize, h2: f64) {
    let at = |v: &[f64], r: isize, c: isize| -> f64 {
        if r < 0 || c < 0 || r >= n as isize || c >= n as isize {
            0.0
        } else {
            v[r as usize * n + c as usize]
        }
    };
    for r in 0..n {
        for c in 0..n {
            let (ri, ci) = (r as isize, c as isize);
            let nb = at(x, ri - 1, ci) + at(x, ri + 1, ci) + at(x, ri, ci - 1) + at(x, ri, ci + 1);
            y[r * n + c] = (4.0 * x[r * n + c] - nb) / h2;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl CgSolver {
    /// Solves `problem`; returns the solution grid, solver status, and the
    /// reduction counters.
    ///
    /// # Panics
    ///
    /// Panics if the problem's boundary data is not identically zero on the
    /// boundary (this implementation folds only zero-Dirichlet conditions).
    pub fn solve(&self, problem: &PoissonProblem) -> (Grid2D, SolveStatus, CgStats) {
        let n = problem.n();
        let h2 = problem.h() * problem.h();
        // Verify a zero boundary by sampling the problem's ghost ring.
        let probe = problem.initial_grid(1);
        for c in -1..=(n as isize) {
            assert!(
                probe.get_h(-1, c).abs() < 1e-12 && probe.get_h(n as isize, c).abs() < 1e-12,
                "CG solver requires zero Dirichlet boundary"
            );
        }

        let b: Vec<f64> = {
            let f = problem.forcing();
            (0..n * n).map(|i| f.get(i / n, i % n)).collect()
        };
        let mut x = vec![0.0f64; n * n];
        let mut r = b.clone(); // r = b − A·0
        let mut p = r.clone();
        let mut ap = vec![0.0f64; n * n];
        let b_norm = dot(&b, &b).sqrt().max(f64::MIN_POSITIVE);
        let mut rr = dot(&r, &r);

        // Unlike an update difference, the residual is known before any
        // step, so a zero budget or a tolerance it already meets answers
        // here, at iteration 0.
        let rel0 = rr.sqrt() / b_norm;
        let status = if rel0 < self.tol || self.max_iters == 0 {
            SolveStatus { converged: rel0 < self.tol, iterations: 0, final_diff: rel0 }
        } else {
            let mut step = |_: usize, _: bool| {
                apply_a(&p, &mut ap, n, h2);
                let alpha = rr / dot(&p, &ap);
                for i in 0..x.len() {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                let rr_new = dot(&r, &r);
                let beta = rr_new / rr;
                for i in 0..p.len() {
                    p[i] = r[i] + beta * p[i];
                }
                rr = rr_new;
                rr.sqrt() / b_norm
            };
            let mut every = CheckPolicy::Every(1);
            run_schedule(&mut step, &mut every, self.tol, self.max_iters, 1, None).0.into()
        };

        let u = Grid2D::from_fn(n, n, 1, |row, col| x[row * n + col]);
        // ‖b‖ and the initial r·r, then p·Ap and r·r each iteration.
        let global_reductions = 2 + 2 * status.iterations;
        (u, status, CgStats { iterations: status.iterations, global_reductions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JacobiSolver, Manufactured};
    use parspeed_stencil::Stencil;

    #[test]
    fn solves_sinsin_to_discretization_accuracy() {
        let n = 24;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (u, status, _) = CgSolver::default().solve(&p);
        assert!(status.converged);
        let err = u.max_abs_diff(&p.exact_solution().unwrap());
        assert!(err < 5e-3, "error {err}");
    }

    #[test]
    fn eigenvector_forcing_converges_almost_instantly() {
        // sin(πx)sin(πy) is an eigenvector of the discrete Laplacian, so CG
        // nails it in a handful of iterations at any n — worth pinning,
        // since it is why generic convergence tests must NOT use it.
        for n in [16usize, 32] {
            let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
            let (_, s, _) = CgSolver::default().solve(&p);
            assert!(s.converged);
            assert!(s.iterations <= 5, "n={n}: {} iterations", s.iterations);
        }
    }

    /// A rough, multi-mode forcing (deterministic hash noise) with zero
    /// boundary — the generic CG workload.
    fn rough_problem(n: usize) -> PoissonProblem {
        PoissonProblem::new(
            n,
            |x, y| {
                let a = (x * 7919.0).sin() * (y * 6101.0).cos();
                let b = (x * 131.0 + y * 373.0).sin();
                a + 0.5 * b
            },
            crate::Boundary::Const(0.0),
        )
    }

    #[test]
    fn converges_in_order_n_iterations() {
        // CG on the 5-point Laplacian: κ = O(n²) ⇒ iterations = O(n) for a
        // forcing with energy across the spectrum.
        let iters = |n: usize| {
            let (_, s, _) = CgSolver::default().solve(&rough_problem(n));
            assert!(s.converged);
            s.iterations
        };
        let i16 = iters(16);
        let i32 = iters(32);
        assert!(i16 < 16 * 5, "CG too slow: {i16}");
        let ratio = i32 as f64 / i16 as f64;
        assert!(ratio > 1.4 && ratio < 2.8, "iteration growth {ratio} ({i16} → {i32})");
    }

    #[test]
    fn vastly_fewer_iterations_than_jacobi() {
        let n = 24;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (_, cg, _) = CgSolver::default().solve(&p);
        let (_, jac) = JacobiSolver::with_tol(1e-8).solve(&p, &Stencil::five_point());
        assert!(
            cg.iterations * 10 < jac.iterations,
            "CG {} vs Jacobi {}",
            cg.iterations,
            jac.iterations
        );
    }

    #[test]
    fn reduction_count_is_two_per_iteration() {
        let p = PoissonProblem::manufactured(12, Manufactured::Bubble);
        let (_, _, stats) = CgSolver::default().solve(&p);
        assert_eq!(stats.global_reductions, 2 + 2 * stats.iterations);
    }

    #[test]
    fn agrees_with_jacobi_solution() {
        let n = 16;
        let p = PoissonProblem::manufactured(n, Manufactured::Bubble);
        let (u_cg, _, _) = CgSolver { tol: 1e-12, ..Default::default() }.solve(&p);
        let (u_j, _) = JacobiSolver::with_tol(1e-12).solve(&p, &Stencil::five_point());
        assert!(u_cg.max_abs_diff(&u_j) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "zero Dirichlet")]
    fn rejects_nonzero_boundary() {
        let p = PoissonProblem::laplace(8, 1.0);
        let _ = CgSolver::default().solve(&p);
    }
}

//! Solve a real Poisson problem in parallel and compare against the
//! analytic solution — the full numerical stack under the model.
//!
//! ```sh
//! cargo run --release --example poisson_solve
//! ```

use parspeed::exec::{CheckPolicy, PartitionedJacobi};
use parspeed::prelude::*;
use parspeed::solver::{CgSolver, Manufactured, RedBlackSolver};
use std::time::Instant;

fn main() {
    let n = 96;
    let problem = PoissonProblem::manufactured(n, Manufactured::SinSin);
    let stencil = Stencil::five_point();
    let exact = problem.exact_solution().expect("manufactured problem");

    println!("-∇²u = 2π²·sin(πx)·sin(πy) on a {n}×{n} grid, u = sin·sin exact\n");

    // Partitioned parallel Jacobi: 8 strips, geometric convergence checks.
    let decomp = StripDecomposition::new(n, 8);
    let mut exec = PartitionedJacobi::new(&problem, &stencil, &decomp);
    let t0 = Instant::now();
    let run = exec.solve(1e-9, 400_000, CheckPolicy::geometric());
    let wall = t0.elapsed();
    let u = exec.solution();
    let err = u.max_abs_diff(&exact);
    println!("partitioned Jacobi (8 strips):");
    println!(
        "  converged  : {} in {} iterations ({} checks)",
        run.converged, run.iterations, run.checks
    );
    println!("  wall time  : {wall:.2?}");
    println!("  max error  : {err:.3e} (discretization-limited)");

    // Sequential reference — must agree bit for bit on the iterate path,
    // and to the same limit here.
    let (u_seq, st) = JacobiSolver::with_tol(1e-9).solve(&problem, &stencil);
    println!(
        "\nsequential Jacobi: {} iterations, max |par − seq| = {:.1e}",
        st.iterations,
        u.max_abs_diff(&u_seq)
    );

    // Faster solvers on the same problem.
    let (u_rb, st_rb) = RedBlackSolver::optimal(n, 1e-9).solve(&problem);
    println!(
        "red-black SOR   : {} iterations, error {:.3e}",
        st_rb.iterations,
        u_rb.max_abs_diff(&exact)
    );
    let (u_cg, st_cg, stats) = CgSolver::default().solve(&problem);
    println!(
        "conjugate grad. : {} iterations ({} global reductions), error {:.3e}",
        st_cg.iterations,
        stats.global_reductions,
        u_cg.max_abs_diff(&exact)
    );

    println!(
        "\nresidual L∞ of the parallel solution: {:.3e}",
        parspeed::solver::apply::residual_max(
            &stencil,
            &u_seq,
            problem.forcing(),
            problem.h() * problem.h()
        )
    );
    let l2 = exact.interior_fold(0.0, |a, v| a + v * v).sqrt();
    println!("L2 of exact solution (sanity): {l2:.4}");
}

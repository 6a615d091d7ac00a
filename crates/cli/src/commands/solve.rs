//! `parspeed solve` — actually solve a Poisson problem with the numerical
//! substrate, served through the engine: solves are deterministic (the
//! partitioned executor is bit-identical to sequential Jacobi), so
//! repeated solves dedup and cache like any other query.

use crate::args::{Args, CliError};
use crate::commands::eval_single;
use crate::select;
use parspeed_bench::report::Table;
use parspeed_engine::{CheckSpec, EvalValue, Query, SolverKind};

pub const KEYS: &[&str] =
    &["n", "solver", "tol", "stencil", "partitions", "max-iters", "check-policy"];
pub const SWITCHES: &[&str] = &[];

/// Usage shown by `parspeed help solve`.
pub const USAGE: &str = "parspeed solve [--n 63] [--solver jacobi|sor|rbsor|cg|multigrid|parallel]
    [--tol 1e-8] [--stencil 5pt] [--partitions 4] [--max-iters 200000]
    [--check-policy every:N|geometric|geometric:start,factor,max]

Solves the manufactured sin·sin Poisson problem on an n×n grid and reports
iterations, convergence, and the exact-solution error. `parallel` runs the
rayon-partitioned Jacobi executor with --partitions strips (bit-identical
to sequential Jacobi); `multigrid` needs n = 2^k − 1. --check-policy sets
the convergence-check schedule for jacobi/sor/parallel (default: every
iteration; geometric for parallel) — sparse schedules also widen the
temporal-tiling and deep-halo blocks the solver runs between checks.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let n = args.usize_or("n", 63)?;
    let tol = args.f64_or("tol", 1e-8)?;
    let max_iters = args.usize_or("max-iters", 200_000)?;
    let solver = SolverKind::parse(args.str_or("solver", "jacobi")).map_err(CliError)?;
    let parts = args.usize_or("partitions", 4)?.clamp(1, n.max(1));

    let stencil = select::stencil_spec(args.str_or("stencil", "5pt"))?;
    let check = args.str_opt("check-policy").map(CheckSpec::parse).transpose().map_err(CliError)?;

    let query = Query::Solve { n, solver, tol, stencil, partitions: parts, max_iters, check };
    let EvalValue::Solve {
        converged, iterations, final_diff, max_error, global_reductions, ..
    } = eval_single(query)?
    else {
        unreachable!("solve queries produce solve values")
    };

    let label = match solver {
        SolverKind::Jacobi => "point Jacobi".to_string(),
        SolverKind::Sor => "SOR (optimal ω)".to_string(),
        SolverKind::RedBlack => "red-black SOR".to_string(),
        SolverKind::Cg => format!(
            "conjugate gradient ({} global reductions)",
            global_reductions.expect("cg reports reductions")
        ),
        SolverKind::Multigrid => "geometric multigrid V-cycles".to_string(),
        SolverKind::Parallel => format!("partitioned Jacobi ({parts} strips, rayon)"),
    };

    let mut t = Table::new(format!("{label} · n={n} · tol={tol:.0e}"), &["quantity", "value"]);
    t.row(vec!["converged".into(), if converged { "yes" } else { "no" }.into()]);
    t.row(vec!["iterations".into(), iterations.to_string()]);
    t.row(vec!["final update diff".into(), format!("{final_diff:.3e}")]);
    t.row(vec!["max error vs exact".into(), format!("{max_error:.3e}")]);
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        let toks: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        Args::parse(&toks, KEYS, SWITCHES).unwrap()
    }

    #[test]
    fn all_solvers_converge_on_a_small_grid() {
        for solver in ["jacobi", "sor", "rbsor", "cg", "multigrid", "parallel"] {
            let out = run(&parse(&["--n", "31", "--solver", solver, "--tol", "1e-9"])).unwrap();
            assert!(out.contains("yes"), "{solver} did not converge: {out}");
        }
    }

    #[test]
    fn multigrid_rejects_bad_sides() {
        let e = run(&parse(&["--n", "64", "--solver", "multigrid"])).unwrap_err();
        assert!(e.0.contains("2^k"));
    }

    #[test]
    fn sor_beats_jacobi_on_iterations() {
        let iters = |solver: &str| -> usize {
            let out = run(&parse(&["--n", "31", "--solver", solver])).unwrap();
            out.lines()
                .find(|l| l.contains("iterations"))
                .and_then(|l| l.split_whitespace().last().unwrap().parse().ok())
                .unwrap()
        };
        assert!(iters("sor") < iters("jacobi") / 4);
    }

    #[test]
    fn unknown_solver_is_an_error() {
        assert!(run(&parse(&["--solver", "adi"])).is_err());
    }

    #[test]
    fn check_policy_converges_with_the_same_answer() {
        let iters_and_err = |extra: &[&str]| {
            let mut toks = vec!["--n", "31", "--solver", "jacobi", "--tol", "1e-9"];
            toks.extend_from_slice(extra);
            let out = run(&parse(&toks)).unwrap();
            assert!(out.contains("yes"), "{out}");
            out.lines().find(|l| l.contains("max error")).unwrap().to_string()
        };
        // Lazy schedules overshoot a little but land on the same solution
        // quality; the error row is identical to three printed digits.
        let eager = iters_and_err(&[]);
        let lazy = iters_and_err(&["--check-policy", "geometric"]);
        assert_eq!(
            eager.split_whitespace().last().unwrap(),
            lazy.split_whitespace().last().unwrap()
        );
    }

    #[test]
    fn bad_check_policy_is_an_error() {
        let e = run(&parse(&["--check-policy", "fibonacci"])).unwrap_err();
        assert!(e.0.contains("check policy"), "{}", e.0);
    }
}

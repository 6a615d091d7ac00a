//! E7 — §4: convergence-checking cost and scheduling (after Saltz, Naik &
//! Nicol \[13\]).
//!
//! Model side: naive per-iteration checking on a large hypercube costs
//! more than the iteration itself; the optimal period makes it
//! insignificant. Executor side: the real partitioned solver under lazy
//! policies converges with a bounded iteration overshoot and a fraction of
//! the checks.

use crate::report::{pct, secs, Report, Table};
use parspeed_core::convergence::ConvergenceModel;
use parspeed_core::MachineParams;
use parspeed_exec::{CheckPolicy, PartitionedJacobi};
use parspeed_grid::StripDecomposition;
use parspeed_solver::{Manufactured, PoissonProblem};
use parspeed_stencil::Stencil;

/// Regenerates the convergence-checking analysis.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let mut out = Report::default();

    // Model: n = 1024 over 64 processors, ~937 iterations to converge.
    let c = ConvergenceModel::hypercube(&m);
    let area = 16_384.0;
    let cycle = 6.0 * area * m.tfp;
    let iters = 937usize;
    let p = 64usize;
    let mut t = Table::new(
        "Hypercube checking cost (n=1024, P=64, 937 iterations)",
        &["period", "total time", "overhead vs check-free"],
    );
    let d_star = c.optimal_period(iters, cycle, area, p);
    for d in [1usize, 4, 16, d_star, 256, iters] {
        t.row(vec![
            if d == d_star { format!("{d} (optimal)") } else { d.to_string() },
            secs(c.total_time(iters, cycle, area, p, d)),
            pct(c.overhead_fraction(iters, cycle, area, p, d)),
        ]);
    }
    out.table("e7_convergence_model.csv", &t);
    out.text.push_str(
        "Paper: naive checking is 'extremely high [cost] due to message\n\
         packaging and handling'; scheduled checks 'reduce that cost to an\n\
         insignificant amount'.\n\n",
    );

    // Executor: real solves under the policies.
    let n = if quick { 24 } else { 48 };
    let problem = PoissonProblem::manufactured(n, Manufactured::SinSin);
    let stencil = Stencil::five_point();
    let mut e = Table::new(
        format!("Real partitioned solves on {n}×{n} (4 strips, tol 1e-8)"),
        &["policy", "iterations", "checks", "converged"],
    );
    let policies: Vec<(String, CheckPolicy)> = vec![
        ("every iteration".into(), CheckPolicy::Every(1)),
        ("every 32".into(), CheckPolicy::Every(32)),
        ("geometric".into(), CheckPolicy::geometric()),
    ];
    for (label, policy) in policies {
        let d = StripDecomposition::new(n, 4);
        let mut exec = PartitionedJacobi::new(&problem, &stencil, &d);
        let run = exec.solve(1e-8, 500_000, policy);
        e.row(vec![
            label,
            run.iterations.to_string(),
            run.checks.to_string(),
            run.converged.to_string(),
        ]);
    }
    out.table("e7_convergence_exec.csv", &e);
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn shows_scheduling_benefit() {
        let r = super::run(true).text;
        assert!(r.contains("(optimal)"));
        assert!(r.contains("geometric"));
    }

    #[test]
    fn csv_optimal_period_is_cheapest_and_lazy_policies_converge() {
        use crate::experiments::csv::series;
        let r = super::run(true);
        let m = series(&r, "e7_convergence_model.csv");
        let totals = m.numbers("total time");
        let best = m.column("period").iter().position(|p| p.ends_with("(optimal)")).unwrap();
        for (i, total) in totals.iter().enumerate().filter(|(i, _)| *i != best) {
            assert!(*total > totals[best], "{:?}", m.rows[i]);
        }
        // Checking every iteration costs more than the iterations themselves.
        assert_eq!(m.column("period")[0], "1");
        assert!(m.numbers("overhead vs check-free")[0] > 1.0);

        let e = series(&r, "e7_convergence_exec.csv");
        assert!(e.column("converged").iter().all(|c| *c == "true"));
        let (iterations, checks) = (e.numbers("iterations"), e.numbers("checks"));
        assert_eq!(checks[0], iterations[0], "the first policy checks every iteration");
        for i in 1..e.rows.len() {
            assert!(checks[i] < checks[0], "{:?}", e.rows[i]);
            assert!(iterations[i] >= iterations[0], "{:?}", e.rows[i]);
            assert!(iterations[i] <= iterations[0] * 1.05, "{:?}", e.rows[i]);
        }
    }
}

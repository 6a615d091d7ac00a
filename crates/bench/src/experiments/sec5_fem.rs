//! E8 — §5: the Adams–Crockett counter-example.
//!
//! A CG iteration's all-to-all scalar reduction makes execution time
//! *non-monotone* in the processor count: past `P* ≈ √(E·n²·Tfp/t_exch)`
//! adding processors slows the solve. Model curve plus the real CG
//! solver's reduction counts.

use crate::report::{ascii_chart, secs, Report, Series, Table};
use parspeed_core::fem::FemModel;
use parspeed_core::MachineParams;
use parspeed_solver::{Boundary, CgSolver, PoissonProblem};

/// Regenerates the FEM counter-example.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let fem = FemModel::new(&m);
    let mut out = Report::default();

    let n = 128usize;
    let mut t =
        Table::new(format!("CG iteration time vs processors (n = {n})"), &["P", "t(P)", "note"]);
    let p_star = fem.optimal_processors(n, 1 << 20);
    let mut pts = Vec::new();
    let ps: Vec<usize> =
        [1, 4, 16, 64, 256, p_star, 4 * p_star, 16 * p_star, 64 * p_star].into_iter().collect();
    let mut sorted = ps.clone();
    sorted.sort_unstable();
    sorted.dedup();
    for p in sorted {
        let tt = fem.iteration_time(n, p);
        pts.push(((p as f64).log2(), tt.log10()));
        t.row(vec![
            p.to_string(),
            secs(tt),
            if p == p_star { "← interior optimum".into() } else { String::new() },
        ]);
    }
    out.table("e8_fem_curve.csv", &t);
    out.text.push_str(&ascii_chart(
        "log₁₀ t(P) vs log₂ P — the U-shape of §5",
        &[Series { label: "t(P)".into(), marker: '*', points: pts }],
        60,
        12,
    ));

    let mut opt = Table::new(
        "Interior optimum grows like √(n²)",
        &["n", "P* (scan)", "P* (continuous)", "t(P*)", "t(16·P*)"],
    );
    for nn in if quick { vec![64usize, 256] } else { vec![64usize, 128, 256, 512] } {
        let p = fem.optimal_processors(nn, 1 << 22);
        opt.row(vec![
            nn.to_string(),
            p.to_string(),
            format!("{:.0}", fem.optimal_processors_continuous(nn)),
            secs(fem.iteration_time(nn, p)),
            secs(fem.iteration_time(nn, 16 * p)),
        ]);
    }
    out.text.push_str(&opt.render());

    // Real CG run: count the global reductions the model prices.
    let nn = if quick { 16 } else { 32 };
    let problem = PoissonProblem::new(
        nn,
        |x, y| (x * 7919.0).sin() * (y * 6101.0).cos(),
        Boundary::Const(0.0),
    );
    let (_, status, stats) = CgSolver::default().solve(&problem);
    out.text.push_str(&format!(
        "\nReal CG on {nn}×{nn}: converged = {}, {} iterations, {} global\n\
         reductions (2 per iteration — the §5 all-to-all traffic the model\n\
         charges (P−1)·t_exch + P·t_add for).\n",
        status.converged, status.iterations, stats.global_reductions
    ));
    out.text.push_str(
        "\nContrast with Jacobi (§§4–6): nearest-neighbour-only communication\n\
         keeps cycle time monotone in P, so allocation is extremal; the\n\
         global reduction breaks that and creates the interior optimum.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn shows_interior_optimum() {
        let r = super::run(true).text;
        assert!(r.contains("interior optimum"));
        assert!(r.contains("global"));
    }

    #[test]
    fn csv_time_falls_to_one_interior_optimum_then_rises() {
        let s = crate::experiments::csv::series(&super::run(true), "e8_fem_curve.csv");
        let t = s.numbers("t(P)");
        let best = s.column("note").iter().position(|n| n.contains("interior optimum")).unwrap();
        assert!(best > 0 && best < t.len() - 1, "{best}");
        for i in 1..t.len() {
            assert_eq!(t[i] < t[i - 1], i <= best, "{:?}", s.rows[i]);
        }
    }
}

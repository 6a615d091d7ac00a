//! E4 — Figure 8: optimal speedup and the processors needed to achieve
//! it, as functions of problem size, on the synchronous bus.
//!
//! Four curves per stencil over `log₂(n²) ∈ [12, 20]`: processors at the
//! optimum for squares (a) and strips (b), optimal speedup for squares (c)
//! and strips (d). Squares want `P* ∝ (n²)^{1/3}` with speedup a third of
//! that; strips want `P* ∝ (n²)^{1/4}`.

use crate::report::{ascii_chart, Report, Series, Table};
use parspeed_core::{ArchModel, MachineParams, ProcessorBudget, SyncBus, Workload};
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates Fig 8 for the 5-point and 9-point stencils.
pub fn run(_quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let bus = SyncBus::new(&m);
    let mut out = Report::default();

    for stencil in [Stencil::five_point(), Stencil::nine_point_box()] {
        let mut table = Table::new(
            format!("Fig 8 — optimum vs problem size ({}, synchronous bus)", stencil.name()),
            &[
                "log2(n²)",
                "n",
                "(a) procs squares",
                "(b) procs strips",
                "(c) speedup squares",
                "(d) speedup strips",
            ],
        );
        let mut s_procs_sq =
            Series { label: "(a) processors, squares".into(), marker: 'a', points: vec![] };
        let mut s_procs_st =
            Series { label: "(b) processors, strips".into(), marker: 'b', points: vec![] };
        let mut s_sp_sq =
            Series { label: "(c) speedup, squares".into(), marker: 'c', points: vec![] };
        let mut s_sp_st =
            Series { label: "(d) speedup, strips".into(), marker: 'd', points: vec![] };

        for log2_n2 in (12..=20).step_by(1) {
            let n = 2f64.powi(log2_n2).sqrt().round() as usize;
            let wq = Workload::new(n, &stencil, PartitionShape::Square);
            let ws = Workload::new(n, &stencil, PartitionShape::Strip);
            let oq = bus.optimize(&wq, ProcessorBudget::Unlimited);
            let os = bus.optimize(&ws, ProcessorBudget::Unlimited);
            let x = log2_n2 as f64;
            s_procs_sq.points.push((x, oq.processors as f64));
            s_procs_st.points.push((x, os.processors as f64));
            s_sp_sq.points.push((x, oq.speedup));
            s_sp_st.points.push((x, os.speedup));
            table.row(vec![
                log2_n2.to_string(),
                n.to_string(),
                oq.processors.to_string(),
                os.processors.to_string(),
                format!("{:.2}", oq.speedup),
                format!("{:.2}", os.speedup),
            ]);
        }
        out.table(format!("e4_fig8_{}.csv", stencil.name().replace([' ', '-'], "_")), &table);
        out.text.push_str(&ascii_chart(
            &format!("Fig 8 ({})", stencil.name()),
            &[s_procs_sq, s_procs_st, s_sp_sq, s_sp_st],
            64,
            16,
        ));
        out.text.push('\n');
    }

    // Scaling exponents: the paper's "disheartening" (n²)^{1/4} for strips
    // and (n²)^{1/3} for squares.
    let mut fits = Table::new(
        "Fitted growth exponents d log(speedup)/d log(n²) (paper: ⅓ and ¼)",
        &["shape", "fitted exponent", "paper"],
    );
    let sides: Vec<usize> = vec![128, 256, 512, 1024, 2048];
    for (shape, label, paper) in [
        (PartitionShape::Square, "squares", "1/3 ≈ 0.333"),
        (PartitionShape::Strip, "strips", "1/4 = 0.250"),
    ] {
        let e = parspeed_core::table1::fit_scaling_exponent(&sides, |n| {
            let w = Workload::new(n, &Stencil::five_point(), shape);
            bus.optimal_speedup_unbounded(&w)
        });
        fits.row(vec![label.into(), format!("{e:.4}"), paper.into()]);
    }
    out.text.push_str(&fits.render());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn exponents_match_paper() {
        let r = super::run(true).text;
        assert!(r.contains("0.333") || r.contains("0.33"));
        assert!(r.contains("0.250") || r.contains("0.25"));
    }

    #[test]
    fn csv_meets_the_section_6_1_anchors_and_the_speedup_exponents() {
        use crate::experiments::csv::series;
        let r = super::run(true);
        for (file, procs_at_256) in
            [("e4_fig8_5_point.csv", "14"), ("e4_fig8_9_point_box.csv", "22")]
        {
            let s = series(&r, file);
            let at_256 = s.column("n").iter().position(|n| *n == "256").unwrap();
            assert_eq!(s.column("(a) procs squares")[at_256], procs_at_256, "{file}");
            let (sq_procs, st_procs) =
                (s.numbers("(a) procs squares"), s.numbers("(b) procs strips"));
            let (sq, st) = (s.numbers("(c) speedup squares"), s.numbers("(d) speedup strips"));
            for i in 0..s.rows.len() {
                assert!(sq_procs[i] >= st_procs[i] && sq[i] >= st[i], "{file} row {i}");
            }
            // Speedup grows as (n²)^⅓ for squares and (n²)^¼ for strips.
            let n = s.numbers("n");
            let last = n.len() - 1;
            let growth = (n[last] / n[0]).powi(2).ln();
            let slope = |y: &[f64]| (y[last] / y[0]).ln() / growth;
            assert!((slope(&sq) - 1.0 / 3.0).abs() < 0.005, "{file}: {}", slope(&sq));
            assert!((slope(&st) - 0.25).abs() < 0.005, "{file}: {}", slope(&st));
        }
    }
}

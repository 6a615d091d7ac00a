//! E10 — §6.1: hardware leverage at the re-optimized configuration.
//!
//! Strips: doubling either the bus or the flop unit gives 1/√2. Squares:
//! bus×2 → 0.63, flop×2 → 0.79 — "more leverage by improving
//! communication speed than computation speed". In the `c`-dominated
//! regime, bus bandwidth is nearly worthless while cutting `c` is linear.

use crate::report::{pct, Report, Table};
use parspeed_core::leverage::{bus_speedup, flop_speedup, ideal_factors, overhead_scaling};
use parspeed_core::{MachineParams, ProcessorBudget, Workload};
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates the leverage analysis.
pub fn run(_quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let budget = ProcessorBudget::Unlimited;
    let mut out = Report::default();

    let mut t = Table::new(
        "Cycle-time factor after doubling one component (n = 1024, c = 0)",
        &["shape", "bus ×2", "ideal", "flop ×2", "ideal"],
    );
    for shape in [PartitionShape::Strip, PartitionShape::Square] {
        let w = Workload::new(1024, &Stencil::five_point(), shape);
        let (ib, iflop) = ideal_factors(&w);
        t.row(vec![
            shape.name().into(),
            format!("{:.4}", bus_speedup(&m, &w, budget, 2.0).factor()),
            format!("{ib:.4}"),
            format!("{:.4}", flop_speedup(&m, &w, budget, 2.0).factor()),
            format!("{iflop:.4}"),
        ]);
    }
    out.table("e10_leverage.csv", &t);
    out.text.push_str(
        "Paper: 1/√2 ≈ 0.707 for strips from either upgrade; 0.63 (bus) and\n\
         0.79 (flop) for squares — communication is the better lever.\n\n",
    );

    // The c-dominated regime.
    let mc = MachineParams::paper_defaults().with_bus_overhead(1.0e-3);
    let w = Workload::new(16_384, &Stencil::five_point(), PartitionShape::Strip);
    let budget16 = ProcessorBudget::Limited(16);
    let mut t2 = Table::new(
        "Overhead-dominated regime (c = 1000·b, strips, N = 16)",
        &["upgrade", "cycle-time factor"],
    );
    t2.row(vec!["bus ×2".into(), format!("{:.4}", bus_speedup(&mc, &w, budget16, 2.0).factor())]);
    t2.row(vec!["flop ×2".into(), format!("{:.4}", flop_speedup(&mc, &w, budget16, 2.0).factor())]);
    t2.row(vec![
        "c ÷2".into(),
        format!("{:.4}", overhead_scaling(&mc, &w, budget16, 0.5).factor()),
    ]);
    out.text.push_str(&t2.render());
    out.text.push_str(&format!(
        "With c/b = {:.0}, shaving fixed overhead is worth {} of the cycle\n\
         while doubling bandwidth saves almost nothing — the paper's point\n\
         that `c` acts linearly on the optimized time.\n",
        mc.bus.c / mc.bus.b,
        pct(1.0 - overhead_scaling(&mc, &w, budget16, 0.5).factor()),
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn shows_both_regimes() {
        let r = super::run(true).text;
        assert!(r.contains("0.63") || r.contains("0.62"));
        assert!(r.contains("Overhead-dominated"));
    }

    #[test]
    fn csv_doubling_a_resource_meets_its_ideal_factor() {
        use crate::experiments::csv::{num, series};
        let s = series(&super::run(true), "e10_leverage.csv");
        assert_eq!(s.header, ["shape", "bus ×2", "ideal", "flop ×2", "ideal"]);
        // Strips: either resource ×2 gives 1/√2. Squares: the bus gives
        // 4^-⅓ ≈ 0.63 and the flop unit 2^-⅓ ≈ 0.79.
        let ideal = [
            ("strip", std::f64::consts::FRAC_1_SQRT_2, std::f64::consts::FRAC_1_SQRT_2),
            ("square", 4f64.cbrt().recip(), 2f64.cbrt().recip()),
        ];
        for (row, (shape, bus, flop)) in s.rows.iter().zip(ideal) {
            let v: Vec<f64> = row[1..].iter().map(|c| num(c)).collect();
            assert_eq!(row[0], shape);
            assert!((v[1] - bus).abs() <= 5e-5 && (v[3] - flop).abs() <= 5e-5, "{row:?}");
            assert!((v[0] - v[1]).abs() <= 1e-3 && (v[2] - v[3]).abs() <= 1e-3, "{row:?}");
        }
        // Squares: more leverage from communication than computation.
        assert!(num(&s.rows[1][1]) < num(&s.rows[1][3]));
    }
}

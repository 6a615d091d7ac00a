//! E5 — Table I: optimal speedup per architecture, with scaling-exponent
//! fits certifying the paper's asymptotic columns.

use crate::report::{Report, Table};
use parspeed_core::table1::{
    async_bus_speedup, fit_scaling_exponent, hypercube_speedup, rows, switching_speedup,
    sync_bus_speedup,
};
use parspeed_core::{MachineParams, Workload};
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates Table I at several grid sizes plus exponent fits.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let stencil = Stencil::five_point();
    let mut out = Report::default();

    let sides: &[usize] = if quick { &[256, 1024] } else { &[256, 512, 1024, 2048, 4096] };
    let mut t = Table::new(
        "Table I — optimal speedup (squares, one point per processor where it applies)",
        &["architecture", "formula", "n=256", &format!("n={}", sides[sides.len() - 1])],
    );
    let first = rows(&m, 256, &stencil);
    let last = rows(&m, sides[sides.len() - 1], &stencil);
    for (a, b) in first.iter().zip(&last) {
        t.row(vec![
            a.architecture.into(),
            a.formula.into(),
            format!("{:.1}", a.optimal_speedup),
            format!("{:.1}", b.optimal_speedup),
        ]);
    }
    out.table("e5_table1.csv", &t);

    let w = Workload::new(2, &stencil, PartitionShape::Square);
    let fit_sides: Vec<usize> = vec![256, 512, 1024, 2048, 4096];
    let mut fits = Table::new(
        "Scaling exponents d log(speedup)/d log(n²)",
        &["architecture", "fitted", "paper"],
    );
    fits.row(vec![
        "hypercube".into(),
        format!(
            "{:.4}",
            fit_scaling_exponent(&fit_sides, |n| hypercube_speedup(&m, &w.scaled_to(n)))
        ),
        "1 (linear in n²)".into(),
    ]);
    fits.row(vec![
        "synchronous bus".into(),
        format!(
            "{:.4}",
            fit_scaling_exponent(&fit_sides, |n| sync_bus_speedup(&m, &w.scaled_to(n)))
        ),
        "1/3".into(),
    ]);
    fits.row(vec![
        "asynchronous bus".into(),
        format!(
            "{:.4}",
            fit_scaling_exponent(&fit_sides, |n| async_bus_speedup(&m, &w.scaled_to(n)))
        ),
        "1/3 (constant ×1.5 better)".into(),
    ]);
    fits.row(vec![
        "switching network".into(),
        format!(
            "{:.4}",
            fit_scaling_exponent(&fit_sides, |n| switching_speedup(&m, &w.scaled_to(n)))
        ),
        "just under 1: n²/log n".into(),
    ]);
    out.text.push_str(&fits.render());

    out.text.push_str(
        "\nReading (paper §1/§8): hypercube and mesh scale linearly in n²; the\n\
         banyan pays only a log factor; buses are capped at the cube root —\n\
         'bus networks are unsuited for large numerical problems'. At\n\
         practical sizes hypercube-vs-banyan is decided by message startup\n\
         versus switch speed, not by the log factor.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_has_four_architectures() {
        let r = super::run(true).text;
        for a in ["hypercube", "synchronous bus", "asynchronous bus", "switching network"] {
            assert!(r.contains(a));
        }
    }

    #[test]
    fn csv_grows_as_the_paper_asymptotic_forms() {
        use crate::experiments::csv::{near, series};
        let s = series(&super::run(true), "e5_table1.csv");
        assert_eq!(
            s.column("architecture"),
            ["hypercube", "synchronous bus", "asynchronous bus", "switching network"]
        );
        assert_eq!(s.header[2..], ["n=256", "n=1024"]);
        let (small, large) = (s.numbers("n=256"), s.numbers("n=1024"));
        let growth: Vec<f64> = large.iter().zip(&small).map(|(l, s)| l / s).collect();
        // n² grows 16-fold: Θ(n²) on the hypercube, Θ((n²)^⅓) on both
        // buses, Θ(n²/log n) on the switching network.
        assert!(near(growth[0], 16.0, 0.02), "{growth:?}");
        assert!(near(growth[1], 16f64.cbrt(), 0.03), "{growth:?}");
        assert!(near(growth[2], 16f64.cbrt(), 0.03), "{growth:?}");
        assert!(near(growth[3], 16.0 * 8.0 / 10.0, 0.01), "{growth:?}");
        // §6.2: posted writes are worth ×1.5 on squares at every size.
        assert!(near(small[2] / small[1], 1.5, 0.02) && near(large[2] / large[1], 1.5, 0.02));
    }
}

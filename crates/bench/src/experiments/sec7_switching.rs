//! E12 — §7: banyan switching networks.
//!
//! Fixed machine: cycle time increases with partition size, so use all
//! processors (extremal, like the hypercube). Growing machine at one point
//! per processor: speedup `Θ(n²/log n)`. The word-level butterfly
//! simulation certifies the paper's conflict-free assumption for the
//! dedicated-module assignment — and shows what an adversarial assignment
//! costs.

use crate::report::{secs, Report, Table};
use parspeed_arch::{BanyanSim, IterationSpec, ModuleAssignment};
use parspeed_core::table1::fit_scaling_exponent;
use parspeed_core::{ArchModel, Banyan, MachineParams, Workload};
use parspeed_grid::StripDecomposition;
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates the switching-network analysis.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let stencil = Stencil::five_point();
    let mut out = Report::default();

    // Fixed machine: monotone in A ⇒ all processors.
    let net = Banyan::with_network(&m, 64);
    let w = Workload::new(256, &stencil, PartitionShape::Square);
    let mut t = Table::new(
        "Fixed 64-endpoint network (n = 256, squares): use every processor",
        &["P", "t_cycle", "speedup"],
    );
    for p in [4usize, 16, 64] {
        let area = w.points() / p as f64;
        t.row(vec![
            p.to_string(),
            secs(net.cycle_time(&w, area)),
            format!("{:.1}", net.speedup_at(&w, area)),
        ]);
    }
    out.text.push_str(&t.render());

    // Growing machine: Θ(n²/log n).
    let growing = Banyan::new(&m);
    let sides: Vec<usize> =
        if quick { vec![256, 1024, 4096] } else { vec![256, 512, 1024, 2048, 4096, 8192] };
    let mut t2 = Table::new(
        "Machine grows with the problem (1 point per processor)",
        &["n", "speedup", "speedup·log₂(n)/n²  (≈ constant)"],
    );
    for &n in &sides {
        let wn = Workload::new(n, &stencil, PartitionShape::Square);
        let s = growing.scaled_speedup(&wn, 1.0);
        t2.row(vec![
            n.to_string(),
            format!("{s:.3e}"),
            format!("{:.4e}", s * (n as f64).log2() / (n * n) as f64),
        ]);
    }
    out.table("e12_switching_scaling.csv", &t2);
    let exp = fit_scaling_exponent(&sides, |n| {
        growing.scaled_speedup(&Workload::new(n, &stencil, PartitionShape::Square), 1.0)
    });
    out.text.push_str(&format!(
        "Fitted exponent {exp:.4} — just under 1, the log-factor deficit\n\
         against the hypercube's exact 1.\n\n",
    ));

    // Conflict-freedom certification + adversarial contrast.
    let n = 64usize;
    let d = StripDecomposition::new(n, 16);
    let spec = IterationSpec::new(&d, &stencil);
    let good = BanyanSim::new(&m).simulate(&spec);
    let bad = BanyanSim::new(&m).with_assignment(ModuleAssignment::Adversarial).simulate(&spec);
    let mut t3 = Table::new(
        "Word-level butterfly simulation (n = 64, 16 strips)",
        &["module assignment", "cycle time", "total switch waiting"],
    );
    t3.row(vec![
        "dedicated (paper's assumption)".into(),
        secs(good.cycle.cycle_time),
        secs(good.contention_wait),
    ]);
    t3.row(vec![
        "adversarial (all → module 0)".into(),
        secs(bad.cycle.cycle_time),
        secs(bad.contention_wait),
    ]);
    out.table("e12_switching_contention.csv", &t3);
    out.text.push_str(
        "Zero waiting under the dedicated assignment certifies assumption\n\
         (1)–(4) of §7; the adversarial row shows the contention those\n\
         assumptions avoid.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn certifies_conflict_freedom() {
        let r = super::run(true).text;
        assert!(r.contains("dedicated"));
        assert!(r.contains("adversarial"));
        assert!(r.contains("Fitted exponent"));
    }

    #[test]
    fn csv_speedup_grows_as_n_squared_over_log_n_and_dedicated_modules_never_wait() {
        use crate::experiments::csv::{near, series};
        let r = super::run(true);
        let s = series(&r, "e12_switching_scaling.csv");
        let speedup = s.numbers("speedup");
        let scaled = s.numbers("speedup·log₂(n)/n²  (≈ constant)");
        for i in 1..s.rows.len() {
            assert!(speedup[i] > speedup[i - 1], "{:?}", s.rows[i]);
            assert!(near(scaled[i], scaled[0], 0.01), "{scaled:?}");
        }
        let c = series(&r, "e12_switching_contention.csv");
        assert!(c.column("module assignment")[0].starts_with("dedicated"));
        let (cycle, waiting) = (c.numbers("cycle time"), c.numbers("total switch waiting"));
        assert_eq!(waiting[0], 0.0, "the paper's assignment is conflict-free");
        assert!(waiting[1] > 0.0 && cycle[1] > cycle[0], "{:?}", c.rows[1]);
    }
}

//! The paper's Table I: optimal speedup as a function of architecture,
//! square partitions, one point per processor where the machine grows with
//! the problem.
//!
//! | Architecture      | Optimal speedup                                          |
//! |-------------------|----------------------------------------------------------|
//! | Hypercube         | `E·n²·Tfp / (E·Tfp + 8(β + α))`                          |
//! | Synchronous bus   | `E·n²·Tfp / (3·(E·Tfp)^{1/3}·(4n²bk)^{2/3})`             |
//! | Asynchronous bus  | `E·n²·Tfp / (2·(E·Tfp)^{1/3}·(4n²bk)^{2/3})`             |
//! | Switching network | `E·n²·Tfp / (16·w·k·log₂n + E·Tfp)`                      |
//!
//! [`rows`] evaluates the four entries; [`fit_scaling_exponent`] fits the
//! empirical growth exponent `d log(speedup) / d log(n²)` so tests (and
//! `parspeed experiment --id e5`) can check the paper's asymptotic claims:
//! 1 for the hypercube, 1/3 for the synchronous bus with squares, slightly
//! under 1 for the banyan.

use crate::{MachineParams, Workload};
use parspeed_stencil::{PartitionShape, Stencil};

/// One Table-I row evaluated at a concrete grid size.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Architecture name, paper order.
    pub architecture: &'static str,
    /// The closed-form optimal speedup at this `n`.
    pub optimal_speedup: f64,
    /// The formula, for display.
    pub formula: &'static str,
}

/// Hypercube Table-I speedup: one point per processor.
pub fn hypercube_speedup(m: &MachineParams, w: &Workload) -> f64 {
    let seq = w.e_flops * w.points() * m.tfp;
    let hc = m.hypercube;
    let packets = (w.k as f64 / hc.packet_words as f64).ceil();
    seq / (w.e_flops * m.tfp + 8.0 * (packets * hc.alpha + hc.beta))
}

/// Synchronous-bus Table-I speedup (squares, `c = 0`).
pub fn sync_bus_speedup(m: &MachineParams, w: &Workload) -> f64 {
    let seq = w.e_flops * w.points() * m.tfp;
    let comm = (w.e_flops * m.tfp).powf(1.0 / 3.0)
        * (4.0 * w.points() * m.bus.b * w.k as f64).powf(2.0 / 3.0);
    seq / (3.0 * comm)
}

/// Asynchronous-bus Table-I speedup (squares, `c = 0`).
pub fn async_bus_speedup(m: &MachineParams, w: &Workload) -> f64 {
    let seq = w.e_flops * w.points() * m.tfp;
    let comm = (w.e_flops * m.tfp).powf(1.0 / 3.0)
        * (4.0 * w.points() * m.bus.b * w.k as f64).powf(2.0 / 3.0);
    seq / (2.0 * comm)
}

/// Switching-network Table-I speedup: one point per processor.
pub fn switching_speedup(m: &MachineParams, w: &Workload) -> f64 {
    let seq = w.e_flops * w.points() * m.tfp;
    seq / (16.0 * m.switch.w * w.k as f64 * (w.n as f64).log2() + w.e_flops * m.tfp)
}

/// Evaluates all four Table-I rows for grid side `n` and `stencil`.
pub fn rows(m: &MachineParams, n: usize, stencil: &Stencil) -> Vec<Table1Row> {
    let w = Workload::new(n, stencil, PartitionShape::Square);
    vec![
        Table1Row {
            architecture: "hypercube",
            optimal_speedup: hypercube_speedup(m, &w),
            formula: "E·n²·Tfp / (E·Tfp + 8(β+α))",
        },
        Table1Row {
            architecture: "synchronous bus",
            optimal_speedup: sync_bus_speedup(m, &w),
            formula: "E·n²·Tfp / (3·(E·Tfp)^⅓·(4n²bk)^⅔)",
        },
        Table1Row {
            architecture: "asynchronous bus",
            optimal_speedup: async_bus_speedup(m, &w),
            formula: "E·n²·Tfp / (2·(E·Tfp)^⅓·(4n²bk)^⅔)",
        },
        Table1Row {
            architecture: "switching network",
            optimal_speedup: switching_speedup(m, &w),
            formula: "E·n²·Tfp / (16·w·k·log₂n + E·Tfp)",
        },
    ]
}

/// Least-squares slope of `log(speedup)` against `log(n²)` over the given
/// grid sides: the empirical scaling exponent of an architecture.
pub fn fit_scaling_exponent(sides: &[usize], speedup_at: impl Fn(usize) -> f64) -> f64 {
    assert!(sides.len() >= 2, "need at least two sizes to fit a slope");
    let pts: Vec<(f64, f64)> =
        sides.iter().map(|&n| (((n * n) as f64).ln(), speedup_at(n).ln())).collect();
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / pts.len() as f64;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
    let num: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let den: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MachineParams {
        MachineParams::paper_defaults()
    }

    const SIDES: [usize; 5] = [256, 512, 1024, 2048, 4096];

    #[test]
    fn four_rows_in_paper_order() {
        let rows = rows(&m(), 256, &Stencil::five_point());
        let names: Vec<_> = rows.iter().map(|r| r.architecture).collect();
        assert_eq!(
            names,
            vec!["hypercube", "synchronous bus", "asynchronous bus", "switching network"]
        );
        for r in &rows {
            assert!(r.optimal_speedup > 0.0, "{}", r.architecture);
        }
    }

    #[test]
    fn hypercube_exponent_is_one() {
        let machine = m();
        let w = Workload::new(2, &Stencil::five_point(), PartitionShape::Square);
        let e = fit_scaling_exponent(&SIDES, |n| hypercube_speedup(&machine, &w.scaled_to(n)));
        assert!((e - 1.0).abs() < 1e-6, "exponent {e}");
    }

    #[test]
    fn sync_bus_exponent_is_one_third() {
        let machine = m();
        let w = Workload::new(2, &Stencil::five_point(), PartitionShape::Square);
        let e = fit_scaling_exponent(&SIDES, |n| sync_bus_speedup(&machine, &w.scaled_to(n)));
        assert!((e - 1.0 / 3.0).abs() < 1e-6, "exponent {e}");
    }

    #[test]
    fn async_bus_same_exponent_better_constant() {
        let machine = m();
        let w = Workload::new(2, &Stencil::five_point(), PartitionShape::Square);
        let ea = fit_scaling_exponent(&SIDES, |n| async_bus_speedup(&machine, &w.scaled_to(n)));
        assert!((ea - 1.0 / 3.0).abs() < 1e-6);
        for n in SIDES {
            let wn = w.scaled_to(n);
            let ratio = async_bus_speedup(&machine, &wn) / sync_bus_speedup(&machine, &wn);
            assert!((ratio - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn switching_exponent_just_under_one() {
        let machine = m();
        let w = Workload::new(2, &Stencil::five_point(), PartitionShape::Square);
        let e = fit_scaling_exponent(&SIDES, |n| switching_speedup(&machine, &w.scaled_to(n)));
        assert!(e > 0.85 && e < 1.0, "exponent {e}");
    }

    #[test]
    fn buses_sit_at_the_bottom_for_large_grids() {
        // §1/§8: "bus networks are unsuited for large numerical problems".
        let machine = m();
        let rows = rows(&machine, 4096, &Stencil::five_point());
        let s: Vec<f64> = rows.iter().map(|r| r.optimal_speedup).collect();
        assert!(s[0] > s[2], "hypercube ≤ async bus");
        assert!(s[3] > s[2], "switching network ≤ async bus");
        assert!(s[2] > s[1], "async ≤ sync bus");
    }

    #[test]
    fn hypercube_vs_banyan_is_decided_by_constants_not_the_log() {
        // §1: "While hypercubes give better asymptotic optimal speedup than
        // banyan networks, the true difference for grid sizes used in
        // practice will not depend on the banyan network's log factor, but
        // on the relative speeds of the communication networks." With the
        // default ms-scale message startup the banyan wins at practical n;
        // with startup-free messaging the hypercube wins everywhere.
        let machine = m();
        let w = Workload::new(2, &Stencil::five_point(), PartitionShape::Square);
        for n in [256usize, 1024, 4096] {
            let wn = w.scaled_to(n);
            assert!(
                switching_speedup(&machine, &wn) > hypercube_speedup(&machine, &wn),
                "n={n}: startup-burdened hypercube should lose at practical sizes"
            );
        }
        let mut cheap_messages = machine;
        cheap_messages.hypercube.beta = 0.0;
        cheap_messages.hypercube.alpha = machine.switch.w; // one word ≈ one switch hop
        for n in [256usize, 1024, 4096] {
            let wn = w.scaled_to(n);
            assert!(
                hypercube_speedup(&cheap_messages, &wn) > switching_speedup(&cheap_messages, &wn),
                "n={n}: with matched network speeds the log factor decides for the hypercube"
            );
        }
    }

    #[test]
    fn exponent_fit_recovers_known_slope() {
        let e = fit_scaling_exponent(&SIDES, |n| ((n * n) as f64).powf(0.42));
        assert!((e - 0.42).abs() < 1e-9);
    }
}

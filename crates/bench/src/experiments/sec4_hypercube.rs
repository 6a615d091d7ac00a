//! E6 — §4: hypercube behaviour.
//!
//! Three claims reproduced: (1) cycle time is monotone decreasing in the
//! processor count, so allocation is extremal; (2) at fixed points per
//! processor the cycle time is constant and speedup is linear in `n²`;
//! (3) with `N` fixed, speedup approaches `N` as the problem grows. Each
//! model row is paired with the event-level simulation.

use crate::report::{secs, Report, Table};
use parspeed_arch::{IterationSpec, NeighborExchangeSim};
use parspeed_core::{ArchModel, Hypercube, MachineParams, ProcessorBudget, Workload};
use parspeed_grid::RectDecomposition;
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates the §4 hypercube analyses.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let cube = Hypercube::new(&m);
    let stencil = Stencil::five_point();
    let mut out = Report::default();

    // (1) Monotone cycle time, model and simulation side by side.
    let n = 256usize;
    let w = Workload::new(n, &stencil, PartitionShape::Square);
    let mut t = Table::new(
        "Cycle time vs processors (n = 256, squares): decreasing ⇒ extremal allocation",
        &["P", "model t_cycle", "sim t_cycle", "model speedup"],
    );
    let sim = NeighborExchangeSim::hypercube(&m);
    for q in [2usize, 4, 8, 16] {
        let p = q * q;
        let model = cube.cycle_time(&w, w.points() / p as f64);
        let spec = IterationSpec::new(&RectDecomposition::new(n, q, q), &stencil);
        let simulated = sim.simulate(&spec).cycle_time;
        t.row(vec![
            p.to_string(),
            secs(model),
            secs(simulated),
            format!("{:.1}", cube.speedup_at(&w, w.points() / p as f64)),
        ]);
    }
    out.table("e6_hypercube_monotone.csv", &t);

    // Extremal allocation across problem sizes.
    let mut extremal = Table::new(
        "Optimal allocation is extremal: 1 processor or all of them",
        &["n", "budget N", "optimal P", "speedup"],
    );
    for (nn, budget) in [(8usize, 64usize), (64, 64), (1024, 256)] {
        let w = Workload::new(nn, &stencil, PartitionShape::Square);
        let opt = cube.optimize(&w, ProcessorBudget::Limited(budget));
        extremal.row(vec![
            nn.to_string(),
            budget.to_string(),
            opt.processors.to_string(),
            format!("{:.1}", opt.speedup),
        ]);
    }
    out.text.push_str(&extremal.render());

    // (2) Fixed F ⇒ constant cycle, linear speedup.
    let mut scaled = Table::new(
        "Machine grows with the problem (F = 64 points/processor)",
        &["n", "cycle time", "speedup", "speedup / n²"],
    );
    let sides: &[usize] = if quick { &[256, 1024] } else { &[256, 512, 1024, 2048, 4096] };
    for &nn in sides {
        let w = Workload::new(nn, &stencil, PartitionShape::Square);
        let c = cube.scaled_cycle(&w, 64.0);
        let s = cube.scaled_speedup(&w, 64.0);
        scaled.row(vec![
            nn.to_string(),
            secs(c),
            format!("{s:.0}"),
            format!("{:.3e}", s / (nn * nn) as f64),
        ]);
    }
    out.table("e6_hypercube_scaled.csv", &scaled);
    out.text.push_str("Constant cycle time and constant speedup/n² certify the linear law.\n\n");

    // (3) Fixed N: speedup → N.
    let mut fixed = Table::new(
        "Fixed machine N = 64: speedup approaches N as n² grows",
        &["n", "speedup (strips)", "speedup (squares)"],
    );
    for &nn in if quick { &[256usize, 4096][..] } else { &[256usize, 1024, 4096, 16384][..] } {
        let ws = Workload::new(nn, &stencil, PartitionShape::Strip);
        let wq = Workload::new(nn, &stencil, PartitionShape::Square);
        fixed.row(vec![
            nn.to_string(),
            format!("{:.2}", cube.speedup_at(&ws, ws.points() / 64.0)),
            format!("{:.2}", cube.speedup_at(&wq, wq.points() / 64.0)),
        ]);
    }
    out.text.push_str(&fixed.render());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn covers_all_three_claims() {
        let r = super::run(true).text;
        assert!(r.contains("extremal"));
        assert!(r.contains("F = 64"));
        assert!(r.contains("approaches N"));
    }

    #[test]
    fn csv_shows_extremal_allocation_and_constant_scaled_cycles() {
        use crate::experiments::csv::series;
        let r = super::run(true);
        let m = series(&r, "e6_hypercube_monotone.csv");
        let (cycle, speedup) = (m.numbers("model t_cycle"), m.numbers("model speedup"));
        for i in 1..m.rows.len() {
            assert!(cycle[i] < cycle[i - 1] && speedup[i] > speedup[i - 1], "{:?}", m.rows[i]);
        }
        // At fixed points per processor every grid runs the same cycle, so
        // speedup is linear in n².
        let s = series(&r, "e6_hypercube_scaled.csv");
        for column in ["cycle time", "speedup / n²"] {
            let cells = s.column(column);
            assert!(cells.iter().all(|c| *c == cells[0]), "{column}: {cells:?}");
        }
    }
}

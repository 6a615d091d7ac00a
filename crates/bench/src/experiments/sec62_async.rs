//! E11 — §6.2: asynchronous bus.
//!
//! Posted writes buy a constant factor, never a better exponent: ×√2 for
//! strips, ×1.5 for squares; the optimal strip area shrinks by √2 while
//! the square optimum is unchanged; full read/write overlap buys a further
//! ×1.26 (squares) / ×√2 (strips). Model numbers beside the processor-
//! sharing bus simulation.

use crate::report::{secs, Report, Table};
use parspeed_arch::{AsyncBusSim, IterationSpec, SyncBusSim};
use parspeed_core::{ArchModel, AsyncBus, MachineParams, OverlapMode, SyncBus, Workload};
use parspeed_grid::StripDecomposition;
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates the asynchronous-bus analysis.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let sync = SyncBus::new(&m);
    let async_ = AsyncBus::new(&m);
    let full = AsyncBus::with_mode(&m, OverlapMode::ReadsAndWrites);
    let mut out = Report::default();

    let mut t = Table::new(
        "Optimal speedup, processors unbounded (5-point)",
        &[
            "n",
            "shape",
            "sync",
            "async",
            "ratio (paper √2 / 1.5)",
            "full overlap",
            "extra (paper √2 / 1.26)",
        ],
    );
    for &n in if quick { &[256usize, 1024][..] } else { &[256usize, 512, 1024, 2048][..] } {
        for shape in [PartitionShape::Strip, PartitionShape::Square] {
            let w = Workload::new(n, &Stencil::five_point(), shape);
            let s = sync.optimal_speedup_unbounded(&w);
            let a = async_.optimal_speedup_unbounded(&w);
            let f = full.optimal_speedup_unbounded(&w);
            t.row(vec![
                n.to_string(),
                shape.name().into(),
                format!("{s:.2}"),
                format!("{a:.2}"),
                format!("{:.4}", a / s),
                format!("{f:.2}"),
                format!("{:.4}", f / a),
            ]);
        }
    }
    out.table("e11_async_ratios.csv", &t);

    // Optimal-area relationship.
    let w = Workload::new(1024, &Stencil::five_point(), PartitionShape::Strip);
    let a_sync = sync.optimal_strip_area(&w);
    let a_async = async_.optimal_area(&w);
    out.text.push_str(&format!(
        "Optimal strip areas at n=1024: sync {a_sync:.0}, async {a_async:.0} — ratio\n\
         {:.4} (paper: exactly √2 ≈ 1.4142).\n\n",
        a_sync / a_async
    ));

    // Simulation cross-check near the async optimum.
    let n = 256usize;
    let wq = Workload::new(n, &Stencil::five_point(), PartitionShape::Strip);
    let p = ((n * n) as f64 / async_.optimal_area(&wq)).round() as usize;
    let p = p.clamp(2, n);
    let d = StripDecomposition::new(n, p);
    let spec = IterationSpec::new(&d, &Stencil::five_point());
    let sim_sync = SyncBusSim::new(&m).simulate(&spec).cycle_time;
    let sim_async = AsyncBusSim::new(&m).simulate(&spec).cycle_time;
    let mut t2 = Table::new(
        format!("Processor-sharing bus simulation at the async optimum (n=256, P={p})"),
        &["machine", "model t_cycle", "simulated t_cycle"],
    );
    t2.row(vec![
        "synchronous".into(),
        secs(sync.cycle_time(&wq, wq.points() / p as f64)),
        secs(sim_sync),
    ]);
    t2.row(vec![
        "asynchronous".into(),
        secs(async_.cycle_time(&wq, wq.points() / p as f64)),
        secs(sim_async),
    ]);
    out.table("e11_async_sim.csv", &t2);
    out.text.push_str(
        "The asynchronous machine hides the write phase under computation in\n\
         both the algebra and the event-level simulation; the exponent of\n\
         the speedup law is unchanged (§6.2's closing observation).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn shows_constant_factors() {
        let r = super::run(true).text;
        assert!(r.contains("1.5000"));
        assert!(r.contains("1.4142"));
        assert!(r.contains("1.2599"));
    }

    #[test]
    fn csv_posted_writes_buy_the_same_factor_at_every_size() {
        use crate::experiments::csv::series;
        let r = super::run(true);
        let s = series(&r, "e11_async_ratios.csv");
        let ratio = s.numbers("ratio (paper √2 / 1.5)");
        let extra = s.numbers("extra (paper √2 / 1.26)");
        for (i, shape) in s.column("shape").into_iter().enumerate() {
            let (want_ratio, want_extra) = match shape {
                "strip" => (std::f64::consts::SQRT_2, std::f64::consts::SQRT_2),
                "square" => (1.5, 2f64.cbrt()),
                other => panic!("unknown shape {other}"),
            };
            assert!((ratio[i] - want_ratio).abs() <= 5e-5, "{:?}", s.rows[i]);
            assert!((extra[i] - want_extra).abs() <= 5e-5, "{:?}", s.rows[i]);
        }
        let sim = series(&r, "e11_async_sim.csv");
        assert_eq!(sim.column("machine"), ["synchronous", "asynchronous"]);
        let cycle = sim.numbers("simulated t_cycle");
        assert!(cycle[1] < cycle[0], "{cycle:?}");
    }
}

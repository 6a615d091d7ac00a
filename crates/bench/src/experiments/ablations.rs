//! E17 — ablations of the reproduction's own design choices.
//!
//! Three knobs the paper fixes without exploring, each varied here:
//!
//! 1. **The working-rectangle 5% rule** (§3): sweep the perimeter
//!    tolerance and watch the trade — a tighter rule leaves too few
//!    achievable areas (the optimizer must round further, Fig-6 area error
//!    grows), a looser rule admits slab-like partitions whose true
//!    perimeter betrays the square-partition cost model.
//! 2. **Speedup over the whole (n, N) plane**: the paper plots slices
//!    (Fig 7 fixes the optimum, Fig 8 fixes the machine); the contour map
//!    shows both regimes and the ridge between them at once.
//! 3. **Mesh combine hardware** (§5): convergence-check dissemination
//!    priced with and without the FEM-style global-combine circuitry, at
//!    the §4-recommended optimal checking period.

use crate::report::{Report, Table};
use parspeed_core::convergence::{ConvergenceModel, Dissemination};
use parspeed_core::{ArchModel, MachineParams, ProcessorBudget, SyncBus, Workload};
use parspeed_grid::WorkingRectangles;
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates the ablation studies.
pub fn run(quick: bool) -> Report {
    let mut out = tolerance_ablation(quick);
    out.append(speedup_contours(quick));
    out.append(combine_hardware_ablation());
    out
}

/// Ablation 1: the 5% squareness rule.
fn tolerance_ablation(quick: bool) -> Report {
    let n = 256usize;
    let m = MachineParams::paper_defaults();
    let bus = SyncBus::new(&m);
    let w = Workload::new(n, &Stencil::five_point(), PartitionShape::Square);
    // The continuous optimum the catalogue must approximate.
    let a_star = bus.closed_form_optimal_area(&w).expect("bus optimum exists");

    let mut t = Table::new(
        format!("Working-rectangle tolerance ablation (n={n}, A* = {a_star:.0})"),
        &[
            "tolerance",
            "areas kept",
            "median area err",
            "max area err",
            "worst squareness",
            "worst cycle penalty",
        ],
    );
    let tolerances: &[f64] =
        if quick { &[0.0, 0.05, 0.20] } else { &[0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50] };
    // Cycle time of a materialized rectangle charged its TRUE perimeter
    // (the model charges a square's `4√A·k` words one way; a rectangle of
    // the same area moves `perimeter·k`).
    let real_cycle = |r: &parspeed_grid::WorkingRect| -> f64 {
        let p_procs = w.points() / r.area() as f64;
        let comp = w.e_flops * r.area() as f64 * m.tfp;
        let one_way = r.perimeter() as f64 * w.k as f64;
        comp + 2.0 * one_way * (m.bus.c + m.bus.b * p_procs)
    };
    for &tol in tolerances {
        let cat = WorkingRectangles::with_tolerance(n, tol);
        // Fig-6 style error sweep, tracking the end-to-end cost of the
        // substitution: the catalogue's choice for target area A, at its
        // true perimeter, against the ideal square of area A.
        let mut errs: Vec<f64> = Vec::new();
        let mut worst_penalty = f64::NEG_INFINITY;
        let mut a = 1024usize;
        while a <= 16384 {
            if let (Some(e), Some(r)) = (cat.area_error(a), cat.closest(a)) {
                errs.push(e);
                let penalty = real_cycle(&r) / bus.cycle_time(&w, a as f64) - 1.0;
                worst_penalty = worst_penalty.max(penalty);
            }
            a += 64;
        }
        errs.sort_by(f64::total_cmp);
        let median = errs.get(errs.len() / 2).copied().unwrap_or(f64::NAN);
        let max = errs.last().copied().unwrap_or(f64::NAN);
        let worst_sq = cat.all().iter().map(|r| r.squareness()).fold(0.0, f64::max);
        t.row(vec![
            format!("{:.0}%", tol * 100.0),
            cat.all().len().to_string(),
            format!("{:.1}%", median * 100.0),
            format!("{:.1}%", max * 100.0),
            format!("{:.1}%", worst_sq * 100.0),
            format!("{:+.2}%", worst_penalty * 100.0),
        ]);
    }
    let mut s = Report::default();
    s.table("e17_tolerance_ablation.csv", &t);
    s.text.push_str(
        "Tighter rules shrink the catalogue until the optimizer cannot land\n\
         near the target area and the rounding penalty dominates (+38% with\n\
         only true squares); loosening past ~10% buys nothing — the worst\n\
         penalty bottoms out and creeps back up as slab-like survivors\n\
         betray the square cost model. The paper's 5% sits at the knee.\n\n",
    );
    s
}

/// Ablation 2: speedup contours over the (n, N) plane.
fn speedup_contours(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let bus = SyncBus::new(&m);
    let ns: Vec<usize> =
        if quick { vec![64, 256, 1024] } else { vec![32, 64, 128, 256, 512, 1024, 2048, 4096] };
    let procs: Vec<usize> =
        if quick { vec![4, 16, 64] } else { vec![2, 4, 8, 16, 32, 64, 128, 256] };

    let headers: Vec<String> =
        std::iter::once("N \\ n".to_string()).chain(ns.iter().map(|n| n.to_string())).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new("Sync-bus optimal speedup over (n, N), squares (5-point)", &header_refs);
    for &cap in &procs {
        let mut row = vec![cap.to_string()];
        for &n in &ns {
            let w = Workload::new(n, &Stencil::five_point(), PartitionShape::Square);
            let opt = bus.optimize(&w, ProcessorBudget::Limited(cap));
            // Mark the regime: '*' when the optimum leaves processors idle
            // (the machine is oversized for the problem, Fig 7's region).
            let mark = if opt.used_all { "" } else { "*" };
            row.push(format!("{:.1}{mark}", opt.speedup));
        }
        t.row(row);
    }
    let mut s = Report::default();
    s.table("e17_speedup_contours.csv", &t);
    s.text.push_str(
        "Rows: machine size N; columns: grid side n; '*' marks allocations\n\
         that leave processors idle. The ridge where '*' appears is Fig 7's\n\
         minimal-problem-size curve cutting across the plane; below it,\n\
         speedup tracks N (Fig 8's saturated regime); above it, speedup is\n\
         capped by contention no matter how many processors are offered.\n\n",
    );
    s
}

/// Ablation 3: mesh combine hardware for convergence checks (§5).
fn combine_hardware_ablation() -> Report {
    let m = MachineParams::paper_defaults();
    let n = 256usize;
    let w = Workload::new(n, &Stencil::five_point(), PartitionShape::Square);
    // A Jacobi solve at this size needs iterations ~ O(n² ln n); use the
    // standard estimate for the error-reduction count.
    let iters = (2.0 * (n as f64 / std::f64::consts::PI).powi(2) * (1e8f64).ln()) as usize;

    let mut t = Table::new(
        format!("Convergence dissemination on the mesh (n={n}, ~{iters} iterations)"),
        &["P", "software combine: d*", "overhead", "combine hardware: d*", "overhead"],
    );
    for p in [16usize, 64, 256, 1024] {
        let area = w.points() / p as f64;
        let cycle = w.e_flops * area * m.tfp; // mesh compute-dominated cycle
        let software = ConvergenceModel {
            check_flops: 3.0,
            tfp: m.tfp,
            dissemination: Dissemination::MeshSoftware(m.mesh),
        };
        let hardware = ConvergenceModel {
            check_flops: 3.0,
            tfp: m.tfp,
            dissemination: Dissemination::CombineHardware,
        };
        let d_sw = software.optimal_period(iters, cycle, area, p);
        let d_hw = hardware.optimal_period(iters, cycle, area, p);
        t.row(vec![
            p.to_string(),
            d_sw.to_string(),
            format!("{:.2}%", 100.0 * software.overhead_fraction(iters, cycle, area, p, d_sw)),
            d_hw.to_string(),
            format!("{:.2}%", 100.0 * hardware.overhead_fraction(iters, cycle, area, p, d_hw)),
        ]);
    }
    let mut s = Report::default();
    s.table("e17_combine_hardware.csv", &t);
    s.text.push_str(
        "With combine hardware the optimal period and overhead are independent\n\
         of P — only the local pass costs anything (§5: the overhead 'does\n\
         not appear to be as significant a concern'); software combining must\n\
         check ever more sparsely as P grows and still pays more.\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_table_shows_the_knee() {
        let r = tolerance_ablation(false).text;
        assert!(r.contains("5%"), "{r}");
        assert!(r.contains("50%"), "{r}");
    }

    #[test]
    fn contours_mark_both_regimes() {
        let r = speedup_contours(true).text;
        assert!(r.contains('*'), "some allocation must leave processors idle: {r}");
        // The largest machine on the smallest grid must be starred; the
        // smallest machine on the largest grid must not.
        let lines: Vec<&str> = r.lines().collect();
        let first_data = lines.iter().position(|l| l.trim_start().starts_with('4')).unwrap();
        assert!(!lines[first_data].split_whitespace().last().unwrap().contains('*'), "{r}");
    }

    #[test]
    fn hardware_combining_is_p_independent_and_cheaper() {
        let r = combine_hardware_ablation().text;
        // Data rows: P, d*_software, overhead_sw, d*_hardware, overhead_hw.
        let rows: Vec<Vec<&str>> = r
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert!(rows.len() >= 3, "{r}");
        let hw_period = rows[0][3];
        for row in &rows {
            assert_eq!(row[3], hw_period, "hardware d* must not depend on P: {r}");
            assert_eq!(row[4], rows[0][4], "hardware overhead must not depend on P: {r}");
            let sw: f64 = row[2].trim_end_matches('%').parse().unwrap();
            let hw: f64 = row[4].trim_end_matches('%').parse().unwrap();
            assert!(hw <= sw, "hardware combining must never lose: {r}");
        }
    }

    #[test]
    fn tolerance_csv_trades_catalogue_size_for_squareness() {
        use crate::experiments::csv::series;
        let s = series(&tolerance_ablation(true), "e17_tolerance_ablation.csv");
        let tolerance = s.numbers("tolerance");
        let kept = s.numbers("areas kept");
        let worst = s.numbers("worst squareness");
        let (max_err, penalty) = (s.numbers("max area err"), s.numbers("worst cycle penalty"));
        for i in 0..s.rows.len() {
            assert!(worst[i] <= tolerance[i], "{:?}", s.rows[i]);
            if i > 0 {
                assert!(kept[i] > kept[i - 1] && max_err[i] < max_err[i - 1], "{:?}", s.rows[i]);
            }
        }
        // True squares alone pay the worst rounding penalty.
        assert_eq!(tolerance[0], 0.0);
        assert!(penalty[1..].iter().all(|p| *p < penalty[0]), "{penalty:?}");
    }

    #[test]
    fn contours_csv_saturates_once_processors_sit_idle() {
        use crate::experiments::csv::num;
        let s =
            crate::experiments::csv::series(&speedup_contours(true), "e17_speedup_contours.csv");
        for col in 1..s.header.len() {
            let cells: Vec<&str> = s.rows.iter().map(|row| row[col].as_str()).collect();
            // Once the optimum leaves processors idle, a bigger machine
            // adds nothing: every larger N is starred at the same speedup.
            if let Some(first) = cells.iter().position(|c| c.ends_with('*')) {
                assert!(cells[first..].iter().all(|c| *c == cells[first]), "n = {}", s.header[col]);
            }
            assert!(cells.windows(2).all(|w| num(w[1]) >= num(w[0])), "n = {}", s.header[col]);
        }
        for row in &s.rows {
            assert!(row[1..].windows(2).all(|w| num(&w[1]) >= num(&w[0])), "N = {}", row[0]);
        }
    }
}

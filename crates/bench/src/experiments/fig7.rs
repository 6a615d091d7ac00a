//! E3 — Figure 7: minimal problem size that gainfully uses all N
//! processors, as a function of N.
//!
//! Three curves per stencil, in the paper's panel order: (a) synchronous
//! bus + strips, (b) asynchronous bus + strips, (c) synchronous bus +
//! squares. Ordinate is `log₂(n²)`; the paper's axis spans ≈ 8…24 over
//! N = 4…24. Closed forms from `parspeed-core::minsize`, cross-checked
//! against the integer optimizer.

use crate::report::{ascii_chart, Report, Series, Table};
use parspeed_core::minsize::{
    min_grid_side, min_grid_side_verified, min_problem_size_log2, BusVariant,
};
use parspeed_core::MachineParams;
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates Fig 7 for the 5-point and 9-point stencils.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let mut out = Report::default();
    let variants = [BusVariant::SyncStrip, BusVariant::AsyncStrip, BusVariant::SyncSquare];
    let markers = ['a', 'b', 'c'];

    for stencil in [Stencil::five_point(), Stencil::nine_point_box()] {
        let e = stencil.calibrated_e().unwrap();
        let mut table = Table::new(
            format!("Fig 7 — minimal log₂(n²) using all N processors ({})", stencil.name()),
            &["N", "(a) sync strip", "(b) async strip", "(c) sync square"],
        );
        let mut series: Vec<Series> = variants
            .iter()
            .zip(markers)
            .map(|(v, mk)| Series { label: v.label().into(), marker: mk, points: vec![] })
            .collect();
        for n_procs in (4..=24).step_by(2) {
            let k = |shape| stencil.perimeters(shape) as f64;
            let vals: Vec<f64> = variants
                .iter()
                .map(|&v| {
                    let kk = match v {
                        BusVariant::SyncStrip | BusVariant::AsyncStrip => k(PartitionShape::Strip),
                        _ => k(PartitionShape::Square),
                    };
                    min_problem_size_log2(&m, e, kk, n_procs, v)
                })
                .collect();
            for (s, v) in series.iter_mut().zip(&vals) {
                s.points.push((n_procs as f64, *v));
            }
            table.row(vec![
                n_procs.to_string(),
                format!("{:.2}", vals[0]),
                format!("{:.2}", vals[1]),
                format!("{:.2}", vals[2]),
            ]);
        }
        out.table(format!("e3_fig7_{}.csv", stencil.name().replace([' ', '-'], "_")), &table);
        out.text.push_str(&ascii_chart(
            &format!("Fig 7 ({}) — log₂(n²) vs N", stencil.name()),
            &series,
            64,
            14,
        ));
        out.text.push('\n');
    }

    // Paper anchor: 256×256 with squares should saturate at 14 (5-point)
    // and 22 (9-point) processors.
    let mut anchors = Table::new(
        "Anchor check: N that makes n_min = 256 (paper: 14 and 22)",
        &["stencil", "closed-form n_min(N)", "N solving n_min = 256"],
    );
    for (stencil, paper_n) in [(Stencil::five_point(), 14.0), (Stencil::nine_point_box(), 22.0)] {
        let e = stencil.calibrated_e().unwrap();
        // Invert n = 4kbN^{3/2}/(E·Tfp).
        let n_solving = (256.0 * e * m.tfp / (4.0 * 1.0 * m.bus.b)).powf(2.0 / 3.0);
        anchors.row(vec![
            stencil.name().into(),
            format!("{:.1}", min_grid_side(&m, e, 1.0, paper_n as usize, BusVariant::SyncSquare)),
            format!("{n_solving:.1} (paper: {paper_n})"),
        ]);
    }
    out.text.push_str(&anchors.render());

    if !quick {
        let mut verify = Table::new(
            "Closed form vs integer-optimizer verification (5-point)",
            &["variant", "N", "closed-form n_min", "verified n_min"],
        );
        for (v, np) in [
            (BusVariant::SyncSquare, 8usize),
            (BusVariant::SyncSquare, 14),
            (BusVariant::AsyncSquare, 8),
            (BusVariant::SyncStrip, 8),
        ] {
            let closed = min_grid_side(&m, 6.0, 1.0, np, v);
            let verified = min_grid_side_verified(&m, 6.0, 1, np, v);
            verify.row(vec![
                v.label().into(),
                np.to_string(),
                format!("{closed:.0}"),
                verified.to_string(),
            ]);
        }
        out.text.push_str(&verify.render());
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_has_both_stencil_panels() {
        let r = super::run(true).text;
        assert!(r.contains("5-point"));
        assert!(r.contains("9-point box"));
        assert!(r.contains("paper: 14"));
    }

    #[test]
    fn csv_curves_keep_the_paper_order_at_every_machine_size() {
        use crate::experiments::csv::series;
        let r = super::run(true);
        let five = series(&r, "e3_fig7_5_point.csv");
        let nine = series(&r, "e3_fig7_9_point_box.csv");
        let curves = ["(a) sync strip", "(b) async strip", "(c) sync square"];
        let sizes: Vec<f64> = (4..=24).step_by(2).map(f64::from).collect();
        for s in [&five, &nine] {
            assert_eq!(s.numbers("N"), sizes);
            let [a, b, c] = curves.map(|curve| s.numbers(curve));
            for i in 0..sizes.len() {
                // Posted writes and square partitions each let a smaller
                // grid keep all N processors busy.
                assert!(b[i] < a[i] && c[i] < a[i], "N = {}", sizes[i]);
                // The asynchronous bus buys a constant factor, not an
                // exponent: a fixed shift of the strip curve in log₂(n²).
                assert!(((a[i] - b[i]) - (a[0] - b[0])).abs() <= 0.011, "N = {}", sizes[i]);
                if i > 0 {
                    for curve in [&a, &b, &c] {
                        assert!(curve[i] > curve[i - 1], "N = {}", sizes[i]);
                    }
                }
            }
        }
        // More work per point amortises the same one perimeter: the 9-point
        // box needs a smaller grid on every curve.
        for curve in curves {
            for (box9, five) in nine.numbers(curve).into_iter().zip(five.numbers(curve)) {
                assert!(box9 < five, "{curve}");
            }
        }
    }
}

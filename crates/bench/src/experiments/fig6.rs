//! E2 — Figure 6: working-rectangle approximation errors.
//!
//! For a 256×256 grid (and companions), sweep every even target area `A`
//! in `[1024, 16384]` (decompositions of 4–64 processors), pick the
//! working rectangle with the closest area, and report the relative
//! errors in area (Fig 6a) and perimeter (Fig 6b). The paper reads the bar
//! graphs as "usually less than 3% for area and less than 6% for
//! perimeter"; the coverage holes between divisor-width bands produce the
//! tall bars.

use crate::report::{ascii_chart, pct, Report, Series, Table};
use parspeed_grid::WorkingRectangles;

struct ErrStats {
    max: f64,
    median: f64,
    frac_under: f64,
}

fn stats(errs: &mut [f64], bar: f64) -> ErrStats {
    errs.sort_by(f64::total_cmp);
    let max = *errs.last().unwrap();
    let median = errs[errs.len() / 2];
    let under = errs.iter().filter(|e| **e < bar).count();
    ErrStats { max, median, frac_under: under as f64 / errs.len() as f64 }
}

/// Regenerates Fig 6 for n = 256 (full sweep) plus summary rows for other
/// grid sizes the paper mentions (128, 512, 1024).
pub fn run(quick: bool) -> Report {
    let mut out = Report::default();

    // Full Fig-6 sweep on 256².
    let w = WorkingRectangles::new(256);
    let mut rows = Table::new(
        "Fig 6 raw series (n = 256, every even A in [1024, 16384])",
        &["A", "area_err", "perimeter_err"],
    );
    let mut area_errs = Vec::new();
    let mut per_errs = Vec::new();
    let mut area_pts = Vec::new();
    let mut per_pts = Vec::new();
    let mut a = 1024usize;
    while a <= 16384 {
        let ae = w.area_error(a).unwrap();
        let pe = w.perimeter_error(a).unwrap();
        rows.row(vec![a.to_string(), format!("{ae:.5}"), format!("{pe:.5}")]);
        area_pts.push((a as f64, ae));
        per_pts.push((a as f64, pe));
        area_errs.push(ae);
        per_errs.push(pe);
        a += 2;
    }
    // Charted, not tabulated: the raw series goes to CSV only.
    out.csv.push(("e2_fig6_n256.csv".into(), rows.to_csv()));

    out.text.push_str(&ascii_chart(
        "Fig 6a — relative area error vs target A (n = 256)",
        &[Series { label: "area error".into(), marker: '|', points: area_pts }],
        72,
        12,
    ));
    out.text.push('\n');
    out.text.push_str(&ascii_chart(
        "Fig 6b — relative perimeter error vs target A (n = 256)",
        &[Series { label: "perimeter error".into(), marker: '|', points: per_pts }],
        72,
        12,
    ));
    out.text.push('\n');

    let sa = stats(&mut area_errs, 0.03);
    let sp = stats(&mut per_errs, 0.06);
    let mut summary = Table::new(
        "Fig 6 summary vs paper's reading",
        &["metric", "median", "max", "share under paper bar", "paper"],
    );
    summary.row(vec![
        "area error".into(),
        pct(sa.median),
        pct(sa.max),
        format!("{} under 3%", pct(sa.frac_under)),
        "usually < 3%".into(),
    ]);
    summary.row(vec![
        "perimeter error".into(),
        pct(sp.median),
        pct(sp.max),
        format!("{} under 6%", pct(sp.frac_under)),
        "usually < 6%".into(),
    ]);
    out.text.push_str(&summary.render());

    // Companion grids: "similar results were obtained for 128×128, 512×512
    // and 1024×1024 size grids."
    let sides: &[usize] = if quick { &[128] } else { &[128, 512, 1024] };
    let mut companions = Table::new(
        "Companion grids (same A-range scaled by (n/256)²)",
        &["n", "median area err", "median perim err", "share under 3%/6%"],
    );
    for &n in sides {
        let w = WorkingRectangles::new(n);
        let scale = (n * n) as f64 / (256.0 * 256.0);
        let (lo, hi) = ((1024.0 * scale) as usize, (16384.0 * scale) as usize);
        let mut ae = Vec::new();
        let mut pe = Vec::new();
        let step = ((hi - lo) / 2000).max(2);
        let mut a = lo;
        while a <= hi {
            ae.push(w.area_error(a).unwrap());
            pe.push(w.perimeter_error(a).unwrap());
            a += step;
        }
        let sa = stats(&mut ae, 0.03);
        let sp = stats(&mut pe, 0.06);
        companions.row(vec![
            n.to_string(),
            pct(sa.median),
            pct(sp.median),
            format!("{} / {}", pct(sa.frac_under), pct(sp.frac_under)),
        ]);
    }
    out.table("e2_fig6_companions.csv", &companions);
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_reproduces_paper_reading() {
        let r = super::run(true).text;
        assert!(r.contains("Fig 6a"));
        assert!(r.contains("usually < 3%"));
    }

    #[test]
    fn raw_csv_covers_every_even_area_and_mostly_meets_the_paper_bars() {
        let s = crate::experiments::csv::series(&super::run(true), "e2_fig6_n256.csv");
        let areas: Vec<f64> = (1024..=16384).step_by(2).map(f64::from).collect();
        assert_eq!(s.numbers("A"), areas);
        // 1024 = 32², a 32×32 block per processor of an 8×8 array: exact.
        assert_eq!(s.rows[0], ["1024", "0.00000", "0.00000"]);
        let share_under = |column: &str, bar: f64| {
            let errs = s.numbers(column);
            errs.iter().filter(|e| **e < bar).count() as f64 / errs.len() as f64
        };
        // "Usually less than 3% for area and less than 6% for perimeter."
        assert!(share_under("area_err", 0.03) > 0.5);
        assert!(share_under("perimeter_err", 0.06) > 0.5);
    }
}

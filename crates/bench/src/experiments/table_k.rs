//! E1 — the §3 table of perimeter counts `k(Partition, Stencil)`.

use crate::report::{Report, Table};
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates the k-table, annotated with reach, tap counts and the two
/// `E(S)` accountings.
pub fn run(_quick: bool) -> Report {
    let mut t = Table::new(
        "k(Partition, Stencil) — paper §3",
        &[
            "stencil",
            "taps",
            "reach",
            "diag?",
            "k(strip)",
            "k(square)",
            "E natural",
            "E calibrated",
        ],
    );
    for s in Stencil::catalog() {
        t.row(vec![
            s.name().to_string(),
            s.tap_count().to_string(),
            s.reach().to_string(),
            if s.has_diagonal() { "yes" } else { "no" }.to_string(),
            s.perimeters(PartitionShape::Strip).to_string(),
            s.perimeters(PartitionShape::Square).to_string(),
            format!("{:.0}", s.flops_per_point()),
            s.calibrated_e().map(|e| format!("{e:.0}")).unwrap_or_else(|| "-".into()),
        ]);
    }
    let mut out = Report::default();
    out.table("e1_table_k.csv", &t);
    out.text.push_str(
        "\nPaper values: 5-point and 9-point box communicate 1 perimeter;\n\
         the 9-point star and 13-point star communicate 2 (Fig. 3).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_all_stencils() {
        let r = super::run(true).text;
        for name in ["5-point", "9-point box", "9-point star", "13-point star"] {
            assert!(r.contains(name), "missing {name}");
        }
    }

    #[test]
    fn csv_counts_one_perimeter_per_ring_the_stencil_reaches() {
        let s = crate::experiments::csv::series(&super::run(true), "e1_table_k.csv");
        assert_eq!(
            s.column("stencil"),
            ["5-point", "9-point box", "9-point star", "13-point star"]
        );
        // §3: 1 perimeter for the 5-point and 9-point box, 2 for the stars,
        // whatever the partition shape.
        assert_eq!(s.column("k(strip)"), ["1", "1", "2", "2"]);
        assert_eq!(s.column("k(square)"), s.column("k(strip)"));
        assert_eq!(s.column("reach"), s.column("k(strip)"));
    }
}

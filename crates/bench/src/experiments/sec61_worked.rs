//! E9 — §6.1's worked example: N = 16, `E·Tfp = b`, `k = 1`, `c = 0`,
//! strips vs squares at n = 256 and n = 1024.
//!
//! The paper quotes strips 16/(1+512/n) and squares 16/(1+128/n) — values
//! consistent with counting *half* the boundary traffic of its own
//! eq. (2). We print both conventions: the full-volume column follows
//! eq. (2)/(5); the half-volume column reproduces the paper's quoted
//! numbers exactly.

use crate::report::{Report, Table};
use parspeed_core::{BusParams, SyncBus, Workload};
use parspeed_stencil::PartitionShape;

/// Regenerates the §6.1 worked example.
pub fn run(_quick: bool) -> Report {
    // E·Tfp = b with E = 1 for transparency.
    let b = 1.0e-6;
    let bus = SyncBus::with(b, BusParams::ideal(b));
    let n_procs = 16usize;

    let mut t = Table::new(
        "Worked example (N=16, E·Tfp=b, k=1, c=0)",
        &["n", "shape", "eq.(5) full volume", "half volume (paper's numbers)", "paper quotes"],
    );
    for &n in &[256usize, 1024] {
        for (shape, paper_coeff, quote) in [
            (PartitionShape::Strip, 512.0, if n == 256 { "4 [sic; see note]" } else { "10.6" }),
            (PartitionShape::Square, 128.0, if n == 256 { "10.6" } else { "14.2" }),
        ] {
            let w = Workload::with_constants(n, shape, 1.0, 1);
            let full = bus.all_n_speedup(&w, n_procs);
            let half = n_procs as f64 / (1.0 + paper_coeff / n as f64);
            t.row(vec![
                n.to_string(),
                shape.name().into(),
                format!("{full:.2}"),
                format!("{half:.2}"),
                quote.into(),
            ]);
        }
    }
    let mut out = Report::default();
    out.table("e9_worked_example.csv", &t);
    out.text.push_str(
        "\nNotes: the paper's in-text formulas 16/(1+512/n) and 16/(1+128/n)\n\
         correspond to 2nk words per strip iteration (half of eq. (2)'s 4nk)\n\
         and 4sk per square (half of 8sk); its 1024-grid values (10.6, 14.2)\n\
         match the half-volume column exactly. The n=256 strip value printed\n\
         as '4' in the scan is 5.33 by the paper's own formula — a typo.\n\
         Either convention shows the §6.1 qualitative claim: squares beat\n\
         strips, and both approach N as the grid grows.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn reproduces_paper_quotes() {
        let r = super::run(true).text;
        assert!(r.contains("10.6"));
        assert!(r.contains("14.2"));
        // Half-volume column values:
        assert!(r.contains("10.67") || r.contains("10.66"));
        assert!(r.contains("14.22") || r.contains("14.21"));
    }

    #[test]
    fn csv_full_volume_follows_eq_5_and_half_volume_the_quotes() {
        let s = crate::experiments::csv::series(&super::run(true), "e9_worked_example.csv");
        let (n, shape) = (s.numbers("n"), s.column("shape"));
        let full = s.numbers("eq.(5) full volume");
        let half = s.numbers("half volume (paper's numbers)");
        for i in 0..s.rows.len() {
            // Eq. (2)'s 4nk words per strip and 8sk per square, all 16
            // transfers serialised on the bus.
            let coeff = if shape[i] == "strip" { 1024.0 } else { 512.0 };
            assert!((full[i] - 16.0 / (1.0 + coeff / n[i])).abs() <= 0.005, "{:?}", s.rows[i]);
            if let Ok(quote) = s.column("paper quotes")[i].parse::<f64>() {
                assert!((half[i] - quote).abs() < 0.1, "{:?}", s.rows[i]);
            }
        }
    }
}

//! E16 — §4's mapping assumption: Gray-code embeddings on the hypercube.
//!
//! The hypercube analysis assumes logically adjacent partitions sit on
//! physically adjacent nodes "(at least with stencils having no
//! diagonals)". This experiment constructs that mapping, measures its
//! dilation, prices the alternatives (binary counting order, random
//! placement), and confirms the parenthetical: diagonal stencils dilate to
//! exactly 2.

use crate::report::{secs, Report, Table};
use parspeed_arch::{HypercubeEmbedding, IterationSpec, NeighborExchangeSim};
use parspeed_core::MachineParams;
use parspeed_grid::{RectDecomposition, StripDecomposition};
use parspeed_stencil::Stencil;

/// Regenerates the embedding analysis.
pub fn run(quick: bool) -> Report {
    let m = MachineParams::paper_defaults();
    let sim = NeighborExchangeSim::hypercube(&m);
    let mut out = Report::default();

    // Strip chains: dilation and simulated cycle per embedding.
    let n = 256usize;
    let mut t = Table::new(
        format!("Strip chain on the cube, n={n} (5-point)"),
        &["P", "embedding", "dilation", "mean hops", "cycle time"],
    );
    let ps: &[usize] = if quick { &[8, 12] } else { &[4, 8, 12, 16, 32, 64] };
    for &p in ps {
        let d = StripDecomposition::new(n, p);
        let spec = IterationSpec::new(&d, &Stencil::five_point());
        let embeddings: Vec<(&str, HypercubeEmbedding)> = vec![
            ("gray", HypercubeEmbedding::strip_chain(p)),
            ("binary order", HypercubeEmbedding::identity(p)),
            ("random", HypercubeEmbedding::random(p, 0x5EED)),
        ];
        for (name, emb) in &embeddings {
            let r = sim.simulate_embedded(&spec, emb);
            t.row(vec![
                p.to_string(),
                (*name).into(),
                emb.dilation(&spec).to_string(),
                format!("{:.2}", emb.mean_hops(&spec)),
                secs(r.cycle_time),
            ]);
        }
    }
    out.table("e16_embedding_strips.csv", &t);
    out.text.push_str(
        "The Gray chain is dilation-1 for every P (power of two or not);\n\
         binary counting order ripple-carries, random placement dilates to\n\
         about half the cube dimension, and both cost real cycle time.\n\n",
    );

    // The parenthetical: diagonal stencils on a Gray×Gray grid.
    let mut t2 = Table::new(
        "Grid of rectangles, Gray×Gray embedding (n=240)",
        &["blocks", "stencil", "dilation", "mean hops"],
    );
    for (pr, pc) in [(4usize, 4usize), (4, 6), (8, 8)] {
        if 240 % pc != 0 {
            continue;
        }
        let d = RectDecomposition::new(240, pr, pc);
        let emb = HypercubeEmbedding::grid(pr, pc);
        for stencil in [Stencil::five_point(), Stencil::nine_point_box()] {
            let spec = IterationSpec::new(&d, &stencil);
            t2.row(vec![
                format!("{pr}×{pc}"),
                stencil.name().into(),
                emb.dilation(&spec).to_string(),
                format!("{:.2}", emb.mean_hops(&spec)),
            ]);
        }
    }
    out.table("e16_embedding_diagonals.csv", &t2);
    out.text.push_str(
        "Axis-only stencils embed at dilation 1; box stencils' corner\n\
         exchanges cross a row bit and a column bit — dilation exactly 2,\n\
         the caveat the paper tucks into a parenthesis.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn embedding_report_shows_the_caveat() {
        let r = super::run(true).text;
        assert!(r.contains("gray"));
        assert!(r.contains("9-point box"));
        // A dilation-2 row must exist for the box stencil.
        assert!(r.lines().any(|l| l.contains("9-point box") && l.contains("  2  ")), "{r}");
    }

    #[test]
    fn csv_gray_code_is_adjacent_and_diagonals_dilate_to_two() {
        use crate::experiments::csv::series;
        let r = super::run(true);
        let s = series(&r, "e16_embedding_strips.csv");
        let (procs, embedding) = (s.column("P"), s.column("embedding"));
        let cycle = s.numbers("cycle time");
        for i in 0..s.rows.len() {
            if embedding[i] == "gray" {
                assert_eq!(s.rows[i][2..4], ["1", "1.00"], "{:?}", s.rows[i]);
                for j in (0..s.rows.len()).filter(|&j| j != i && procs[j] == procs[i]) {
                    assert!(cycle[i] < cycle[j], "{:?} vs {:?}", s.rows[i], s.rows[j]);
                }
            }
        }
        let d = series(&r, "e16_embedding_diagonals.csv");
        for (stencil, dilation) in d.column("stencil").into_iter().zip(d.column("dilation")) {
            let want = if stencil == "9-point box" { "2" } else { "1" };
            assert_eq!(dilation, want, "{stencil}");
        }
    }
}

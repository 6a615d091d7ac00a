//! The paper's `k(P, S)`: how many perimeters of boundary points a partition
//! must communicate per iteration (§3, Figure 3 and the accompanying table).
//!
//! A stencil of reach `r` needs the `r` rings of points just outside the
//! partition; equivalently the partition must *send* its own outermost `r`
//! rings. For a horizontal strip only vertical reach matters; for a square
//! both axes matter.

use crate::Stencil;

/// The two partition shapes the paper analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionShape {
    /// Full-width horizontal strips (paper Fig. 4).
    Strip,
    /// Square (or "working rectangle") blocks (paper Figs. 2 and 5).
    Square,
}

impl PartitionShape {
    /// The name tables print and the wire carries.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionShape::Strip => "strip",
            PartitionShape::Square => "square",
        }
    }

    /// Parses a wire or command-line name; the plurals are accepted too.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "strip" | "strips" => PartitionShape::Strip,
            "square" | "squares" => PartitionShape::Square,
            other => return Err(format!("unknown shape `{other}`; one of: strip, square")),
        })
    }

    /// Both shapes, in the paper's order.
    pub fn all() -> [PartitionShape; 2] {
        [PartitionShape::Strip, PartitionShape::Square]
    }
}

/// Computes `k(P, S)` for `stencil` on a partition of `shape`.
pub fn perimeters(stencil: &Stencil, shape: PartitionShape) -> usize {
    match shape {
        // A strip spans all columns, so only row reach forces communication.
        PartitionShape::Strip => stencil.reach_rows(),
        // A square has neighbours on both axes; the deeper reach governs.
        PartitionShape::Square => stencil.reach_rows().max(stencil.reach_cols()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tap;

    /// The paper's §3 table of k(Partition, Stencil) values.
    #[test]
    fn paper_k_table() {
        let cases = [
            (Stencil::five_point(), 1, 1),
            (Stencil::nine_point_box(), 1, 1),
            (Stencil::nine_point_star(), 2, 2),
            (Stencil::thirteen_point_star(), 2, 2),
        ];
        for (s, k_strip, k_square) in cases {
            assert_eq!(s.perimeters(PartitionShape::Strip), k_strip, "{} strip", s.name());
            assert_eq!(s.perimeters(PartitionShape::Square), k_square, "{} square", s.name());
        }
    }

    /// A purely horizontal stencil needs no strip communication at all.
    #[test]
    fn horizontal_only_stencil_has_zero_strip_perimeters() {
        let s = Stencil::new("1-D horizontal", vec![Tap::unit(0, -1), Tap::unit(0, 1)], 1.0, 2.0);
        assert_eq!(s.perimeters(PartitionShape::Strip), 0);
        assert_eq!(s.perimeters(PartitionShape::Square), 1);
    }

    /// k on squares dominates k on strips for any stencil.
    #[test]
    fn square_k_at_least_strip_k() {
        for s in Stencil::catalog() {
            assert!(s.perimeters(PartitionShape::Square) >= s.perimeters(PartitionShape::Strip));
        }
    }

    #[test]
    fn asymmetric_reach() {
        // Reach 3 vertically, 1 horizontally.
        let s = Stencil::new(
            "tall",
            vec![Tap::unit(-3, 0), Tap::unit(3, 0), Tap::unit(0, -1), Tap::unit(0, 1)],
            1.0,
            4.0,
        );
        assert_eq!(s.perimeters(PartitionShape::Strip), 3);
        assert_eq!(s.perimeters(PartitionShape::Square), 3);
    }

    #[test]
    fn shape_names() {
        assert_eq!(PartitionShape::Strip.name(), "strip");
        assert_eq!(PartitionShape::Square.name(), "square");
        assert_eq!(PartitionShape::all().len(), 2);
    }
}

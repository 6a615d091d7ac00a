//! Problem instances: grid size, stencil constants, partition shape.

use parspeed_stencil::{PartitionShape, Stencil};

/// A problem instance for the analytic model.
///
/// Carries the three stencil-derived constants the model needs — `E(S)`
/// (flops per point), `k(P,S)` (perimeters communicated), and the partition
/// shape — plus the grid side `n`. Built from a real [`Stencil`] or with
/// explicit constants for what-if analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Grid side; the problem has `n²` points.
    pub n: usize,
    /// Partition shape (strips or squares/working rectangles).
    pub shape: PartitionShape,
    /// `E(S)`: flops per grid-point update.
    pub e_flops: f64,
    /// `k(P,S)`: perimeters communicated per iteration.
    pub k: usize,
    /// Stencil name for reports.
    pub stencil_name: &'static str,
}

impl Workload {
    /// The largest grid side whose `n²` fits a `usize` (4 294 967 295 on
    /// 64-bit targets). The model squares `n` in integers, so a larger
    /// side wraps and answers for the wrong grid.
    pub const MAX_SIDE: usize = usize::MAX.isqrt();

    /// Builds a workload from a stencil, using the calibrated `E(S)` when
    /// the stencil is catalogued and its natural flop count otherwise.
    pub fn new(n: usize, stencil: &Stencil, shape: PartitionShape) -> Self {
        assert!(n > 0, "empty grid");
        let e = stencil.calibrated_e().unwrap_or_else(|| stencil.flops_per_point());
        Self { n, shape, e_flops: e, k: stencil.perimeters(shape), stencil_name: stencil.name() }
    }

    /// Builds a workload with explicit constants.
    pub fn with_constants(n: usize, shape: PartitionShape, e_flops: f64, k: usize) -> Self {
        assert!(n > 0, "empty grid");
        assert!(e_flops > 0.0, "E(S) must be positive");
        Self { n, shape, e_flops, k, stencil_name: "custom" }
    }

    /// Total grid points `n²`.
    pub fn points(&self) -> f64 {
        (self.n * self.n) as f64
    }

    /// The largest processor count this shape admits: `n` strips (one row
    /// each) or `n²` unit squares.
    pub fn max_processors(&self) -> usize {
        match self.shape {
            PartitionShape::Strip => self.n,
            PartitionShape::Square => self.n * self.n,
        }
    }

    /// Boundary words a partition of `area` points moves one way per
    /// iteration under the paper's closed-form accounting: `2nk` for strips
    /// (independent of area), `4sk` with `s = √area` for squares.
    pub fn one_way_words(&self, area: f64) -> f64 {
        match self.shape {
            PartitionShape::Strip => 2.0 * self.n as f64 * self.k as f64,
            PartitionShape::Square => 4.0 * area.sqrt() * self.k as f64,
        }
    }

    /// A copy with a different grid side (scaling sweeps).
    pub fn scaled_to(&self, n: usize) -> Self {
        let mut w = self.clone();
        assert!(n > 0);
        w.n = n;
        w
    }
}

/// How many processors the machine offers the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessorBudget {
    /// Fixed machine of `N` processors (the paper's §6 bus analysis).
    Limited(usize),
    /// Machine grows with the problem (the paper's asymptotic analysis):
    /// bounded only by the shape's own limit.
    Unlimited,
}

impl ProcessorBudget {
    /// The effective maximum processor count for `w`.
    pub fn cap(&self, w: &Workload) -> usize {
        match self {
            ProcessorBudget::Limited(n) => (*n).clamp(1, w.max_processors()),
            ProcessorBudget::Unlimited => w.max_processors(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_from_catalog_stencils() {
        let w = Workload::new(256, &Stencil::five_point(), PartitionShape::Strip);
        assert_eq!(w.e_flops, 6.0);
        assert_eq!(w.k, 1);
        assert_eq!(w.stencil_name, "5-point");
        let w9 = Workload::new(256, &Stencil::nine_point_star(), PartitionShape::Square);
        assert_eq!(w9.e_flops, 11.0);
        assert_eq!(w9.k, 2);
    }

    #[test]
    fn custom_stencil_uses_natural_flops() {
        use parspeed_stencil::Tap;
        let s = Stencil::new("tiny", vec![Tap::unit(0, 1), Tap::unit(0, -1)], 1.0, 2.0);
        let w = Workload::new(32, &s, PartitionShape::Strip);
        assert_eq!(w.e_flops, s.flops_per_point());
        assert_eq!(w.k, 0); // horizontal stencil: strips need nothing
    }

    #[test]
    fn one_way_words_match_paper_volumes() {
        let ws = Workload::with_constants(256, PartitionShape::Strip, 6.0, 1);
        assert_eq!(ws.one_way_words(1024.0), 512.0); // 2nk, any area
        assert_eq!(ws.one_way_words(64.0), 512.0);
        let wq = Workload::with_constants(256, PartitionShape::Square, 6.0, 2);
        assert_eq!(wq.one_way_words(4096.0), 4.0 * 64.0 * 2.0);
    }

    #[test]
    fn budget_caps_respect_shape_limits() {
        let strip = Workload::with_constants(100, PartitionShape::Strip, 6.0, 1);
        assert_eq!(ProcessorBudget::Unlimited.cap(&strip), 100);
        assert_eq!(ProcessorBudget::Limited(30).cap(&strip), 30);
        assert_eq!(ProcessorBudget::Limited(500).cap(&strip), 100);
        let sq = Workload::with_constants(100, PartitionShape::Square, 6.0, 1);
        assert_eq!(ProcessorBudget::Unlimited.cap(&sq), 10_000);
        assert_eq!(ProcessorBudget::Limited(0).cap(&sq), 1);
    }

    #[test]
    fn scaling_preserves_constants() {
        let w = Workload::new(128, &Stencil::nine_point_box(), PartitionShape::Square);
        let big = w.scaled_to(1024);
        assert_eq!(big.n, 1024);
        assert_eq!(big.e_flops, w.e_flops);
        assert_eq!(big.k, w.k);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn rejects_zero_grid() {
        let _ = Workload::with_constants(0, PartitionShape::Strip, 6.0, 1);
    }
}

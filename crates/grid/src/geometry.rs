//! Rectangular index regions and partition boundary geometry.

use parspeed_stencil::{PartitionShape, Stencil};

/// A half-open rectangular region of grid indices:
/// rows `r0..r1`, columns `c0..c1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First row (inclusive).
    pub r0: usize,
    /// Last row (exclusive).
    pub r1: usize,
    /// First column (inclusive).
    pub c0: usize,
    /// Last column (exclusive).
    pub c1: usize,
}

impl Region {
    /// Builds a region; `r0 <= r1` and `c0 <= c1` are required.
    pub fn new(r0: usize, r1: usize, c0: usize, c1: usize) -> Self {
        assert!(r0 <= r1 && c0 <= c1, "degenerate region bounds");
        Self { r0, r1, c0, c1 }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.r1 - self.r0
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.c1 - self.c0
    }

    /// Number of grid points (the paper's partition area `A`).
    pub fn area(&self) -> usize {
        self.rows() * self.cols()
    }

    /// Perimeter length `2·(rows + cols)` in points, the quantity the
    /// paper's 5% working-rectangle rule compares against `4·√A`.
    pub fn perimeter(&self) -> usize {
        2 * (self.rows() + self.cols())
    }

    /// True iff the region contains no points.
    pub fn is_empty(&self) -> bool {
        self.r0 == self.r1 || self.c0 == self.c1
    }

    /// Whether `(r, c)` lies inside the region.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r >= self.r0 && r < self.r1 && c >= self.c0 && c < self.c1
    }

    /// Intersection with another region (possibly empty).
    pub fn intersect(&self, other: &Region) -> Region {
        let r0 = self.r0.max(other.r0);
        let r1 = self.r1.min(other.r1).max(r0);
        let c0 = self.c0.max(other.c0);
        let c1 = self.c1.min(other.c1).max(c0);
        Region { r0, r1, c0, c1 }
    }

    /// The region grown by `k` on every side, clamped to the `n×n` domain.
    pub fn expand(&self, k: usize, n: usize) -> Region {
        Region {
            r0: self.r0.saturating_sub(k),
            r1: (self.r1 + k).min(n),
            c0: self.c0.saturating_sub(k),
            c1: (self.c1 + k).min(n),
        }
    }

    /// Iterator over `(row, col)` points in row-major order.
    pub fn points(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.r0..self.r1).flat_map(move |r| (self.c0..self.c1).map(move |c| (r, c)))
    }
}

/// Per-iteration boundary traffic of one partition, in words (one word per
/// grid-point value), split by direction. The paper's model assumes each
/// processor *reads* its neighbours' boundary points at the start of an
/// iteration and *writes* its own at the end (§6, after Reed et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryWords {
    /// Words read from neighbours (their `k` outermost rings facing us).
    pub read: usize,
    /// Words written for neighbours (our `k` outermost rings facing them).
    pub write: usize,
}

impl BoundaryWords {
    /// Total words moved per iteration.
    pub fn total(&self) -> usize {
        self.read + self.write
    }

    /// Exact boundary traffic for `region` inside an `n×n` domain under
    /// `stencil`. Domain edges (constant boundary values, §3) cost nothing.
    ///
    /// Counts the stencil-reach rings of side cells, each ring clamped to
    /// the rows/columns that actually exist between the region and the
    /// domain edge (a reach-2 stencil one row from the boundary reads one
    /// row, not two); corner blocks are included only when the stencil has
    /// diagonal taps — the closed-form model neglects them (paper §6.1
    /// footnote), so this function is the ground truth the simulators use.
    ///
    /// `read` is exact for any decomposition. `write` mirrors it by the
    /// catalogued stencils' central symmetry, which is exact whenever every
    /// partition is at least `reach` thick; partitions thinner than the
    /// reach forward deeper neighbours' reads and can send more than they
    /// receive (the [`crate::halo::plan`] accounts for that exactly).
    pub fn exact(region: &Region, n: usize, stencil: &Stencil) -> BoundaryWords {
        let kr = stencil.reach_rows();
        let kc = stencil.reach_cols();
        // Rows/columns available beyond each side before the domain edge.
        let above = kr.min(region.r0);
        let below = kr.min(n - region.r1);
        let before = kc.min(region.c0);
        let after = kc.min(n - region.c1);
        let mut read = (above + below) * region.cols() + (before + after) * region.rows();
        if stencil.has_diagonal() {
            for (v, h) in [(above, before), (above, after), (below, before), (below, after)] {
                read += v * h;
            }
        }
        BoundaryWords { read, write: read }
    }

    /// The paper's closed-form approximation of per-partition traffic:
    /// strips move `2·n·k` words each way, squares of side `s` move
    /// `4·s·k` words each way (interior partition, corners neglected).
    pub fn model(shape: PartitionShape, n: usize, side_or_area: usize, k: usize) -> BoundaryWords {
        let one_way = match shape {
            PartitionShape::Strip => 2 * n * k,
            PartitionShape::Square => 4 * side_or_area * k,
        };
        BoundaryWords { read: one_way, write: one_way }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parspeed_stencil::Stencil;

    #[test]
    fn region_basics() {
        let r = Region::new(2, 5, 1, 7);
        assert_eq!(r.rows(), 3);
        assert_eq!(r.cols(), 6);
        assert_eq!(r.area(), 18);
        assert_eq!(r.perimeter(), 18);
        assert!(r.contains(2, 1));
        assert!(r.contains(4, 6));
        assert!(!r.contains(5, 1));
        assert!(!r.contains(2, 7));
        assert!(!r.is_empty());
        assert!(Region::new(3, 3, 0, 5).is_empty());
    }

    #[test]
    fn region_points_row_major() {
        let r = Region::new(0, 2, 3, 5);
        let pts: Vec<_> = r.points().collect();
        assert_eq!(pts, vec![(0, 3), (0, 4), (1, 3), (1, 4)]);
    }

    #[test]
    fn intersect_and_expand() {
        let a = Region::new(0, 4, 0, 4);
        let b = Region::new(2, 6, 3, 8);
        let i = a.intersect(&b);
        assert_eq!(i, Region::new(2, 4, 3, 4));
        let disjoint = Region::new(0, 2, 0, 2).intersect(&Region::new(5, 6, 5, 6));
        assert!(disjoint.is_empty());
        let e = Region::new(1, 3, 1, 3).expand(2, 4);
        assert_eq!(e, Region::new(0, 4, 0, 4));
        // expand clamps at domain edges
        let f = Region::new(0, 1, 0, 1).expand(3, 8);
        assert_eq!(f, Region::new(0, 4, 0, 4));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_inverted_bounds() {
        let _ = Region::new(3, 2, 0, 1);
    }

    #[test]
    fn interior_square_five_point_traffic() {
        // 4×4 block strictly inside a 16×16 domain, 5-point stencil (k=1,
        // no diagonals): reads 4 sides × 4 = 16 words, writes the same.
        let r = Region::new(4, 8, 4, 8);
        let b = BoundaryWords::exact(&r, 16, &Stencil::five_point());
        assert_eq!(b.read, 16);
        assert_eq!(b.write, 16);
        assert_eq!(b.total(), 32);
    }

    #[test]
    fn nine_point_box_adds_corners() {
        let r = Region::new(4, 8, 4, 8);
        let b = BoundaryWords::exact(&r, 16, &Stencil::nine_point_box());
        // sides 16 + 4 corner points
        assert_eq!(b.read, 20);
    }

    #[test]
    fn star_stencils_skip_corners_but_double_rings() {
        let r = Region::new(4, 8, 4, 8);
        let b = BoundaryWords::exact(&r, 16, &Stencil::nine_point_star());
        // k=2, no diagonals: 4 sides × 4 cols/rows × 2 rings = 32
        assert_eq!(b.read, 32);
        let b13 = BoundaryWords::exact(&r, 16, &Stencil::thirteen_point_star());
        // plus 4 corners of kr·kc = 4 each
        assert_eq!(b13.read, 32 + 16);
    }

    #[test]
    fn domain_edges_cost_nothing() {
        // Top-left corner block: only bottom and right sides communicate.
        let r = Region::new(0, 4, 0, 4);
        let b = BoundaryWords::exact(&r, 16, &Stencil::five_point());
        assert_eq!(b.read, 8);
        // A strip spanning the full width with nothing above it.
        let s = Region::new(0, 4, 0, 16);
        let bs = BoundaryWords::exact(&s, 16, &Stencil::five_point());
        assert_eq!(bs.read, 16); // only the bottom side
    }

    #[test]
    fn whole_domain_single_partition_is_silent() {
        let r = Region::new(0, 16, 0, 16);
        for s in Stencil::catalog() {
            let b = BoundaryWords::exact(&r, 16, &s);
            assert_eq!(b.total(), 0, "{}", s.name());
        }
    }

    #[test]
    fn model_volumes_match_paper() {
        // Strips: 2nk each way; squares: 4sk each way.
        let b = BoundaryWords::model(PartitionShape::Strip, 256, 0, 1);
        assert_eq!(b.read, 512);
        let b = BoundaryWords::model(PartitionShape::Square, 256, 64, 2);
        assert_eq!(b.read, 512);
    }

    #[test]
    fn model_matches_exact_for_interior_five_point_square() {
        // Interior square of side s, 5-point: exact = 4s = model.
        let s = 8;
        let r = Region::new(16, 16 + s, 16, 16 + s);
        let exact = BoundaryWords::exact(&r, 64, &Stencil::five_point());
        let model = BoundaryWords::model(PartitionShape::Square, 64, s, 1);
        assert_eq!(exact, model);
    }
}

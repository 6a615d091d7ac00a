//! Discretization stencils for elliptic PDE solvers.
//!
//! This crate provides the stencil layer of the Nicol & Willard (1987) model:
//! the geometry of a difference stencil (which neighbouring grid points a
//! point update reads), the arithmetic cost of one point update (`E(S)` in
//! the paper), and the *perimeter count* `k(P, S)` — how many perimeters of
//! boundary data a partition of shape `P` must communicate per iteration
//! when stencil `S` is used (paper, §3).
//!
//! The four stencils the paper draws (Figures 1 and 3) are provided in
//! [`catalog`](Stencil::catalog):
//!
//! * [`Stencil::five_point`] — classic second-order Laplacian cross,
//! * [`Stencil::nine_point_box`] — Mehrstellen 3×3 box,
//! * [`Stencil::nine_point_star`] — fourth-order cross with arms of reach 2,
//! * [`Stencil::thirteen_point_star`] — reach-2 cross plus unit diagonals.
//!
//! Arbitrary stencils can be built with [`Stencil::new`] from a tap list.
//!
//! # Example
//!
//! ```
//! use parspeed_stencil::{PartitionShape, Stencil};
//!
//! let s = Stencil::five_point();
//! assert_eq!(s.reach(), 1);
//! assert_eq!(s.perimeters(PartitionShape::Strip), 1);
//! let star = Stencil::nine_point_star();
//! assert_eq!(star.perimeters(PartitionShape::Square), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod catalog;
mod flops;
mod kernel;
mod offsets;
mod perimeter;

pub use flops::FlopCount;
pub use kernel::KernelKind;
pub use offsets::{Offset, Tap};
pub use perimeter::PartitionShape;

/// A difference stencil: the finite set of grid offsets a point update reads,
/// together with the update's coefficients.
///
/// The associated point-Jacobi update for `-∇²u = f` on a grid with spacing
/// `h` is
///
/// ```text
/// u'(i,j) = ( Σ_taps  coeff · u(i+dy, j+dx)  +  rhs_scale · h² · f(i,j) ) / divisor
/// ```
///
/// Only the *geometry* of the taps matters for the performance model (reach
/// determines `k(P,S)`, tap count determines `E(S)`); the coefficients make
/// the stencil usable by the real solvers in `parspeed-solver`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil {
    name: &'static str,
    taps: Vec<Tap>,
    rhs_scale: f64,
    divisor: f64,
}

impl Stencil {
    /// Builds a stencil from explicit taps.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty, contains the centre offset `(0, 0)`, or
    /// contains a duplicate offset, or if `divisor == 0`.
    pub fn new(name: &'static str, taps: Vec<Tap>, rhs_scale: f64, divisor: f64) -> Self {
        assert!(!taps.is_empty(), "a stencil needs at least one tap");
        assert!(divisor != 0.0, "stencil divisor must be nonzero");
        for (i, t) in taps.iter().enumerate() {
            assert!(
                !(t.offset.dx == 0 && t.offset.dy == 0),
                "the centre point is implicit; do not list offset (0,0) as a tap"
            );
            for u in &taps[..i] {
                assert!(u.offset != t.offset, "duplicate tap offset {:?}", t.offset);
            }
        }
        Self { name, taps, rhs_scale, divisor }
    }

    /// Human-readable name ("5-point", "9-point box", ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The neighbour taps (centre excluded).
    pub fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Scale applied to the `h²·f` right-hand-side term in the Jacobi update.
    pub fn rhs_scale(&self) -> f64 {
        self.rhs_scale
    }

    /// Denominator of the Jacobi update.
    pub fn divisor(&self) -> f64 {
        self.divisor
    }

    /// Total number of points read by one update, centre excluded.
    pub fn tap_count(&self) -> usize {
        self.taps.len()
    }

    /// Maximum Chebyshev distance of any tap from the centre.
    ///
    /// This is the half-width of the halo a partition must hold.
    pub fn reach(&self) -> usize {
        self.taps.iter().map(|t| t.offset.chebyshev()).max().expect("stencil has at least one tap")
    }

    /// Maximum `|dy|` over taps: rows of halo needed above/below a partition.
    pub fn reach_rows(&self) -> usize {
        self.taps.iter().map(|t| t.offset.dy.unsigned_abs() as usize).max().unwrap_or(0)
    }

    /// Maximum `|dx|` over taps: columns of halo needed left/right.
    pub fn reach_cols(&self) -> usize {
        self.taps.iter().map(|t| t.offset.dx.unsigned_abs() as usize).max().unwrap_or(0)
    }

    /// Whether any tap lies strictly off both axes (a "diagonal" tap).
    ///
    /// Square partitions must then also exchange corner points — a cost the
    /// paper's closed forms neglect (§6.1 footnote) but the simulators count.
    pub fn has_diagonal(&self) -> bool {
        self.taps.iter().any(|t| t.offset.dx != 0 && t.offset.dy != 0)
    }

    /// The paper's `k(P, S)`: number of perimeters communicated by a
    /// partition of shape `shape` under this stencil (§3, table).
    pub fn perimeters(&self, shape: PartitionShape) -> usize {
        perimeter::perimeters(self, shape)
    }

    /// Natural floating-point operation count of one Jacobi update.
    ///
    /// See [`FlopCount`] for the accounting rules. The 1987 model treats
    /// `E(S)` as a free constant; `parspeed-core` defaults to the calibrated
    /// values in [`Stencil::calibrated_e`] but accepts any value.
    pub fn flops(&self) -> FlopCount {
        flops::count(self)
    }

    /// Shorthand for `self.flops().total()`.
    pub fn flops_per_point(&self) -> f64 {
        self.flops().total() as f64
    }

    /// The calibrated `E(S)` used by the paper-reproduction experiments.
    ///
    /// `E(5pt) = 6` and `E(9pt box) = 12` make the paper's two §6.1
    /// processor-count anchors (14 and 22 processors at `n = 256`) hold;
    /// `E(9pt star) = 11` and `E(13pt) = 14`. Returns `None` for custom
    /// stencils, which must supply their own `E`.
    pub fn calibrated_e(&self) -> Option<f64> {
        flops::calibrated_e(self.name)
    }

    /// All four catalogued stencils, in the order the paper introduces them.
    pub fn catalog() -> Vec<Stencil> {
        KernelKind::all().into_iter().map(KernelKind::to_stencil).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_four_entries_with_distinct_names() {
        let cat = Stencil::catalog();
        assert_eq!(cat.len(), 4);
        for (i, a) in cat.iter().enumerate() {
            for b in &cat[..i] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "centre point is implicit")]
    fn rejects_centre_tap() {
        Stencil::new("bad", vec![Tap::unit(0, 0)], 1.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "duplicate tap")]
    fn rejects_duplicate_taps() {
        Stencil::new("bad", vec![Tap::unit(1, 0), Tap::unit(1, 0)], 1.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn rejects_empty() {
        Stencil::new("bad", vec![], 1.0, 4.0);
    }

    #[test]
    fn reach_of_catalog() {
        assert_eq!(Stencil::five_point().reach(), 1);
        assert_eq!(Stencil::nine_point_box().reach(), 1);
        assert_eq!(Stencil::nine_point_star().reach(), 2);
        assert_eq!(Stencil::thirteen_point_star().reach(), 2);
    }

    #[test]
    fn diagonals_of_catalog() {
        assert!(!Stencil::five_point().has_diagonal());
        assert!(Stencil::nine_point_box().has_diagonal());
        assert!(!Stencil::nine_point_star().has_diagonal());
        assert!(Stencil::thirteen_point_star().has_diagonal());
    }

    #[test]
    fn tap_counts_match_names() {
        assert_eq!(Stencil::five_point().tap_count(), 4);
        assert_eq!(Stencil::nine_point_box().tap_count(), 8);
        assert_eq!(Stencil::nine_point_star().tap_count(), 8);
        assert_eq!(Stencil::thirteen_point_star().tap_count(), 12);
    }

    #[test]
    fn row_and_col_reach_agree_with_chebyshev() {
        for s in Stencil::catalog() {
            assert_eq!(s.reach(), s.reach_rows().max(s.reach_cols()));
        }
    }
}

//! Kernel identification: which fused sweep kernel can run a stencil.
//!
//! The generic sweep in `parspeed-solver` interprets the tap list point by
//! point; the fused kernels unroll one specific tap list into straight-line
//! slice arithmetic. Fusing is only sound when the tap list — offsets,
//! coefficients, *and order* (floating-point addition is not associative,
//! and the repo guarantees fused results are bit-identical to generic ones)
//! — plus `rhs_scale` and `divisor` all match the catalogue stencil the
//! kernel was written for. [`Stencil::kernel_kind`] performs exactly that
//! structural match, without allocating, so callers may re-dispatch on
//! every sweep.

use crate::Stencil;

/// Names the four catalogue stencils of the paper's Figs. 1 and 3, each of
/// which has a hand-fused sweep kernel. A query that needs tap geometry
/// keys on this name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// [`Stencil::five_point`]: reach-1 cross, unit coefficients.
    FivePoint,
    /// [`Stencil::nine_point_box`]: reach-1 box (Mehrstellen).
    NinePointBox,
    /// [`Stencil::nine_point_star`]: reach-2 cross (fourth order).
    NinePointStar,
    /// [`Stencil::thirteen_point_star`]: reach-2 cross plus unit diagonals.
    ThirteenPointStar,
}

impl KernelKind {
    /// All four, in the order the paper introduces them.
    pub fn all() -> [KernelKind; 4] {
        [
            KernelKind::FivePoint,
            KernelKind::NinePointBox,
            KernelKind::NinePointStar,
            KernelKind::ThirteenPointStar,
        ]
    }

    /// The catalogue stencil this names.
    pub fn to_stencil(self) -> Stencil {
        match self {
            KernelKind::FivePoint => Stencil::five_point(),
            KernelKind::NinePointBox => Stencil::nine_point_box(),
            KernelKind::NinePointStar => Stencil::nine_point_star(),
            KernelKind::ThirteenPointStar => Stencil::thirteen_point_star(),
        }
    }
}

/// `(dy, dx, coeff)` triples in catalogue order, plus `(rhs_scale, divisor)`.
type Signature = (&'static [(i32, i32, f64)], f64, f64);

const FIVE_POINT: Signature = (&[(-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0)], 1.0, 4.0);

const NINE_POINT_BOX: Signature = (
    &[
        (-1, 0, 4.0),
        (1, 0, 4.0),
        (0, -1, 4.0),
        (0, 1, 4.0),
        (-1, -1, 1.0),
        (-1, 1, 1.0),
        (1, -1, 1.0),
        (1, 1, 1.0),
    ],
    6.0,
    20.0,
);

const NINE_POINT_STAR: Signature = (
    &[
        (-1, 0, 16.0),
        (1, 0, 16.0),
        (0, -1, 16.0),
        (0, 1, 16.0),
        (-2, 0, -1.0),
        (2, 0, -1.0),
        (0, -2, -1.0),
        (0, 2, -1.0),
    ],
    12.0,
    60.0,
);

const THIRTEEN_POINT_STAR: Signature = (
    &[
        (-1, 0, 16.0),
        (1, 0, 16.0),
        (0, -1, 16.0),
        (0, 1, 16.0),
        (-2, 0, -1.0),
        (2, 0, -1.0),
        (0, -2, -1.0),
        (0, 2, -1.0),
        (-1, -1, 4.0),
        (-1, 1, 4.0),
        (1, -1, 4.0),
        (1, 1, 4.0),
    ],
    20.0,
    76.0,
);

fn matches(stencil: &Stencil, sig: Signature) -> bool {
    let (taps, rhs_scale, divisor) = sig;
    stencil.rhs_scale() == rhs_scale
        && stencil.divisor() == divisor
        && stencil.taps().len() == taps.len()
        && stencil
            .taps()
            .iter()
            .zip(taps)
            .all(|(t, &(dy, dx, c))| t.offset.dy == dy && t.offset.dx == dx && t.coeff == c)
}

impl Stencil {
    /// Identifies the fused kernel for this stencil, if one exists.
    ///
    /// Matching is structural — a stencil built by hand with
    /// [`Stencil::new`] that lists the same taps in the same order with the
    /// same coefficients, `rhs_scale`, and `divisor` as a catalogue stencil
    /// is identified regardless of its name. Any deviation (reordered taps,
    /// different coefficients) returns `None` and the generic tap-driven
    /// sweep runs instead.
    pub fn kernel_kind(&self) -> Option<KernelKind> {
        if matches(self, FIVE_POINT) {
            Some(KernelKind::FivePoint)
        } else if matches(self, NINE_POINT_BOX) {
            Some(KernelKind::NinePointBox)
        } else if matches(self, NINE_POINT_STAR) {
            Some(KernelKind::NinePointStar)
        } else if matches(self, THIRTEEN_POINT_STAR) {
            Some(KernelKind::ThirteenPointStar)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tap;

    #[test]
    fn catalog_stencils_are_identified() {
        assert_eq!(Stencil::five_point().kernel_kind(), Some(KernelKind::FivePoint));
        assert_eq!(Stencil::nine_point_box().kernel_kind(), Some(KernelKind::NinePointBox));
        assert_eq!(Stencil::nine_point_star().kernel_kind(), Some(KernelKind::NinePointStar));
        assert_eq!(
            Stencil::thirteen_point_star().kernel_kind(),
            Some(KernelKind::ThirteenPointStar)
        );
    }

    #[test]
    fn every_kind_constructs_its_catalogue_stencil() {
        for kind in KernelKind::all() {
            assert_eq!(kind.to_stencil().kernel_kind(), Some(kind));
        }
    }

    #[test]
    fn structural_twin_with_different_name_is_identified() {
        let twin = Stencil::new(
            "my cross",
            vec![Tap::unit(-1, 0), Tap::unit(1, 0), Tap::unit(0, -1), Tap::unit(0, 1)],
            1.0,
            4.0,
        );
        assert_eq!(twin.kernel_kind(), Some(KernelKind::FivePoint));
    }

    #[test]
    fn reordered_taps_are_not_identified() {
        // Same operator, different summation order: fused arithmetic would
        // not be bit-identical, so the dispatch must refuse.
        let reordered = Stencil::new(
            "cross, E first",
            vec![Tap::unit(0, 1), Tap::unit(0, -1), Tap::unit(1, 0), Tap::unit(-1, 0)],
            1.0,
            4.0,
        );
        assert_eq!(reordered.kernel_kind(), None);
    }

    #[test]
    fn perturbed_constants_are_not_identified() {
        let scaled = Stencil::new(
            "scaled cross",
            vec![Tap::unit(-1, 0), Tap::unit(1, 0), Tap::unit(0, -1), Tap::unit(0, 1)],
            1.0,
            4.5,
        );
        assert_eq!(scaled.kernel_kind(), None);
        let custom = Stencil::new("pair", vec![Tap::unit(0, 1), Tap::unit(0, -1)], 1.0, 2.0);
        assert_eq!(custom.kernel_kind(), None);
    }

    #[test]
    fn signatures_stay_in_sync_with_the_catalog() {
        // The fused kernels hard-code the catalogue coefficients; this pins
        // the signature tables to the actual constructors.
        for (s, sig) in [
            (Stencil::five_point(), FIVE_POINT),
            (Stencil::nine_point_box(), NINE_POINT_BOX),
            (Stencil::nine_point_star(), NINE_POINT_STAR),
            (Stencil::thirteen_point_star(), THIRTEEN_POINT_STAR),
        ] {
            assert!(matches(&s, sig), "{} drifted from its kernel signature", s.name());
        }
    }
}

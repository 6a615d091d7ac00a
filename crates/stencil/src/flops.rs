//! Floating-point operation accounting for one stencil update — the paper's
//! `E(S)`.
//!
//! The paper treats `E(S)` as a given constant ("the number of floating
//! point operations per grid point employed by the algorithm"). We provide
//! two sources for it:
//!
//! 1. [`count`] derives a *natural* count from the tap list (what a
//!    straightforward scalar implementation performs), and
//! 2. [`calibrated_e`] returns the constants used by the reproduction
//!    experiments, calibrated so the paper's §6.1 quantitative anchors hold
//!    (14 and 22 processors on the synchronous bus at `n = 256`):
//!    `E(5-point) = 6`, `E(9-point box) = 12`, `E(9-point star) = 11`,
//!    `E(13-point star) = 14`.
//!
//! # Measured MFLOP/s vs calibrated `E(S)`
//!
//! Neither source of `E(S)` claims to predict wall-clock cost on a modern
//! host: the fused row-slice kernels in `parspeed-solver` deliver several
//! GFLOP/s (natural accounting) single-thread, and their *relative* cost
//! across stencils differs from both the natural counts and the
//! calibrated constants because memory traffic, not arithmetic, bounds
//! the sweep. Measure it instead, after any kernel change, with
//!
//! ```text
//! cargo bench -p parspeed-bench --bench jacobi_kernels
//! ```
//!
//! — throughput in grid points per second (× `flops_per_point` for
//! FLOP/s) for the generic, fused, and row-parallel sweeps of each
//! catalogue stencil — or with the repository benchmark's traced run
//! (`perfbench/`, `--trace 1`), whose `kernel.fused_mpts`,
//! `kernel.par_mpts` and `kernel.gflops` time the sweeps at each
//! workload's grid sides. The fused kernels' bit-identity with the
//! generic sweep is pinned by `parspeed-solver`'s `fused_identity` tests.

use crate::Stencil;

/// Breakdown of the flops in one Jacobi point update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlopCount {
    /// Additions/subtractions accumulating tap values and the RHS term.
    pub adds: u32,
    /// Multiplications by non-unit tap coefficients and the RHS scale.
    pub muls: u32,
    /// Final divisions (always 1; a real code would multiply by the
    /// precomputed reciprocal, which costs the same here).
    pub divs: u32,
}

impl FlopCount {
    /// Total flops.
    pub fn total(&self) -> u32 {
        self.adds + self.muls + self.divs
    }
}

/// Natural flop count of one update of `stencil`.
///
/// Rules: every tap contributes one add; taps whose coefficient is not
/// `±1` contribute one multiply (groups of taps sharing a coefficient are
/// *not* factored — this matches a simple unrolled kernel). The RHS term
/// `rhs_scale·h²·f` contributes one multiply (by the precomputed
/// `rhs_scale·h²`) and one add; the divisor contributes one divide.
pub fn count(stencil: &Stencil) -> FlopCount {
    let mut adds = 0u32;
    let mut muls = 0u32;
    for t in stencil.taps() {
        adds += 1;
        if t.coeff != 1.0 && t.coeff != -1.0 {
            muls += 1;
        }
    }
    // RHS term: one fused multiply of f by the precomputed scale, one add.
    muls += 1;
    adds += 1;
    FlopCount { adds, muls, divs: 1 }
}

/// Calibrated `E(S)` for the catalogued stencils (see module docs).
pub fn calibrated_e(name: &str) -> Option<f64> {
    match name {
        "5-point" => Some(6.0),
        "9-point box" => Some(12.0),
        "9-point star" => Some(11.0),
        "13-point star" => Some(14.0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tap;

    #[test]
    fn five_point_natural_count() {
        // 4 unit taps: 4 adds; rhs: 1 mul + 1 add; divide: 1. Total 7.
        let c = Stencil::five_point().flops();
        assert_eq!(c.adds, 5);
        assert_eq!(c.muls, 1);
        assert_eq!(c.divs, 1);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn nine_point_box_natural_count() {
        // 8 taps (4 with coeff 4): 8 adds + 4 muls; rhs: 1+1; divide: 1.
        let c = Stencil::nine_point_box().flops();
        assert_eq!(c.adds, 9);
        assert_eq!(c.muls, 5);
        assert_eq!(c.total(), 15);
    }

    #[test]
    fn unit_negative_coefficients_do_not_multiply() {
        let c = Stencil::nine_point_star().flops();
        // 8 taps, 4 with coeff 16 (mul), 4 with coeff -1 (no mul).
        assert_eq!(c.muls, 4 + 1);
        assert_eq!(c.adds, 8 + 1);
    }

    #[test]
    fn calibrated_values_cover_catalog_and_keep_paper_ratio() {
        for s in Stencil::catalog() {
            let e = s.calibrated_e().expect("catalog stencils are calibrated");
            assert!(e > 0.0);
        }
        // The §6.1 anchors (14 vs 22 processors at n=256) require
        // E(9-point)/E(5-point) ≈ 2.
        let e5 = calibrated_e("5-point").unwrap();
        let e9 = calibrated_e("9-point box").unwrap();
        assert_eq!(e9 / e5, 2.0);
    }

    #[test]
    fn custom_stencils_are_uncalibrated() {
        let s = Stencil::new("custom", vec![Tap::unit(0, 1), Tap::unit(0, -1)], 1.0, 2.0);
        assert!(s.calibrated_e().is_none());
        assert_eq!(s.flops().total(), 2 + 2 + 1);
    }

    #[test]
    fn natural_counts_are_ordered_like_calibrated_ones() {
        // More taps ⇒ more work, under either accounting.
        let cat = Stencil::catalog();
        let five = &cat[0];
        let thirteen = &cat[3];
        assert!(five.flops_per_point() < thirteen.flops_per_point());
        assert!(five.calibrated_e().unwrap() < thirteen.calibrated_e().unwrap());
    }
}

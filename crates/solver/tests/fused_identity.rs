//! Property tests: the fused sweep kernels are bit-identical to the
//! generic tap-driven sweep for every catalogue stencil — across grid
//! sizes including degenerate interiors (n = 1, 2, 3) and the offset
//! sub-regions the partitioned executor (`parspeed-exec`) sweeps.

use parspeed_grid::{Grid2D, Region};
use parspeed_solver::apply::{
    jacobi_sweep, jacobi_sweep_par, jacobi_sweep_region, jacobi_sweep_region_generic, sor_sweep,
};
use parspeed_stencil::Stencil;
use proptest::prelude::*;

/// Deterministic pseudo-random grid from a seed (SplitMix64-style mix).
fn seeded_grid(rows: usize, cols: usize, halo: usize, seed: u64) -> Grid2D {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
    };
    let mut g = Grid2D::from_fn(rows, cols, halo, |_, _| next());
    // Fill every halo cell with varied values too (boundary data matters).
    let h = halo as isize;
    for r in -h..(rows as isize + h) {
        for c in -h..(cols as isize + h) {
            let interior = r >= 0 && r < rows as isize && c >= 0 && c < cols as isize;
            if !interior {
                g.set_h(r, c, next());
            }
        }
    }
    g
}

fn assert_bitwise(a: &Grid2D, b: &Grid2D, label: &str) -> Result<(), TestCaseError> {
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            if a.get(r, c).to_bits() != b.get(r, c).to_bits() {
                return Err(TestCaseError::fail(format!(
                    "{label}: mismatch at ({r},{c}): {} vs {}",
                    a.get(r, c),
                    b.get(r, c)
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    /// Full-interior sweeps: fused (sequential and rayon row-parallel)
    /// match generic bitwise, for all four stencils, down to n = 1. The
    /// row-parallel sweep runs on a pinned pool (grids this small would
    /// otherwise run inline), so every split of the rows is covered.
    #[test]
    fn full_sweep_fused_matches_generic(
        n in 1usize..24,
        stencil_idx in 0usize..4,
        seed in 0u64..1_000_000,
        threads in 1usize..5,
    ) {
        let s = &Stencil::catalog()[stencil_idx];
        prop_assert!(s.kernel_kind().is_some(), "catalogue stencil must fuse");
        let halo = s.reach();
        let src = seeded_grid(n, n, halo, seed);
        let f = seeded_grid(n, n, 0, seed ^ 0xf0f0);
        let h2 = 0.003;
        let region = Region::new(0, n, 0, n);
        let mut generic = Grid2D::new(n, n, halo);
        jacobi_sweep_region_generic(s, &src, &mut generic, &f, h2, &region, (0, 0));
        let mut fused = Grid2D::new(n, n, halo);
        jacobi_sweep(s, &src, &mut fused, &f, h2);
        assert_bitwise(&fused, &generic, s.name())?;
        let mut par = Grid2D::new(n, n, halo);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| jacobi_sweep_par(s, &src, &mut par, &f, h2));
        assert_bitwise(&par, &generic, s.name())?;
    }

    /// Offset sub-region sweeps, as issued by the partitioned executor:
    /// a local grid covering global rows/cols `[r0, r1) × [c0, c1)` with
    /// `offset = (r0, c0)` and global forcing.
    #[test]
    fn offset_region_fused_matches_generic(
        n in 4usize..20,
        r0 in 0usize..6,
        c0 in 0usize..6,
        stencil_idx in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let s = &Stencil::catalog()[stencil_idx];
        let halo = s.reach();
        let r0 = r0.min(n - 1);
        let c0 = c0.min(n - 1);
        let region = Region::new(r0, n, c0, n);
        let local_src = seeded_grid(region.rows(), region.cols(), halo, seed);
        let f = seeded_grid(n, n, 0, seed ^ 0xabcd);
        let h2 = 0.01;
        let offset = (r0, c0);
        let mut fused = Grid2D::new(region.rows(), region.cols(), halo);
        jacobi_sweep_region(s, &local_src, &mut fused, &f, h2, &region, offset);
        let mut generic = Grid2D::new(region.rows(), region.cols(), halo);
        jacobi_sweep_region_generic(s, &local_src, &mut generic, &f, h2, &region, offset);
        assert_bitwise(&fused, &generic, s.name())?;
    }

    /// In-place relaxation sweeps: the fused SOR rows yield the same
    /// iterate bitwise as the tap-driven in-place recurrence.
    #[test]
    fn sor_sweep_fused_matches_tap_driven(
        n in 1usize..16,
        stencil_idx in 0usize..4,
        seed in 0u64..1_000_000,
        omega_pct in 20u64..130,
    ) {
        let s = &Stencil::catalog()[stencil_idx];
        let halo = s.reach();
        let omega = omega_pct as f64 / 100.0;
        let h2 = 0.004;
        let rs_h2 = s.rhs_scale() * h2;
        let inv = 1.0 / s.divisor();
        let mut u = seeded_grid(n, n, halo, seed);
        let mut u_ref = u.clone();
        let f = seeded_grid(n, n, 0, seed ^ 0x1234);
        let diff = sor_sweep(s, &mut u, &f, h2, omega);
        // Tap-driven reference recurrence, identical order.
        let mut worst = 0.0f64;
        for r in 0..n {
            for c in 0..n {
                let (ri, ci) = (r as isize, c as isize);
                let mut acc = 0.0;
                for t in s.taps() {
                    acc += t.coeff
                        * u_ref.get_h(ri + t.offset.dy as isize, ci + t.offset.dx as isize);
                }
                let jacobi = (acc + rs_h2 * f.get(r, c)) * inv;
                let old = u_ref.get(r, c);
                let new = old + omega * (jacobi - old);
                worst = worst.max((new - old).abs());
                u_ref.set(r, c, new);
            }
        }
        assert_bitwise(&u, &u_ref, s.name())?;
        prop_assert_eq!(diff.to_bits(), worst.to_bits(), "{} sweep diff", s.name());
    }
}

/// The degenerate interiors the issue calls out explicitly, for every
/// stencil: a 1×1, 2×2, and 3×3 interior still dispatches (or falls back)
/// without touching out-of-range halo and matches generic bitwise.
#[test]
fn degenerate_interiors_match_generic() {
    for s in Stencil::catalog() {
        let halo = s.reach();
        for n in 1usize..=3 {
            for seed in 0..8u64 {
                let src = seeded_grid(n, n, halo, seed * 77 + n as u64);
                let f = seeded_grid(n, n, 0, seed * 131 + 5);
                let region = Region::new(0, n, 0, n);
                let mut generic = Grid2D::new(n, n, halo);
                jacobi_sweep_region_generic(&s, &src, &mut generic, &f, 0.02, &region, (0, 0));
                let mut fused = Grid2D::new(n, n, halo);
                jacobi_sweep(&s, &src, &mut fused, &f, 0.02);
                assert_eq!(
                    fused.max_abs_diff(&generic),
                    0.0,
                    "{} differs at degenerate n={n}",
                    s.name()
                );
            }
        }
    }
}

//! Property tests: the communication-avoiding loop — fused
//! blend/diff kernels, block-of-k temporal tiling, and policy-scheduled
//! checks — is bit-identical to the plain one-sweep-per-iteration loop,
//! for all four catalogue stencils, across degenerate sizes
//! (`n ≤ reach·k`, so the trapezoid never opens) and the offset
//! sub-regions the partitioned executor sweeps.

use parspeed_grid::{Grid2D, Region};
use parspeed_solver::apply::{
    jacobi_sweep, jacobi_sweep_blend_region, jacobi_sweep_region_generic,
};
use parspeed_solver::{CheckPolicy, JacobiSolver, Manufactured, PoissonProblem};
use parspeed_stencil::Stencil;
use proptest::prelude::*;

/// The historical loop: whole-grid sweep, separate blend pass, swap;
/// returns the final iterate and the max-norm diff of the last iteration.
fn reference_iterates(p: &PoissonProblem, s: &Stencil, omega: f64, iters: usize) -> (Grid2D, f64) {
    let halo = s.reach();
    let h2 = p.h() * p.h();
    let mut u = p.initial_grid(halo);
    let mut next = p.initial_grid(halo);
    let f = p.forcing();
    let mut diff = f64::INFINITY;
    for it in 0..iters {
        jacobi_sweep(s, &u, &mut next, f, h2);
        if omega != 1.0 {
            for r in 0..u.rows() {
                let urow = u.interior_row(r).to_vec();
                for (nv, &uv) in next.interior_row_mut(r).iter_mut().zip(&urow) {
                    *nv = omega * *nv + (1.0 - omega) * uv;
                }
            }
        }
        if it + 1 == iters {
            diff = u.max_abs_diff(&next);
        }
        u.swap(&mut next);
    }
    (u, diff)
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
    /// Temporal-tiled block-of-k solves reproduce the plain loop bitwise
    /// — every catalogue stencil, every check policy shape, damped and
    /// undamped, from n = 1 (degenerate: n ≤ reach·k for every block the
    /// solver picks) upward.
    #[test]
    fn block_of_k_solve_matches_plain_loop(
        n in 1usize..20,
        stencil_idx in 0usize..4,
        damped in 0usize..2,
        max_iters in 1usize..40,
        policy_idx in 0usize..4,
    ) {
        let s = &Stencil::catalog()[stencil_idx];
        let omega = if damped == 1 { 0.8 } else { 1.0 };
        let check = [
            CheckPolicy::Every(1),
            CheckPolicy::Every(5),
            CheckPolicy::Every(40), // larger than max_iters: only the forced final check
            CheckPolicy::geometric(),
        ][policy_idx];
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let solver = JacobiSolver { tol: 0.0, max_iters, check, omega, ..Default::default() };
        let (u, status) = solver.solve(&p, s);
        prop_assert_eq!(status.iterations, max_iters);
        let (reference, ref_diff) = reference_iterates(&p, s, omega, max_iters);
        assert_bitwise(&u, &reference, &format!("{} {check:?} ω={omega}", s.name()))?;
        // The final forced check sees exactly the reference's last diff.
        prop_assert_eq!(status.final_diff.to_bits(), ref_diff.to_bits());
    }

    /// The parallel (rayon) path under the same policies is bitwise
    /// identical too (no temporal tiling, but the fused blend/diff pass),
    /// on every pinned pool size.
    #[test]
    fn parallel_policy_solve_matches_plain_loop(
        n in 1usize..14,
        stencil_idx in 0usize..4,
        max_iters in 1usize..20,
        threads in 1usize..5,
    ) {
        let s = &Stencil::catalog()[stencil_idx];
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let solver = JacobiSolver {
            tol: 0.0,
            max_iters,
            check: CheckPolicy::geometric(),
            omega: 0.8,
            parallel: true,
        };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let (u, status) = pool.install(|| solver.solve(&p, s));
        prop_assert_eq!(status.iterations, max_iters);
        let (reference, _) = reference_iterates(&p, s, 0.8, max_iters);
        assert_bitwise(&u, &reference, s.name())?;
    }

    /// The fused blend/diff region kernel matches the generic sweep plus
    /// manual blend and diff on partitioned-style offset sub-regions.
    #[test]
    fn blend_region_with_offset_matches_generic(
        n in 4usize..16,
        stencil_idx in 0usize..4,
        damped in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let s = &Stencil::catalog()[stencil_idx];
        let omega = if damped == 1 { 0.75 } else { 1.0 };
        let halo = s.reach();
        // A strip-like region of global rows r0..r1, full width.
        let r0 = seed as usize % (n / 2);
        let r1 = r0 + 1 + (seed as usize / 7) % (n - r0 - 1).max(1);
        let region = Region::new(r0, r1.min(n), 0, n);
        let offset = (region.r0, region.c0);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next_val = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        };
        let mut src = Grid2D::from_fn(region.rows(), region.cols(), halo, |_, _| next_val());
        let h = halo as isize;
        for r in -h..(region.rows() as isize + h) {
            for c in -h..(region.cols() as isize + h) {
                let interior =
                    r >= 0 && r < region.rows() as isize && c >= 0 && c < region.cols() as isize;
                if !interior {
                    src.set_h(r, c, next_val());
                }
            }
        }
        let f = Grid2D::from_fn(n, n, 0, |r, c| ((r * 3 + c) % 5) as f64 * 0.21);
        let mut fused = Grid2D::new(region.rows(), region.cols(), halo);
        let d = jacobi_sweep_blend_region(
            s, &src, &mut fused, &f, 0.01, &region, offset, omega, true,
        );
        let mut generic = Grid2D::new(region.rows(), region.cols(), halo);
        jacobi_sweep_region_generic(s, &src, &mut generic, &f, 0.01, &region, offset);
        let mut worst = 0.0f64;
        for r in 0..region.rows() {
            for c in 0..region.cols() {
                let old = src.get(r, c);
                let mut v = generic.get(r, c);
                if omega != 1.0 {
                    v = omega * v + (1.0 - omega) * old;
                    generic.set(r, c, v);
                }
                worst = worst.max((old - v).abs());
            }
        }
        assert_bitwise(&fused, &generic, s.name())?;
        prop_assert_eq!(d.to_bits(), worst.to_bits(), "{} diff mismatch", s.name());
    }
}

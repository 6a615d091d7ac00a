//! Property tests: deep-halo partitioned runs — one exchange funding a
//! whole block of local sub-iterations over expanded ghost regions — are
//! bit-identical to the sequential k=1 loop, for all four catalogue
//! stencils, strip and rectangular decompositions, arbitrary block
//! mixes, and degenerate partitions thinner than the ghost frame
//! (`rows ≤ reach·depth`).

use parspeed_exec::{CheckPolicy, PartitionedJacobi};
use parspeed_grid::{Grid2D, RectDecomposition, StripDecomposition};
use parspeed_solver::apply::jacobi_sweep;
use parspeed_solver::{Manufactured, PoissonProblem};
use parspeed_stencil::Stencil;
use proptest::prelude::*;

/// Plain sequential Jacobi after exactly `iters` iterations.
fn reference_iterates(p: &PoissonProblem, s: &Stencil, iters: usize) -> (Grid2D, f64) {
    let halo = s.reach();
    let h2 = p.h() * p.h();
    let mut u = p.initial_grid(halo);
    let mut next = p.initial_grid(halo);
    let f = p.forcing();
    let mut diff = f64::INFINITY;
    for it in 0..iters {
        jacobi_sweep(s, &u, &mut next, f, h2);
        if it + 1 == iters {
            diff = u.max_abs_diff(&next);
        }
        u.swap(&mut next);
    }
    (u, diff)
}

fn assert_bitwise(a: &Grid2D, b: &Grid2D, label: &str) -> Result<(), TestCaseError> {
    for r in 0..b.rows() {
        for c in 0..b.cols() {
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
    /// Strip decompositions: arbitrary block mixes up to the halo depth
    /// reproduce the sequential iterates bitwise, and the last block's
    /// reported diff is the sequential diff. Partitions can be single
    /// rows, far thinner than the `depth·reach` ghost frame.
    #[test]
    fn strip_deep_halo_blocks_match_sequential(
        n in 4usize..18,
        parts in 2usize..7,
        depth in 1usize..5,
        stencil_idx in 0usize..4,
        raw_blocks in prop::collection::vec(1usize..5, 1..5),
        threads in 1usize..5,
    ) {
        let s = &Stencil::catalog()[stencil_idx];
        let parts = parts.min(n);
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let d = StripDecomposition::new(n, parts);
        let mut exec = PartitionedJacobi::with_depth(&p, s, &d, depth);
        let mut total = 0usize;
        let mut last_diff = 0.0f64;
        let blocks = raw_blocks.len();
        // A pinned pool: grids this small would otherwise run inline.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for b in raw_blocks {
            let b = b.min(depth);
            last_diff = pool.install(|| exec.iterate_block(b, true)).unwrap();
            total += b;
        }
        prop_assert_eq!(exec.iterations(), total);
        prop_assert_eq!(exec.exchanges(), blocks);
        let (reference, ref_diff) = reference_iterates(&p, s, total);
        assert_bitwise(&exec.solution(), &reference, s.name())?;
        prop_assert_eq!(last_diff.to_bits(), ref_diff.to_bits(), "{} diff", s.name());
    }

    /// Rectangular decompositions: deep corners (needed even for the
    /// 5-point cross once depth > 1) deliver exact ghost data.
    #[test]
    fn rect_deep_halo_blocks_match_sequential(
        half_n in 3usize..10,
        pr in 2usize..4,
        pc in 1usize..3,
        depth in 2usize..5,
        stencil_idx in 0usize..4,
        rounds in 1usize..4,
    ) {
        // Even n so pc ∈ {1, 2} always divides it (the paper's legal
        // rectangles).
        let n = 2 * half_n;
        let s = &Stencil::catalog()[stencil_idx];
        let p = PoissonProblem::manufactured(n, Manufactured::Bubble);
        let d = RectDecomposition::new(n, pr.min(n), pc);
        let mut exec = PartitionedJacobi::with_depth(&p, s, &d, depth);
        for _ in 0..rounds {
            exec.iterate_block(depth, false);
        }
        let (reference, _) = reference_iterates(&p, s, rounds * depth);
        assert_bitwise(&exec.solution(), &reference, s.name())?;
    }

    /// Scheduled deep solves check at exactly the same iterations as the
    /// depth-1 executor (identical convergence, identical counts) while
    /// exchanging ~depth× less.
    #[test]
    fn deep_solve_schedules_are_equivalent(
        n in 8usize..16,
        parts in 2usize..5,
        depth in 2usize..5,
        period in 1usize..12,
    ) {
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let s = Stencil::five_point();
        let d = || StripDecomposition::new(n, parts);
        let policy = CheckPolicy::Every(period);
        let mut shallow = PartitionedJacobi::new(&p, &s, &d());
        let run1 = shallow.solve(1e-7, 50_000, policy);
        let mut deep = PartitionedJacobi::with_depth(&p, &s, &d(), depth);
        let runk = deep.solve(1e-7, 50_000, policy);
        prop_assert!(run1.converged && runk.converged);
        prop_assert_eq!(run1.iterations, runk.iterations);
        prop_assert_eq!(run1.checks, runk.checks);
        prop_assert_eq!(run1.final_diff.to_bits(), runk.final_diff.to_bits());
        assert_bitwise(&deep.solution(), &shallow.solution(), "deep vs shallow")?;
        // Exchange rounds shrink by ~depth: each check-gap of `period`
        // iterations costs ceil(period/depth) exchanges instead of
        // `period` (so period = 1 degenerates to equality).
        if period >= 2 {
            prop_assert!(deep.exchanges() < shallow.exchanges());
        } else {
            prop_assert_eq!(deep.exchanges(), shallow.exchanges());
        }
        prop_assert!(deep.exchanges() >= shallow.exchanges().div_ceil(depth));
    }
}

//! Property tests: the colour-split red-black solver and V-cycle are
//! bit-identical to the natural-layout sequential ones they replaced —
//! the iterate, the iteration count and `final_diff` — across odd and
//! even sides down to n = 1, relaxation factors, and pinned pools of 1,
//! 2 and 3 threads. The references below are the historical kernels,
//! kept unchanged as the oracle.

use parspeed_grid::Grid2D;
use parspeed_solver::{
    Boundary, Manufactured, MultigridSolver, PoissonProblem, RedBlackSolver, SolveStatus,
};
use proptest::prelude::*;

/// A problem with seeded forcing and non-trivial Dirichlet data.
fn seeded_problem(n: usize, seed: u64) -> PoissonProblem {
    let forcing = move |x: f64, y: f64| {
        let mut z = x.to_bits() ^ y.to_bits().rotate_left(17) ^ seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z >> 11) as f64 / (1u64 << 53) as f64) * 40.0 - 20.0
    };
    PoissonProblem::new(n, forcing, Boundary::Exact(Manufactured::Saddle))
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
}

fn assert_same(
    (u, s): &(Grid2D, SolveStatus),
    (u_ref, s_ref): &(Grid2D, SolveStatus),
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(s.iterations, s_ref.iterations, "{}: iterations", label);
    prop_assert_eq!(s.converged, s_ref.converged, "{}: converged", label);
    prop_assert_eq!(s.final_diff.to_bits(), s_ref.final_diff.to_bits(), "{}: final_diff", label);
    // Every padded cell: the interior and the Dirichlet ring.
    let bits = |g: &Grid2D| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert!(bits(u) == bits(u_ref), "{}: iterate differs", label);
    Ok(())
}

/// The historical red-black solve: in place on the natural layout, each
/// colour strided by 2, rows in order.
fn reference_red_black(cfg: &RedBlackSolver, p: &PoissonProblem) -> (Grid2D, SolveStatus) {
    let h2 = p.h() * p.h();
    let mut u = p.initial_grid(1);
    let f = p.forcing();
    let n = p.n();
    let mut iterations = 0;
    let mut diff = f64::INFINITY;
    while iterations < cfg.max_iters {
        let mut worst = [0.0f64; 2];
        for (color, worst) in worst.iter_mut().enumerate() {
            for r in 0..n {
                let mut c = (r + color) % 2;
                while c < n {
                    let (ri, ci) = (r as isize, c as isize);
                    let acc = u.get_h(ri - 1, ci)
                        + u.get_h(ri + 1, ci)
                        + u.get_h(ri, ci - 1)
                        + u.get_h(ri, ci + 1)
                        + h2 * f.get(r, c);
                    let old = u.get(r, c);
                    let new = old + cfg.omega * (acc * 0.25 - old);
                    *worst = worst.max((new - old).abs());
                    u.set(r, c, new);
                    c += 2;
                }
            }
        }
        iterations += 1;
        diff = worst[0].max(worst[1]);
        if diff < cfg.tol {
            return (u, SolveStatus { converged: true, iterations, final_diff: diff });
        }
    }
    (u, SolveStatus { converged: false, iterations, final_diff: diff })
}

fn ref_rb_sweep(u: &mut Grid2D, f: &Grid2D, h2: f64) {
    let n = u.rows();
    let halo = u.halo();
    let stride = u.stride();
    for color in 0..2usize {
        for r in 0..n {
            let frow = f.interior_row(r);
            let (above, mid, below) = u.split_row_mut(r);
            let up = &above[above.len() - stride..];
            let down = &below[..stride];
            let mut c = (r + color) % 2;
            while c < n {
                let j = c + halo;
                let acc = up[j] + down[j] + mid[j - 1] + mid[j + 1] + h2 * frow[c];
                mid[j] = acc * 0.25;
                c += 2;
            }
        }
    }
}

fn ref_residual(u: &Grid2D, f: &Grid2D, h2: f64, out: &mut Grid2D) {
    let n = u.rows();
    let halo = u.halo();
    for r in 0..n {
        let ri = r as isize;
        let up = u.padded_row(ri - 1);
        let mid = u.padded_row(ri);
        let down = u.padded_row(ri + 1);
        let frow = f.interior_row(r);
        let orow = out.interior_row_mut(r);
        for c in 0..n {
            let j = c + halo;
            let nb = up[j] + down[j] + mid[j - 1] + mid[j + 1];
            let au = (4.0 * mid[j] - nb) / h2;
            orow[c] = frow[c] - au;
        }
    }
}

fn ref_restrict(fine: &Grid2D, coarse: &mut Grid2D) {
    let nc = coarse.rows();
    for rc in 0..nc {
        for cc in 0..nc {
            let (rf, cf) = (2 * rc + 1, 2 * cc + 1);
            let at = |dr: isize, dc: isize| -> f64 {
                let r = rf as isize + dr;
                let c = cf as isize + dc;
                if r < 0 || c < 0 || r >= fine.rows() as isize || c >= fine.cols() as isize {
                    0.0
                } else {
                    fine.get(r as usize, c as usize)
                }
            };
            let v = 0.25 * at(0, 0)
                + 0.125 * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1))
                + 0.0625 * (at(-1, -1) + at(-1, 1) + at(1, -1) + at(1, 1));
            coarse.set(rc, cc, v);
        }
    }
}

fn ref_prolong_add(coarse: &Grid2D, fine: &mut Grid2D) {
    let nf = fine.rows();
    let nc = coarse.rows();
    let at = |r: isize, c: isize| -> f64 {
        if r < 0 || c < 0 || r >= nc as isize || c >= nc as isize {
            0.0
        } else {
            coarse.get(r as usize, c as usize)
        }
    };
    for r in 0..nf {
        for c in 0..nf {
            let (ri, ci) = (r as isize, c as isize);
            let v = if r % 2 == 1 && c % 2 == 1 {
                at((ri - 1) / 2, (ci - 1) / 2)
            } else if r % 2 == 1 {
                0.5 * (at((ri - 1) / 2, ci / 2 - 1) + at((ri - 1) / 2, ci / 2))
            } else if c % 2 == 1 {
                0.5 * (at(ri / 2 - 1, (ci - 1) / 2) + at(ri / 2, (ci - 1) / 2))
            } else {
                0.25 * (at(ri / 2 - 1, ci / 2 - 1)
                    + at(ri / 2 - 1, ci / 2)
                    + at(ri / 2, ci / 2 - 1)
                    + at(ri / 2, ci / 2))
            };
            fine.set(r, c, fine.get(r, c) + v);
        }
    }
}

fn ref_vcycle(u: &mut Grid2D, f: &Grid2D, h: f64, cfg: &MultigridSolver) {
    let n = u.rows();
    let h2 = h * h;
    if n <= 3 {
        for _ in 0..cfg.coarse_sweeps {
            ref_rb_sweep(u, f, h2);
        }
        return;
    }
    for _ in 0..cfg.pre_smooth {
        ref_rb_sweep(u, f, h2);
    }
    let mut res = Grid2D::new(n, n, 0);
    ref_residual(u, f, h2, &mut res);
    let nc = (n - 1) / 2;
    let mut coarse_f = Grid2D::new(nc, nc, 0);
    ref_restrict(&res, &mut coarse_f);
    let mut coarse_u = Grid2D::new(nc, nc, 1);
    ref_vcycle(&mut coarse_u, &coarse_f, 2.0 * h, cfg);
    ref_prolong_add(&coarse_u, u);
    for _ in 0..cfg.post_smooth {
        ref_rb_sweep(u, f, h2);
    }
}

/// The historical V-cycle solve: natural layout, serial, fresh level
/// grids every cycle.
fn reference_multigrid(cfg: &MultigridSolver, p: &PoissonProblem) -> (Grid2D, SolveStatus) {
    let n = p.n();
    let h = p.h();
    let h2 = h * h;
    let mut u = p.initial_grid(1);
    let f = p.forcing();
    let mut res = Grid2D::new(n, n, 0);
    ref_residual(&u, f, h2, &mut res);
    let norm0 = res.interior_fold(0.0f64, |a, v| a.max(v.abs())).max(f64::MIN_POSITIVE);
    let mut cycles = 0;
    let mut rel = 1.0;
    while cycles < cfg.max_cycles {
        ref_vcycle(&mut u, f, h, cfg);
        cycles += 1;
        ref_residual(&u, f, h2, &mut res);
        rel = res.interior_fold(0.0f64, |a, v| a.max(v.abs())) / norm0;
        if rel < cfg.tol {
            return (u, SolveStatus { converged: true, iterations: cycles, final_diff: rel });
        }
    }
    (u, SolveStatus { converged: false, iterations: cycles, final_diff: rel })
}

proptest! {
    /// Red-black SOR: sequential, self-sized and on pinned pools of 1, 2
    /// and 3 threads, against the natural-layout sequential solve.
    #[test]
    fn red_black_matches_the_natural_layout_sweep(
        n in 1usize..40,
        omega_pct in 50u64..195,
        max_iters in 0usize..25,
        tol_exp in 2i32..12,
        seed in 0u64..1_000_000,
    ) {
        let p = seeded_problem(n, seed);
        let cfg = RedBlackSolver {
            tol: 10f64.powi(-tol_exp),
            max_iters,
            omega: omega_pct as f64 / 100.0,
            parallel: true,
        };
        let reference = reference_red_black(&cfg, &p);
        assert_same(&cfg.sequential().solve(&p), &reference, "sequential")?;
        assert_same(&cfg.solve(&p), &reference, "self-sized")?;
        for threads in 1..=3 {
            let run = pool(threads).install(|| cfg.solve(&p));
            assert_same(&run, &reference, &format!("{threads} threads"))?;
        }
    }

    /// The V-cycle at every side 2^k − 1 up to 127, with varied smoothing
    /// and cycle budgets, on pinned pools of 1, 2 and 3 threads. (Without
    /// post-smoothing the prolongation's red cells survive the cycle; a
    /// first red half-sweep would overwrite them unread.)
    #[test]
    fn multigrid_matches_the_natural_layout_v_cycle(
        k in 1u32..8,
        max_cycles in 0usize..4,
        pre_smooth in 0usize..3,
        post_smooth in 0usize..3,
        tol_exp in 1i32..10,
        seed in 0u64..1_000_000,
    ) {
        let p = seeded_problem((1 << k) - 1, seed);
        let cfg = MultigridSolver {
            tol: 10f64.powi(-tol_exp),
            max_cycles,
            pre_smooth,
            post_smooth,
            coarse_sweeps: 8,
        };
        let reference = reference_multigrid(&cfg, &p);
        for threads in 1..=3 {
            let run = pool(threads).install(|| cfg.solve(&p));
            assert_same(&run, &reference, &format!("{threads} threads"))?;
        }
    }
}

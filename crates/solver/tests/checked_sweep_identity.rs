//! Property tests: the checked and blended Jacobi sweeps equal the
//! three-pass reference bit for bit. The reference is the tap-driven
//! sweep ([`jacobi_sweep_region_generic`]), then a separate ω-blend pass,
//! then a separate `f64::max` fold of `|prev − new|`; the sweeps under
//! test fold all three into their row kernels. Every engine `jacobi`
//! iteration runs the checked sweep, and every `parallel` block ends
//! with one.
//!
//! Three drivers run: the whole-grid [`jacobi_sweep_blend`],
//! [`jacobi_sweep_blend_region`] on offset and deep-halo expanded
//! regions, and [`jacobi_sweep_blend_par`] on pinned pools of 1–4
//! threads. The inputs cover all four catalogue stencils, ω = 1 and a
//! seeded ω in (0, 1), the diff on and off, row widths 1–40 (one and two
//! 8-cell chunks and their tails) plus one past the 512-column tile, and
//! grids salted with NaN, ±∞ and −0.0 cells. The salted cells pin the
//! fold's NaN rule: a NaN difference is skipped, as `f64::max` skips it.

use parspeed_grid::{Grid2D, Region};
use parspeed_solver::apply::{
    jacobi_sweep_blend, jacobi_sweep_blend_par, jacobi_sweep_blend_region,
    jacobi_sweep_region_generic,
};
use parspeed_stencil::Stencil;
use proptest::prelude::*;

/// A row width one past the fused kernels' 512-column tile, plus a tail.
const WIDE: usize = 512 + 37;

/// Spacing² of every sweep.
const H2: f64 = 0.003;

/// One drawn case: the stencil, the interior, the blend and the inputs.
#[derive(Clone, Copy)]
struct Case {
    stencil: usize,
    rows: usize,
    width: usize,
    omega: f64,
    diff: bool,
    seed: u64,
    /// About one cell in `salt` holds NaN, +∞, −∞ or −0.0 (0: none).
    salt: u64,
    /// Global corner of the region the offset drivers sweep.
    corner: (usize, usize),
    /// Sub-iterations of ghost zone around the deep-halo region.
    depth: usize,
    threads: usize,
}

/// Every padded cell of a `rows × cols` grid with `halo`, seeded: values
/// in [−2, 2), salted as [`Case::salt`] says.
fn salted_grid(rows: usize, cols: usize, halo: usize, seed: u64, salt: u64) -> Grid2D {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = state >> 11;
        if salt > 0 && x.is_multiple_of(salt) {
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][(x / salt % 4) as usize]
        } else {
            (x as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        }
    };
    let mut g = Grid2D::new(rows, cols, halo);
    let h = halo as isize;
    for r in -h..rows as isize + h {
        for c in -h..cols as isize + h {
            g.set_h(r, c, next());
        }
    }
    g
}

/// The three-pass reference over `region` (global coordinates; `offset`
/// maps them to local ones): the tap-driven sweep, a blend pass when
/// ω ≠ 1, and, when `diff`, an `f64::max` fold of `|prev − new|`.
/// Returns the fold, 0 without the diff.
#[allow(clippy::too_many_arguments)]
fn three_pass(
    s: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    region: &Region,
    offset: (usize, usize),
    omega: f64,
    diff: bool,
) -> f64 {
    jacobi_sweep_region_generic(s, src, dst, f, H2, region, offset);
    let cells = || {
        (region.r0..region.r1).flat_map(move |gr| {
            (region.c0..region.c1)
                .map(move |gc| (gr as isize - offset.0 as isize, gc as isize - offset.1 as isize))
        })
    };
    if omega != 1.0 {
        for (lr, lc) in cells() {
            let new = omega * dst.get_h(lr, lc) + (1.0 - omega) * src.get_h(lr, lc);
            dst.set_h(lr, lc, new);
        }
    }
    let mut worst = 0.0f64;
    if diff {
        for (lr, lc) in cells() {
            worst = worst.max((src.get_h(lr, lc) - dst.get_h(lr, lc)).abs());
        }
    }
    worst
}

/// Every padded cell equal, bit for bit. Two NaNs count as equal: a NaN's
/// payload depends on which operand of an addition the compiler put
/// first, and nothing reads it.
fn assert_same(a: &Grid2D, b: &Grid2D, label: &str) -> Result<(), TestCaseError> {
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()) {
            return Err(TestCaseError::fail(format!("{label}: padded cell {i}: {x:?} vs {y:?}")));
        }
    }
    Ok(())
}

/// Runs the three drivers on `case` against the three-pass reference.
fn check(case: Case) -> Result<(), TestCaseError> {
    let s = &Stencil::catalog()[case.stencil];
    let k = s.reach();
    let Case { rows, width, omega, diff, seed, salt, .. } = case;
    let label =
        format!("{} {rows}×{width} ω={omega} diff={diff} seed={seed} salt={salt}", s.name());

    // The whole interior: sequential, then row-parallel on a pinned pool.
    let src = salted_grid(rows, width, k, seed, salt);
    let f = salted_grid(rows, width, 0, seed ^ 0xf0f0, salt);
    let garbage = salted_grid(rows, width, k, seed ^ 0x5a5a, salt);
    let full = Region::new(0, rows, 0, width);
    let mut reference = garbage.clone();
    let d_ref = three_pass(s, &src, &mut reference, &f, &full, (0, 0), omega, diff);
    let mut seq = garbage.clone();
    let d = jacobi_sweep_blend(s, &src, &mut seq, &f, H2, omega, diff);
    assert_same(&seq, &reference, &format!("blend {label}"))?;
    prop_assert_eq!(d.to_bits(), d_ref.to_bits(), "blend diff {}", label);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(case.threads).build().unwrap();
    let mut par = garbage;
    let d = pool.install(|| jacobi_sweep_blend_par(s, &src, &mut par, &f, H2, omega, diff));
    assert_same(&par, &reference, &format!("par/{} {label}", case.threads))?;
    prop_assert_eq!(d.to_bits(), d_ref.to_bits(), "par diff {}", label);

    // A partition's owned region at `corner` of a larger global problem,
    // and the same partition swept with `depth·reach` ghost rows and
    // columns around it, out of a halo one reach deeper than the ghosts.
    let ghost = case.depth * k;
    let (r0, c0) = (case.corner.0 + ghost, case.corner.1 + ghost);
    let f = salted_grid(r0 + rows + ghost, c0 + width + ghost, 0, seed ^ 0xabcd, salt);
    let owned = Region::new(r0, r0 + rows, c0, c0 + width);
    let expanded = Region::new(r0 - ghost, r0 + rows + ghost, c0 - ghost, c0 + width + ghost);
    for (region, halo) in [(owned, k), (expanded, ghost + k)] {
        let src = salted_grid(rows, width, halo, seed ^ 0x1234, salt);
        let garbage = salted_grid(rows, width, halo, seed ^ 0x4321, salt);
        let mut reference = garbage.clone();
        let d_ref = three_pass(s, &src, &mut reference, &f, &region, (r0, c0), omega, diff);
        let mut out = garbage;
        let d =
            jacobi_sweep_blend_region(s, &src, &mut out, &f, H2, &region, (r0, c0), omega, diff);
        let label = format!("region {region:?} halo {halo} {label}");
        assert_same(&out, &reference, &label)?;
        prop_assert_eq!(d.to_bits(), d_ref.to_bits(), "diff {}", label);
    }
    Ok(())
}

proptest! {
    /// Narrow rows: every width up to five 8-cell chunks and its tail.
    #[test]
    fn checked_sweeps_match_the_three_pass_reference(
        stencil in 0usize..4,
        rows in 1usize..7,
        width in 1usize..41,
        damped in 0u8..2,
        omega in 0.01f64..0.99,
        diff in 0u8..2,
        seed in 0u64..1_000_000,
        salted in 0u8..2,
        corner in (0usize..4, 0usize..4),
        depth in 1usize..3,
        threads in 1usize..5,
    ) {
        check(Case {
            stencil,
            rows,
            width,
            omega: if damped == 1 { omega } else { 1.0 },
            diff: diff == 1,
            seed,
            salt: if salted == 1 { 24 } else { 0 },
            corner,
            depth,
            threads,
        })?;
    }
}

/// Rows wider than one column tile, so each row's kernel runs in two
/// tiles, on every stencil, blend and diff setting.
#[test]
fn checked_sweeps_match_across_the_column_tile() {
    for stencil in 0..4 {
        for (i, (omega, diff)) in
            [(1.0, true), (1.0, false), (0.63, true), (0.63, false)].into_iter().enumerate()
        {
            let case = Case {
                stencil,
                rows: 3,
                width: WIDE,
                omega,
                diff,
                seed: 7 * stencil as u64 + i as u64,
                salt: 24,
                corner: (1, 2),
                depth: 1,
                threads: 2,
            };
            if let Err(e) = check(case) {
                panic!("{e}");
            }
        }
    }
}

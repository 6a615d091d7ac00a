//! Norms and reductions, sequential and rayon-parallel.
//!
//! The sequential forms are the references (deterministic summation
//! order); the parallel forms are what a production solver would use for
//! convergence checks, fanned out only as far as the grid's size pays for.
//! Parallel L2 sums may differ from sequential by floating-point
//! reassociation, so equality tests use the max-norm (exact under any
//! association) and tolerance elsewhere.

use crate::apply::sweep_seconds;
use parspeed_grid::Grid2D;
use rayon::prelude::*;

/// Sequential max-norm of interior values.
pub fn linf(g: &Grid2D) -> f64 {
    g.interior_fold(0.0, |acc, v| acc.max(v.abs()))
}

/// Sequential L2 norm of interior values.
pub fn l2(g: &Grid2D) -> f64 {
    g.interior_fold(0.0, |acc, v| acc + v * v).sqrt()
}

/// Sequential max-norm of the interior difference of two grids.
pub fn linf_diff(a: &Grid2D, b: &Grid2D) -> f64 {
    a.max_abs_diff(b)
}

fn interior_rows(g: &Grid2D) -> impl IndexedParallelIterator<Item = &[f64]> {
    let halo = g.halo();
    let stride = g.stride();
    let cols = g.cols();
    g.as_slice()
        .par_chunks(stride)
        .skip(halo)
        .take(g.rows())
        .with_work(sweep_seconds(g.rows() * cols, 1.0))
        .map(move |row| &row[halo..halo + cols])
}

/// Rayon max-norm (bitwise equal to [`linf`]: max is associative).
pub fn linf_par(g: &Grid2D) -> f64 {
    interior_rows(g)
        .map(|row| row.iter().fold(0.0f64, |a, v| a.max(v.abs())))
        .reduce(|| 0.0, f64::max)
}

/// Rayon L2 norm (row sums sequential, row-combine parallel).
pub fn l2_par(g: &Grid2D) -> f64 {
    interior_rows(g).map(|row| row.iter().map(|v| v * v).sum::<f64>()).sum::<f64>().sqrt()
}

/// Rayon max-norm of the interior difference of two same-shape grids.
pub fn linf_diff_par(a: &Grid2D, b: &Grid2D) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    interior_rows(a)
        .zip(interior_rows(b))
        .map(|(ra, rb)| ra.iter().zip(rb).fold(0.0f64, |acc, (x, y)| acc.max((x - y).abs())))
        .reduce(|| 0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, halo: usize) -> Grid2D {
        let mut g = Grid2D::from_fn(n, n, halo, |r, c| ((r * 37 + c * 11) % 13) as f64 - 6.0);
        g.fill_halo(1.0e9); // halo junk must never leak into norms
        g
    }

    #[test]
    fn parallel_linf_is_bitwise_sequential() {
        for halo in [0usize, 1, 2] {
            let g = grid(33, halo);
            assert_eq!(linf(&g), linf_par(&g), "halo={halo}");
        }
    }

    #[test]
    fn parallel_l2_matches_to_roundoff() {
        let g = grid(64, 1);
        let (s, p) = (l2(&g), l2_par(&g));
        assert!((s - p).abs() / s < 1e-12, "{s} vs {p}");
    }

    #[test]
    fn diff_norms_agree() {
        let a = grid(21, 1);
        let mut b = grid(21, 1);
        b.set(10, 10, b.get(10, 10) + 0.5);
        assert_eq!(linf_diff(&a, &b), 0.5);
        assert_eq!(linf_diff_par(&a, &b), 0.5);
    }

    #[test]
    fn halo_junk_is_excluded() {
        let g = grid(8, 2);
        assert!(linf(&g) < 10.0);
        assert!(linf_par(&g) < 10.0);
        assert!(l2_par(&g) < 100.0);
    }

    #[test]
    fn zero_grid_norms() {
        let g = Grid2D::new(5, 5, 1);
        assert_eq!(linf_par(&g), 0.0);
        assert_eq!(l2_par(&g), 0.0);
    }
}

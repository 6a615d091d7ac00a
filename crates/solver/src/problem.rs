//! Problem setup: `-∇²u = f` on the unit square with Dirichlet boundary.

use crate::Manufactured;
use parspeed_grid::Grid2D;
use std::f64::consts::PI;

/// Dirichlet boundary data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Boundary {
    /// Constant boundary values — the paper's assumption (§3).
    Const(f64),
    /// Boundary (and ghost) values from a manufactured solution.
    Exact(Manufactured),
}

/// A discretized Poisson problem on the `n×n` interior grid of the unit
/// square: points `(i, j)` sit at `(x, y) = ((j+1)·h, (i+1)·h)` with
/// `h = 1/(n+1)`.
#[derive(Debug, Clone)]
pub struct PoissonProblem {
    n: usize,
    h: f64,
    f: Grid2D,
    boundary: Boundary,
}

impl PoissonProblem {
    /// Builds a problem with explicit forcing `f(x, y)` and boundary data.
    pub fn new(n: usize, forcing: impl Fn(f64, f64) -> f64, boundary: Boundary) -> Self {
        Self::sampled(n, boundary, |h| {
            move |r, c| forcing((c as f64 + 1.0) * h, (r as f64 + 1.0) * h)
        })
    }

    /// A manufactured-solution problem: forcing and boundary both from `m`.
    pub fn manufactured(n: usize, m: Manufactured) -> Self {
        if m != Manufactured::SinSin {
            return Self::new(n, |x, y| m.f(x, y), Boundary::Exact(m));
        }
        Self::sampled(n, Boundary::Exact(m), |h| {
            let s = sin_axis(n, h);
            move |r, c| 2.0 * PI * PI * s[c] * s[r]
        })
    }

    /// The problem whose forcing at interior point `(r, c)` is
    /// `forcing(h)(r, c)`.
    fn sampled<F: Fn(usize, usize) -> f64>(
        n: usize,
        boundary: Boundary,
        forcing: impl FnOnce(f64) -> F,
    ) -> Self {
        assert!(n > 0);
        let h = 1.0 / (n as f64 + 1.0);
        let f = Grid2D::from_fn(n, n, 0, forcing(h));
        Self { n, h, f, boundary }
    }

    /// The Laplace equation with constant boundary `value` (the paper's
    /// canonical workload).
    pub fn laplace(n: usize, value: f64) -> Self {
        Self::new(n, |_, _| 0.0, Boundary::Const(value))
    }

    /// Interior grid side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Grid spacing `h = 1/(n+1)`.
    pub fn h(&self) -> f64 {
        self.h
    }

    /// The forcing grid (interior points, no halo).
    pub fn forcing(&self) -> &Grid2D {
        &self.f
    }

    /// Boundary data.
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// Physical coordinates of interior point `(r, c)`.
    pub fn xy(&self, r: usize, c: usize) -> (f64, f64) {
        ((c as f64 + 1.0) * self.h, (r as f64 + 1.0) * self.h)
    }

    /// Allocates an initial-guess grid with halo width `halo`, interior
    /// zeroed, halo filled with the boundary data (ghost points of
    /// manufactured problems take the analytic extension, keeping wide
    /// stencils consistent near the boundary).
    pub fn initial_grid(&self, halo: usize) -> Grid2D {
        let mut g = Grid2D::new(self.n, self.n, halo);
        self.fill_boundary(&mut g);
        g
    }

    /// Writes boundary/ghost values into every halo cell of `g`.
    pub fn fill_boundary(&self, g: &mut Grid2D) {
        let halo = g.halo() as isize;
        let n = self.n as isize;
        for r in -halo..(n + halo) {
            for c in -halo..(n + halo) {
                let interior = r >= 0 && r < n && c >= 0 && c < n;
                if !interior {
                    g.set_h(r, c, self.boundary_at(r, c));
                }
            }
        }
    }

    /// The boundary/ghost value at halo cell `(r, c)`.
    pub(crate) fn boundary_at(&self, r: isize, c: isize) -> f64 {
        match self.boundary {
            Boundary::Const(v) => v,
            Boundary::Exact(m) => {
                let x = (c as f64 + 1.0) * self.h;
                let y = (r as f64 + 1.0) * self.h;
                m.u(x, y)
            }
        }
    }

    /// The analytic solution sampled on the interior grid, when known.
    pub fn exact_solution(&self) -> Option<Grid2D> {
        match self.boundary {
            Boundary::Exact(m) => Some(Grid2D::from_fn(self.n, self.n, 0, |r, c| {
                let (x, y) = self.xy(r, c);
                m.u(x, y)
            })),
            Boundary::Const(_) => None,
        }
    }

    /// Max-norm error of `u`'s interior against the analytic solution,
    /// when known — computed row by row, with no grid allocated.
    pub fn max_error(&self, u: &Grid2D) -> Option<f64> {
        let Boundary::Exact(m) = self.boundary else {
            return None;
        };
        let mut worst = 0.0f64;
        if m == Manufactured::SinSin {
            let s = sin_axis(self.n, self.h);
            for (r, &sr) in s.iter().enumerate() {
                for (&v, &sc) in u.interior_row(r).iter().zip(&s) {
                    worst = worst.max((v - sc * sr).abs());
                }
            }
        } else {
            for r in 0..self.n {
                for (c, &v) in u.interior_row(r).iter().enumerate() {
                    let (x, y) = self.xy(r, c);
                    worst = worst.max((v - m.u(x, y)).abs());
                }
            }
        }
        Some(worst)
    }
}

/// `sin(π·(i+1)·h)` for `i < n`: the sin·sin solution's factor along
/// either axis, in the same arithmetic as [`Manufactured::u`] at
/// [`PoissonProblem::xy`], so the factored forcing `2π²·s[c]·s[r]` and
/// solution `s[c]·s[r]` (in [`PoissonProblem::max_error`]) equal the
/// per-point forms bit for bit at one `sin` per index instead of two per
/// point. (`Bubble`'s `x(1−x)·y(1−y)` does not factor bit-exactly, so it
/// and `Saddle` stay per point.)
fn sin_axis(n: usize, h: f64) -> Vec<f64> {
    (0..n).map(|i| (PI * ((i as f64 + 1.0) * h)).sin()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_unit_square_interior() {
        let p = PoissonProblem::laplace(3, 0.0);
        assert_eq!(p.n(), 3);
        assert!((p.h() - 0.25).abs() < 1e-15);
        let (x, y) = p.xy(0, 0);
        assert!((x - 0.25).abs() < 1e-15 && (y - 0.25).abs() < 1e-15);
        let (x, y) = p.xy(2, 2);
        assert!((x - 0.75).abs() < 1e-15 && (y - 0.75).abs() < 1e-15);
    }

    #[test]
    fn laplace_forcing_is_zero() {
        let p = PoissonProblem::laplace(4, 7.0);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(p.forcing().get(r, c), 0.0);
            }
        }
        let g = p.initial_grid(1);
        assert_eq!(g.get_h(-1, 0), 7.0);
        assert_eq!(g.get_h(4, 4), 7.0);
    }

    #[test]
    fn manufactured_boundary_fills_ghosts() {
        let p = PoissonProblem::manufactured(4, Manufactured::Saddle);
        let g = p.initial_grid(2);
        // Ghost at (r=-1, c=0): x = 0.2·1 = 0.2, y = 0.0 → u = x²−y² = 0.04.
        let v = g.get_h(-1, 0);
        assert!((v - (0.2f64 * 0.2)).abs() < 1e-12, "got {v}");
        // Interior stays zero (initial guess).
        assert_eq!(g.get(0, 0), 0.0);
    }

    #[test]
    fn exact_solution_only_for_manufactured() {
        assert!(PoissonProblem::laplace(4, 0.0).exact_solution().is_none());
        let p = PoissonProblem::manufactured(4, Manufactured::SinSin);
        let u = p.exact_solution().unwrap();
        // Centre-ish point is positive.
        assert!(u.get(1, 1) > 0.0);
    }

    #[test]
    fn factored_sinsin_matches_the_per_point_formulas_bit_for_bit() {
        let m = Manufactured::SinSin;
        for n in [1usize, 2, 31, 64, 255] {
            let p = PoissonProblem::manufactured(n, m);
            // The per-point solution: any cell where the factored one
            // differs by an ulp makes the error non-zero.
            let exact = p.exact_solution().unwrap();
            assert_eq!(p.max_error(&exact), Some(0.0), "n={n}");
            let mut u = exact.clone();
            u.set(n / 2, n - 1, 0.5);
            let mut worst = 0.0f64;
            for r in 0..n {
                for c in 0..n {
                    let (x, y) = p.xy(r, c);
                    assert_eq!(p.forcing().get(r, c).to_bits(), m.f(x, y).to_bits(), "n={n}");
                    worst = worst.max((u.get(r, c) - m.u(x, y)).abs());
                }
            }
            assert_eq!(p.max_error(&u).unwrap().to_bits(), worst.to_bits(), "n={n}");
        }
    }

    #[test]
    fn max_error_only_for_manufactured() {
        let p = PoissonProblem::laplace(4, 0.0);
        assert!(p.max_error(&p.initial_grid(1)).is_none());
        let p = PoissonProblem::manufactured(4, Manufactured::Bubble);
        let exact = p.exact_solution().unwrap();
        assert_eq!(p.max_error(&exact), Some(0.0));
    }

    #[test]
    fn forcing_samples_the_manufactured_f() {
        let p = PoissonProblem::manufactured(3, Manufactured::Bubble);
        let (x, y) = p.xy(1, 1); // (0.5, 0.5)
        let expect = 2.0 * (x * (1.0 - x) + y * (1.0 - y));
        assert!((p.forcing().get(1, 1) - expect).abs() < 1e-15);
    }
}

//! Stencil sweep kernels: generic tap-driven vs fused row-slice vs rayon
//! row-parallel, and the fused sweep with its convergence check
//! (`fused_checked`: `jacobi_sweep_blend` at ω = 1 with the max-norm
//! update difference on, the kernel every engine `jacobi` iteration
//! runs), for all four catalogue stencils at n = 128 (cache-resident, the
//! `solve-small` sizes), 256 and 1024; and the colour-split solvers built
//! on the red-black half-sweep kernel — `RedBlackSolver` sequential and
//! self-sized, and one `MultigridSolver` V-cycle.
//!
//! The bench reports and asserts nothing. It is where to look when a
//! kernel change needs its speed checked: at n = 1024 the fused 9-point
//! and 13-point sweeps are expected at ≥ 3× the generic tap kernel
//! single-thread; `fused_checked` folds the check into the loop that
//! writes each cell, so it should read near `fused`; and sequential
//! red-black SOR is read against the fused 5-point rate (every row counts
//! grid points × iterations, so all read in the same points per second). Bit-identity is pinned by
//! `parspeed-solver`'s `fused_identity` and `colour_split_identity`
//! tests, and the repository benchmark's `kernel.fused_mpts` and
//! `kernel.gflops` track the fused rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parspeed_grid::{Grid2D, Region};
use parspeed_solver::apply::{
    jacobi_sweep, jacobi_sweep_blend, jacobi_sweep_par, jacobi_sweep_region_generic,
};
use parspeed_solver::{Manufactured, MultigridSolver, PoissonProblem, RedBlackSolver};
use parspeed_stencil::Stencil;
use std::hint::black_box;

fn setup(n: usize, halo: usize) -> (Grid2D, Grid2D, Grid2D) {
    let mut src = Grid2D::from_fn(n, n, halo, |r, c| ((r * 31 + c * 17) % 97) as f64 * 0.01);
    src.fill_halo(0.5);
    let dst = Grid2D::new(n, n, halo);
    let f = Grid2D::from_fn(n, n, 0, |r, c| ((r + c) % 5) as f64);
    (src, dst, f)
}

fn bench_kernels(c: &mut Criterion) {
    for n in [128usize, 256, 1024] {
        let mut g = c.benchmark_group(format!("jacobi_sweep_n{n}"));
        g.sample_size(10);
        g.measurement_time(std::time::Duration::from_millis(600));
        g.warm_up_time(std::time::Duration::from_millis(200));
        g.throughput(Throughput::Elements((n * n) as u64));

        for stencil in Stencil::catalog() {
            let halo = stencil.reach();
            let (src, mut dst, f) = setup(n, halo);
            let region = Region::new(0, n, 0, n);
            g.bench_function(BenchmarkId::new("generic", stencil.name()), |b| {
                b.iter(|| {
                    jacobi_sweep_region_generic(
                        &stencil,
                        black_box(&src),
                        &mut dst,
                        &f,
                        1e-4,
                        &region,
                        (0, 0),
                    )
                })
            });
            g.bench_function(BenchmarkId::new("fused", stencil.name()), |b| {
                b.iter(|| jacobi_sweep(&stencil, black_box(&src), &mut dst, &f, 1e-4))
            });
            g.bench_function(BenchmarkId::new("fused_checked", stencil.name()), |b| {
                b.iter(|| {
                    jacobi_sweep_blend(&stencil, black_box(&src), &mut dst, &f, 1e-4, 1.0, true)
                })
            });
            g.bench_function(BenchmarkId::new("parallel", stencil.name()), |b| {
                b.iter(|| jacobi_sweep_par(&stencil, black_box(&src), &mut dst, &f, 1e-4))
            });
        }
        g.finish();
    }
}

/// Red-black SOR iterations per measured solve, at a tolerance no
/// iterate reaches.
const RB_ITERS: usize = 10;

fn bench_colour_split(c: &mut Criterion) {
    for n in [255usize, 1023] {
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let mut g = c.benchmark_group(format!("colour_split_n{n}"));
        g.sample_size(10);
        g.measurement_time(std::time::Duration::from_millis(600));
        g.warm_up_time(std::time::Duration::from_millis(200));

        g.throughput(Throughput::Elements((n * n * RB_ITERS) as u64));
        let rb = RedBlackSolver { max_iters: RB_ITERS, ..RedBlackSolver::optimal(n, 0.0) };
        g.bench_function("rbsor_sequential", |b| b.iter(|| rb.sequential().solve(black_box(&p))));
        g.bench_function("rbsor_self_sized", |b| b.iter(|| rb.solve(black_box(&p))));

        g.throughput(Throughput::Elements((n * n) as u64));
        let mg = MultigridSolver { max_cycles: 1, ..Default::default() };
        g.bench_function("multigrid_one_cycle", |b| b.iter(|| mg.solve(black_box(&p))));
        g.finish();
    }
}

criterion_group!(benches, bench_kernels, bench_colour_split);
criterion_main!(benches);

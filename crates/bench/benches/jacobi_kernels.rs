//! Stencil sweep kernels: generic tap-driven vs fused row-slice vs rayon
//! row-parallel, for all four catalogue stencils.
//!
//! The bench reports and asserts nothing. It is where to look when a
//! kernel change needs its speed checked: at n = 1024 the fused 9-point
//! and 13-point sweeps are expected at ≥ 3× the generic tap kernel
//! single-thread. Bit-identity is pinned by `parspeed-solver`'s
//! `fused_identity` tests, and the repository benchmark's
//! `kernel.fused_mpts` and `kernel.gflops` track the fused rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parspeed_grid::{Grid2D, Region};
use parspeed_solver::apply::{
    jacobi_sweep, jacobi_sweep_5pt, jacobi_sweep_par, jacobi_sweep_region_generic,
};
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
    for n in [256usize, 1024] {
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
            g.bench_function(BenchmarkId::new("parallel", stencil.name()), |b| {
                b.iter(|| jacobi_sweep_par(&stencil, black_box(&src), &mut dst, &f, 1e-4))
            });
        }

        // The statically-typed 5-point fast path, for reference.
        let (src, mut dst, f) = setup(n, 1);
        g.bench_function(BenchmarkId::new("fused_static", "5-point"), |b| {
            b.iter(|| jacobi_sweep_5pt(black_box(&src), &mut dst, &f, 1e-4))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);

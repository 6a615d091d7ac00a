//! Box calibration, recorded with every run so each ratio has a base.

use crate::stats::median;
use parspeed_grid::Grid2D;
use parspeed_solver::apply::{jacobi_sweep, jacobi_sweep_par};
use parspeed_stencil::Stencil;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub nproc: usize,
    /// One empty `par_iter` terminal over `current_num_threads()` items.
    pub fanout_us: f64,
    /// Single-thread fused 5-point sweep at n = 1023.
    pub fused_mpts_1023: f64,
    /// `copy_from_slice` over a 64 MiB buffer. The reference box reports
    /// a 300 MiB L3, so this is a cache-influenced copy rate, not DRAM
    /// bandwidth.
    pub memcpy_gbps: f64,
}

impl Calibration {
    pub fn measure() -> Calibration {
        Calibration {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            fanout_us: pool_fanout_us(),
            fused_mpts_1023: sweep_mpts(1023, &Stencil::five_point(), false),
            memcpy_gbps: memcpy_gbps(),
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"nproc\":{},\"pool_fanout_us\":{:?},\"fused_mpts_1023\":{:?},\"memcpy_gbps\":{:?},\"memcpy_bytes\":{}}}",
            self.nproc, self.fanout_us, self.fused_mpts_1023, self.memcpy_gbps, COPY_BYTES
        )
    }
}

/// Median cost of fanning an empty terminal out to the pool's workers.
pub fn pool_fanout_us() -> f64 {
    let items: Vec<usize> = (0..rayon::current_num_threads()).collect();
    let samples: Vec<f64> = (0..201)
        .map(|_| {
            let t = Instant::now();
            items.par_iter().for_each(|x| {
                black_box(x);
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples[1..])
}

/// Jacobi sweep rate in million points per second, single-thread fused
/// (`jacobi_sweep`) or row-parallel (`jacobi_sweep_par`); median of five
/// timings of at least 20 ms each.
pub fn sweep_mpts(n: usize, stencil: &Stencil, parallel: bool) -> f64 {
    let halo = stencil.reach();
    let mut src = Grid2D::new(n, n, halo);
    src.fill(1.0);
    let mut dst = src.clone();
    let mut f = Grid2D::new(n, n, 0);
    f.fill(0.5);
    let h2 = 1.0 / ((n + 1) * (n + 1)) as f64;
    let mut timed = |sweeps: usize| {
        let t = Instant::now();
        for _ in 0..sweeps {
            if parallel {
                jacobi_sweep_par(stencil, &src, &mut dst, &f, h2);
            } else {
                jacobi_sweep(stencil, &src, &mut dst, &f, h2);
            }
            std::mem::swap(&mut src, &mut dst);
        }
        black_box(&src);
        t.elapsed().as_secs_f64()
    };
    // Enough sweeps for ~20 ms a sample, whatever one sweep costs (a
    // row-parallel sweep of a small grid is mostly fan-out).
    let sweeps = ((0.02 / timed(1).max(1e-9)) as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..5).map(|_| (n * n * sweeps) as f64 / timed(sweeps) / 1e6).collect();
    median(&samples)
}

const COPY_BYTES: usize = 64 << 20;

fn memcpy_gbps() -> f64 {
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&dst);
            COPY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

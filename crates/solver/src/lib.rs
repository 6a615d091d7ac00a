//! Real numerical solvers for the elliptic PDE substrate of the paper.
//!
//! The performance model abstracts "an iterative solution of these
//! equations (e.g. point Jacobi)" — this crate supplies the actual
//! numerics so the reproduction can run genuine workloads end to end:
//!
//! * [`PoissonProblem`] — `-∇²u = f` on the unit square, Dirichlet
//!   boundary, discretized on the paper's `n×n` interior grid;
//! * [`apply`] — stencil sweep kernels: fused row-slice kernels for all
//!   four catalogue stencils (dispatched via
//!   [`parspeed_stencil::Stencil::kernel_kind`], bit-identical to the
//!   generic tap-driven fallback), sequential and rayon row-parallel full
//!   sweeps, in-place SOR sweeps, and discrete residuals;
//! * [`JacobiSolver`] — point / weighted Jacobi (the algorithm the paper
//!   models), with [`CheckPolicy`]-scheduled convergence checks, the
//!   ω-blend and max-norm update diff fused into the sweep, and block-of-k
//!   temporal tiling between checks;
//! * [`CheckPolicy`] — fixed convergence-check schedules (§4, after Saltz,
//!   Naik & Nicol \[13\]), and [`run_schedule`], the one check-scheduled
//!   solve loop (blocks up to each check, resume, snapshots) that
//!   [`JacobiSolver`] and `parspeed-exec`'s partitioned executor both run
//!   through [`Stepper`];
//! * [`SorSolver`] — Gauss-Seidel and SOR with the optimal relaxation
//!   factor;
//! * [`RedBlackSolver`] — red-black Gauss-Seidel/SOR, the parallelizable
//!   ordering: the grid is split once into red and black planes, and each
//!   colour half-sweep updates its plane in place at unit stride,
//!   row-parallel on as many pool threads as its work pays for;
//! * [`CgSolver`] — conjugate gradients on the 5-point operator, whose
//!   global inner products are the §5 Adams–Crockett communication pattern;
//! * [`MultigridSolver`] — geometric V-cycle multigrid (the MGR\[v\]-class
//!   method of the paper's related work, ref \[7\]) on the same colour
//!   planes, every level allocated once per solve, its smoother the
//!   red-black half-sweep and its residual, restriction and prolongation
//!   row-parallel kernels that declare their own level's work, so fine
//!   levels run on the pool and coarse ones inline;
//! * [`Manufactured`] — analytic solutions for verification;
//! * [`CheckpointPolicy`] / [`CheckpointStore`] — checkpoint/restart for
//!   long solves: snapshots at convergence-check boundaries, bounded
//!   in-memory store keyed by the canonical cache-key hash, bit-identical
//!   resume (the serving tier's failover path picks a solve up where the
//!   lost shard left it instead of restarting at iteration zero).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apply;
mod cg;
mod checkpoint;
mod convergence;
mod jacobi;
mod manufactured;
mod multigrid;
mod problem;
mod redblack;
mod sor;
mod split;

pub use cg::{CgSolver, CgStats};
pub use checkpoint::{Checkpoint, CheckpointCtx, CheckpointPolicy, CheckpointStore};
pub use convergence::{run_schedule, CheckPolicy, CheckScheduler, SolveRun, Stepper};
pub use jacobi::JacobiSolver;
pub use manufactured::Manufactured;
pub use multigrid::{valid_side as multigrid_valid_side, MultigridSolver};
pub use problem::{Boundary, PoissonProblem};
pub use redblack::RedBlackSolver;
pub use sor::SorSolver;

/// Outcome of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStatus {
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Last max-norm update difference observed at a convergence check.
    pub final_diff: f64,
}

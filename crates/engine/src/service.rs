//! Builder-style constructors for [`Query`] values, and the wire version.
//!
//! [`Request`] is a namespace: each constructor starts a builder whose
//! defaults mirror the CLI's, and the builder's `query()` finishes it.
//! Queries go into the engine one way,
//! [`Engine::run_batch`](crate::Engine::run_batch): analytic
//! point queries, macro-queries, event-level simulations, real numerical
//! solves, wall-clock measurements and experiment regenerations all cross
//! the same plan → dedup → cache → parallel execute pipeline.
//!
//! ```
//! use parspeed_engine::{ArchKind, Engine, EvalValue, Request, Response};
//!
//! let engine = Engine::builder().build();
//! let query = Request::optimize(ArchKind::SyncBus, 256).procs(64).query();
//! let out = engine.run_batch(&[query]);
//! match &out.responses[0] {
//!     Response::Single(Ok(EvalValue::Optimum { processors, .. })) => {
//!         assert_eq!(*processors, 14); // the paper's §6.1 anchor
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```
//!
//! # Versioning
//!
//! [`WIRE_VERSION`] (2) is the current JSONL schema. The version gate is
//! the wire reader's ([`jsonl`](crate::jsonl)): v1 lines are still
//! accepted and answered in the legacy shape, newer ones are refused in
//! their own slot. Typed queries carry no version.

use crate::request::{
    ArchKind, CheckSpec, Lever, MachineSpec, MinSizeVariant, Query, ShapeKey, SimArchKind,
    SolverKind, StencilSpec, WorkloadSpec,
};

/// The current JSONL wire schema version.
pub const WIRE_VERSION: u32 = 2;

/// The namespace of the query builders (`Request::optimize(..)`, …);
/// it has no values.
pub enum Request {}

impl Request {
    /// Builder: optimal processor count and speedup for one instance.
    pub fn optimize(arch: ArchKind, n: usize) -> OptimizeBuilder {
        OptimizeBuilder {
            arch,
            machine: MachineSpec::default(),
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Square,
            procs: None,
            memory_words: None,
        }
    }

    /// Builder: smallest gainful grid for a full machine (Fig. 7).
    pub fn minsize(variant: MinSizeVariant, procs: usize) -> MinSizeBuilder {
        MinSizeBuilder { variant, machine: MachineSpec::default(), e: 6.0, k: 1.0, procs }
    }

    /// Builder: smallest grid reaching a target efficiency.
    pub fn isoeff(arch: ArchKind, procs: usize, efficiency: f64) -> IsoeffBuilder {
        IsoeffBuilder {
            arch,
            machine: MachineSpec::default(),
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Square,
            procs,
            efficiency,
        }
    }

    /// Builder: what a hardware upgrade buys (§6.1).
    pub fn leverage(lever: Lever, factor: f64, n: usize) -> LeverageBuilder {
        LeverageBuilder {
            machine: MachineSpec::default(),
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Square,
            procs: None,
            lever,
            factor,
        }
    }

    /// Builder: the paper's closing Table I at one grid size.
    pub fn table1(n: usize) -> Table1Builder {
        Table1Builder { machine: MachineSpec::default(), n, stencil: StencilSpec::FivePoint }
    }

    /// Builder: every architecture side by side on one instance.
    pub fn compare(n: usize) -> CompareBuilder {
        CompareBuilder {
            machine: MachineSpec::default(),
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Square,
            procs: None,
        }
    }

    /// Builder: one event-level iteration beside the closed form.
    pub fn simulate(arch: SimArchKind, n: usize, procs: usize) -> SimulateBuilder {
        SimulateBuilder {
            arch,
            machine: MachineSpec::default(),
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Strip,
            procs,
        }
    }

    /// Builder: actually solve the manufactured Poisson problem.
    pub fn solve(n: usize) -> SolveBuilder {
        SolveBuilder {
            n,
            solver: SolverKind::Jacobi,
            tol: 1e-8,
            stencil: StencilSpec::FivePoint,
            partitions: 4,
            max_iters: 200_000,
            check: None,
        }
    }

    /// Builder: time the real rayon executor across thread counts.
    pub fn threads(n: usize) -> ThreadsBuilder {
        ThreadsBuilder {
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Strip,
            threads: vec![1, 2, 4, 8],
            iters: 20,
            repeats: 3,
        }
    }

    /// Builder: a grid of optimize queries with doubling sides.
    pub fn sweep(n_from: usize, n_to: usize) -> SweepBuilder {
        SweepBuilder {
            archs: vec![ArchKind::SyncBus],
            machine: MachineSpec::default(),
            stencils: vec![StencilSpec::FivePoint],
            shapes: vec![ShapeKey::Square],
            budgets: vec![None],
            n_from,
            n_to,
        }
    }

    /// Builder: regenerate a reproduction experiment.
    pub fn experiment(id: impl Into<String>) -> ExperimentBuilder {
        ExperimentBuilder { id: id.into(), quick: false }
    }
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, $name: $ty) -> Self {
            self.$name = $name;
            self
        }
    };
}

/// Builds a [`Query::Optimize`].
#[derive(Debug, Clone, Copy)]
pub struct OptimizeBuilder {
    arch: ArchKind,
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: Option<usize>,
    memory_words: Option<f64>,
}

impl OptimizeBuilder {
    setter!(/// Machine description (preset plus overrides).
        machine: MachineSpec);
    setter!(/// Stencil (named or custom constants). Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default square.
        shape: ShapeKey);

    /// Caps the machine at `procs` processors (default: unlimited).
    pub fn procs(mut self, procs: usize) -> Self {
        self.procs = Some(procs);
        self
    }

    /// Adds a per-processor memory budget in words (fractional budgets
    /// are legal — the model is continuous).
    pub fn memory_words(mut self, words: f64) -> Self {
        self.memory_words = Some(words);
        self
    }

    /// The built query.
    pub fn query(self) -> Query {
        Query::Optimize {
            arch: self.arch,
            machine: self.machine,
            workload: WorkloadSpec { n: self.n, stencil: self.stencil, shape: self.shape },
            procs: self.procs,
            memory_words: self.memory_words,
        }
    }
}

/// Builds a [`Query::MinSize`].
#[derive(Debug, Clone, Copy)]
pub struct MinSizeBuilder {
    variant: MinSizeVariant,
    machine: MachineSpec,
    e: f64,
    k: f64,
    procs: usize,
}

impl MinSizeBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// `E(S)` constant. Default 6.0 (5-point).
        e: f64);
    setter!(/// `k(P,S)` constant (continuous). Default 1.0.
        k: f64);

    /// The built query.
    pub fn query(self) -> Query {
        Query::MinSize {
            variant: self.variant,
            machine: self.machine,
            e: self.e,
            k: self.k,
            procs: self.procs,
        }
    }
}

/// Builds a [`Query::Isoefficiency`].
#[derive(Debug, Clone, Copy)]
pub struct IsoeffBuilder {
    arch: ArchKind,
    machine: MachineSpec,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: usize,
    efficiency: f64,
}

impl IsoeffBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil. Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default square.
        shape: ShapeKey);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Isoefficiency {
            arch: self.arch,
            machine: self.machine,
            stencil: self.stencil,
            shape: self.shape,
            procs: self.procs,
            efficiency: self.efficiency,
        }
    }
}

/// Builds a [`Query::Leverage`].
#[derive(Debug, Clone, Copy)]
pub struct LeverageBuilder {
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: Option<usize>,
    lever: Lever,
    factor: f64,
}

impl LeverageBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil. Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default square.
        shape: ShapeKey);

    /// Caps the machine at `procs` processors (default: unlimited).
    pub fn procs(mut self, procs: usize) -> Self {
        self.procs = Some(procs);
        self
    }

    /// The built query.
    pub fn query(self) -> Query {
        Query::Leverage {
            machine: self.machine,
            workload: WorkloadSpec { n: self.n, stencil: self.stencil, shape: self.shape },
            procs: self.procs,
            lever: self.lever,
            factor: self.factor,
        }
    }
}

/// Builds a [`Query::Table1`].
#[derive(Debug, Clone, Copy)]
pub struct Table1Builder {
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
}

impl Table1Builder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil (catalog only). Default 5-point.
        stencil: StencilSpec);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Table1 { machine: self.machine, n: self.n, stencil: self.stencil }
    }
}

/// Builds a [`Query::Compare`].
#[derive(Debug, Clone, Copy)]
pub struct CompareBuilder {
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: Option<usize>,
}

impl CompareBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil. Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default square.
        shape: ShapeKey);

    /// Caps every architecture at `procs` processors (default: unlimited).
    pub fn procs(mut self, procs: usize) -> Self {
        self.procs = Some(procs);
        self
    }

    /// The built query.
    pub fn query(self) -> Query {
        Query::Compare {
            machine: self.machine,
            workload: WorkloadSpec { n: self.n, stencil: self.stencil, shape: self.shape },
            procs: self.procs,
        }
    }
}

/// Builds a [`Query::Simulate`].
#[derive(Debug, Clone, Copy)]
pub struct SimulateBuilder {
    arch: SimArchKind,
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: usize,
}

impl SimulateBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil (catalog only). Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default strip.
        shape: ShapeKey);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Simulate {
            arch: self.arch,
            machine: self.machine,
            workload: WorkloadSpec { n: self.n, stencil: self.stencil, shape: self.shape },
            procs: self.procs,
        }
    }
}

/// Builds a [`Query::Solve`].
#[derive(Debug, Clone, Copy)]
pub struct SolveBuilder {
    n: usize,
    solver: SolverKind,
    tol: f64,
    stencil: StencilSpec,
    partitions: usize,
    max_iters: usize,
    check: Option<CheckSpec>,
}

impl SolveBuilder {
    setter!(/// Which solver. Default Jacobi.
        solver: SolverKind);
    setter!(/// Convergence tolerance. Default 1e-8.
        tol: f64);
    setter!(/// Stencil (catalog only). Default 5-point.
        stencil: StencilSpec);
    setter!(/// Strip count for the parallel solver. Default 4.
        partitions: usize);
    setter!(/// Iteration cap. Default 200 000.
        max_iters: usize);

    /// Convergence-check schedule (wire field `check_policy`). Default:
    /// unset, i.e. the solver's historical behaviour — `every:1` for the
    /// sequential solvers, `geometric` for the parallel executor. Sparse
    /// schedules also widen the communication-avoiding blocks: temporal
    /// tiling in the sequential Jacobi path, deep-halo sub-iteration
    /// blocks in the partitioned one. Spelling out a solver's own default
    /// is canonicalized back to unset, so both forms share a cache line.
    pub fn check_policy(mut self, check: CheckSpec) -> Self {
        self.check = Some(check);
        self
    }

    /// The built query.
    pub fn query(self) -> Query {
        Query::Solve {
            n: self.n,
            solver: self.solver,
            tol: self.tol,
            stencil: self.stencil,
            partitions: self.partitions,
            max_iters: self.max_iters,
            check: self.check,
        }
    }
}

/// Builds a [`Query::Threads`].
#[derive(Debug, Clone)]
pub struct ThreadsBuilder {
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    threads: Vec<usize>,
    iters: usize,
    repeats: usize,
}

impl ThreadsBuilder {
    setter!(/// Stencil (catalog only). Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default strip.
        shape: ShapeKey);
    setter!(/// Thread counts to measure. Default `[1, 2, 4, 8]`.
        threads: Vec<usize>);
    setter!(/// Timed iterations per measurement. Default 20.
        iters: usize);
    setter!(/// Best-of repetitions. Default 3.
        repeats: usize);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Threads {
            n: self.n,
            stencil: self.stencil,
            shape: self.shape,
            threads: self.threads,
            iters: self.iters,
            repeats: self.repeats,
        }
    }
}

/// Builds a [`Query::Sweep`].
#[derive(Debug, Clone)]
pub struct SweepBuilder {
    archs: Vec<ArchKind>,
    machine: MachineSpec,
    stencils: Vec<StencilSpec>,
    shapes: Vec<ShapeKey>,
    budgets: Vec<Option<usize>>,
    n_from: usize,
    n_to: usize,
}

impl SweepBuilder {
    setter!(/// Architectures to sweep. Default `[SyncBus]`.
        archs: Vec<ArchKind>);
    setter!(/// Machine description (shared by the whole sweep).
        machine: MachineSpec);
    setter!(/// Stencils. Default `[FivePoint]`.
        stencils: Vec<StencilSpec>);
    setter!(/// Shapes. Default `[Square]`.
        shapes: Vec<ShapeKey>);
    setter!(/// Budgets (`None` = unlimited). Default `[None]`.
        budgets: Vec<Option<usize>>);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Sweep {
            archs: self.archs,
            machine: self.machine,
            stencils: self.stencils,
            shapes: self.shapes,
            budgets: self.budgets,
            n_from: self.n_from,
            n_to: self.n_to,
        }
    }
}

/// Builds a [`Query::Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    id: String,
    quick: bool,
}

impl ExperimentBuilder {
    setter!(/// Trim the sweeps. Default false.
        quick: bool);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Experiment { id: self.id, quick: self.quick }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::EvalValue;
    use crate::{Engine, Response};

    #[test]
    fn builders_fill_cli_defaults() {
        let q = Request::optimize(ArchKind::SyncBus, 256).query();
        match q {
            Query::Optimize { workload, procs, memory_words, .. } => {
                assert_eq!(workload.n, 256);
                assert_eq!(workload.stencil, StencilSpec::FivePoint);
                assert_eq!(workload.shape, ShapeKey::Square);
                assert_eq!(procs, None);
                assert_eq!(memory_words, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let q = Request::solve(63).solver(SolverKind::Multigrid).query();
        match q {
            Query::Solve { tol, partitions, max_iters, .. } => {
                assert_eq!(tol, 1e-8);
                assert_eq!(partitions, 4);
                assert_eq!(max_iters, 200_000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn engine_serves_a_builder_request() {
        let engine = Engine::builder().build();
        let out = engine.run_batch(&[Request::optimize(ArchKind::SyncBus, 256).procs(64).query()]);
        match &out.responses[0] {
            Response::Single(Ok(EvalValue::Optimum { processors, .. })) => {
                assert_eq!(*processors, 14);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The server hands each response to the job whose query sat at
    /// that position, so a batch interleaving several clients' queries
    /// must answer each query at its own index, exactly as if it ran
    /// alone, with duplicates coalesced onto one evaluation.
    #[test]
    fn interleaved_batches_answer_by_position_and_share_duplicates() {
        let engine = Engine::builder().build();
        let batch = [
            Request::optimize(ArchKind::SyncBus, 256).query(),
            Request::table1(512).query(),
            Request::optimize(ArchKind::SyncBus, 256).query(),
            Request::compare(128).query(),
        ];
        let out = engine.run_batch(&batch);
        assert_eq!(out.responses.len(), batch.len());
        for (i, query) in batch.iter().enumerate() {
            let alone = Engine::builder().build().run_batch(std::slice::from_ref(query));
            assert_eq!(out.responses[i], alone.responses[0], "slot {i}");
        }
        assert_eq!(out.responses[0], out.responses[2]);
        assert_eq!(out.telemetry.unique, out.telemetry.atoms - 1);
    }

    #[test]
    fn mixed_kind_requests_answer_in_order() {
        let engine = Engine::builder().build();
        let out = engine.run_batch(&[
            Request::table1(512).query(),
            Request::compare(128).query(),
            Request::minsize(MinSizeVariant::SyncSquare, 14).query(),
        ]);
        assert!(matches!(&out.responses[0], Response::Single(Ok(EvalValue::Table1 { .. }))));
        assert!(matches!(&out.responses[1], Response::Sweep(points) if points.len() == 6));
        assert!(matches!(&out.responses[2], Response::Single(Ok(EvalValue::MinSize { .. }))));
    }
}

//! Query and response types: what callers submit in a batch, the canonical
//! evaluation keys the planner dedups on, and the values that come back.
//!
//! The canonical form is the load-bearing idea. Two requests that *mean*
//! the same evaluation — a named stencil vs. its explicit `(E, k)`
//! constants, a machine preset vs. the same numbers spelled out, a budget
//! larger than the shape admits — collapse onto one [`EvalKey`], so the
//! executor computes each distinct point exactly once and the cache is
//! maximally effective.
//!
//! Queries and keys carry the model crates' own types for the paper's
//! discrete parameters: [`PartitionShape`], [`ProcessorBudget`],
//! [`BusVariant`] and, where a query needs tap geometry, [`KernelKind`].
//! The key types this module adds exist for floats, which are keyed by
//! their IEEE-754 bit patterns: [`F64Key`], and [`MachineKey`] and
//! [`CheckKey`] built from it. Canonicalization never rounds or
//! rescales, which is what keeps engine responses bit-identical to
//! direct `parspeed-core` calls.

use crate::error::ParspeedError;
use parspeed_core::minsize::BusVariant;
use parspeed_core::table1::Table1Row;
use parspeed_core::{
    ArchModel, AsyncBus, Banyan, BusParams, Hypercube, HypercubeParams, MachineParams, Mesh,
    ProcessorBudget, ScheduledBus, SwitchParams, SyncBus,
};
use parspeed_exec::measure::MeasuredPoint;
use parspeed_stencil::{KernelKind, PartitionShape, Stencil};

/// An `f64` keyed by its exact bit pattern (hashable, totally equatable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct F64Key(u64);

impl F64Key {
    /// Keys a float by its bits.
    pub fn new(x: f64) -> Self {
        Self(x.to_bits())
    }

    /// Recovers the exact float.
    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// The architecture classes the engine can evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Message-passing hypercube (§4).
    Hypercube,
    /// Nearest-neighbour mesh (§4–5).
    Mesh,
    /// Synchronous shared bus (§6).
    SyncBus,
    /// Asynchronous shared bus (§6.2).
    AsyncBus,
    /// The §8 batch-staggered bus scheduler.
    ScheduledBus,
    /// Banyan switching network (§7).
    Banyan,
}

impl ArchKind {
    /// Every architecture, in the paper's presentation order.
    pub fn all() -> [ArchKind; 6] {
        [
            ArchKind::Hypercube,
            ArchKind::Mesh,
            ArchKind::SyncBus,
            ArchKind::AsyncBus,
            ArchKind::ScheduledBus,
            ArchKind::Banyan,
        ]
    }

    /// The CLI/JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            ArchKind::Hypercube => "hypercube",
            ArchKind::Mesh => "mesh",
            ArchKind::SyncBus => "sync-bus",
            ArchKind::AsyncBus => "async-bus",
            ArchKind::ScheduledBus => "scheduled-bus",
            ArchKind::Banyan => "banyan",
        }
    }

    /// Parses the CLI/JSONL name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "hypercube" => ArchKind::Hypercube,
            "mesh" | "mesh2d" => ArchKind::Mesh,
            "sync-bus" => ArchKind::SyncBus,
            "async-bus" => ArchKind::AsyncBus,
            "scheduled-bus" => ArchKind::ScheduledBus,
            "banyan" => ArchKind::Banyan,
            other => {
                return Err(format!(
                    "unknown architecture `{other}`; one of: hypercube, mesh, sync-bus, \
                     async-bus, scheduled-bus, banyan"
                ))
            }
        })
    }

    /// Builds the analytic model for this architecture.
    pub fn model(self, m: &MachineParams) -> Box<dyn ArchModel> {
        match self {
            ArchKind::Hypercube => Box::new(Hypercube::new(m)),
            ArchKind::Mesh => Box::new(Mesh::new(m)),
            ArchKind::SyncBus => Box::new(SyncBus::new(m)),
            ArchKind::AsyncBus => Box::new(AsyncBus::new(m)),
            ArchKind::ScheduledBus => Box::new(ScheduledBus::new(m)),
            ArchKind::Banyan => Box::new(Banyan::new(m)),
        }
    }
}

/// A stencil, by catalog name or explicit model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StencilSpec {
    /// Classic 5-point Laplacian cross.
    FivePoint,
    /// Mehrstellen 3×3 box.
    NinePointBox,
    /// Fourth-order star with arms of reach 2.
    NinePointStar,
    /// Reach-2 star plus unit diagonals.
    ThirteenPoint,
    /// Explicit `(E(S), k(P,S))` constants for what-if analyses.
    Custom {
        /// Flops per point update.
        e: f64,
        /// Perimeters communicated per iteration.
        k: usize,
    },
}

impl StencilSpec {
    /// The CLI/JSONL name (custom stencils render their constants).
    pub fn name(self) -> String {
        match self {
            StencilSpec::FivePoint => "5pt".into(),
            StencilSpec::NinePointBox => "9pt-box".into(),
            StencilSpec::NinePointStar => "9pt-star".into(),
            StencilSpec::ThirteenPoint => "13pt".into(),
            StencilSpec::Custom { e, k } => format!("custom(e={e},k={k})"),
        }
    }

    /// Parses a catalog name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "5pt" | "5-point" => StencilSpec::FivePoint,
            "9pt-box" | "9-point-box" => StencilSpec::NinePointBox,
            "9pt-star" | "9-point-star" => StencilSpec::NinePointStar,
            "13pt" | "13-point-star" => StencilSpec::ThirteenPoint,
            other => {
                return Err(format!(
                    "unknown stencil `{other}`; one of: 5pt, 9pt-box, 9pt-star, 13pt"
                ))
            }
        })
    }

    /// The catalogue stencil a named spec denotes, or a custom spec's own
    /// `(E, k)` constants.
    fn resolve(self) -> Result<KernelKind, (f64, usize)> {
        Ok(match self {
            StencilSpec::FivePoint => KernelKind::FivePoint,
            StencilSpec::NinePointBox => KernelKind::NinePointBox,
            StencilSpec::NinePointStar => KernelKind::NinePointStar,
            StencilSpec::ThirteenPoint => KernelKind::ThirteenPointStar,
            StencilSpec::Custom { e, k } => return Err((e, k)),
        })
    }

    /// The canonical `(E(S), k(P,S))` constants for this spec under
    /// `shape` — exactly the constants
    /// [`Workload::new`](parspeed_core::Workload::new) would derive.
    ///
    /// The named-stencil table is derived from the catalog once and
    /// memoized: the planner calls this for every atom of every batch, and
    /// rebuilding tap lists 10⁴ times per batch is measurable.
    pub fn constants(self, shape: PartitionShape) -> (f64, usize) {
        use std::sync::OnceLock;
        static NAMED: OnceLock<[[(f64, usize); 2]; 4]> = OnceLock::new();
        let kind = match self.resolve() {
            Ok(kind) => kind,
            Err(custom) => return custom,
        };
        let table = NAMED.get_or_init(|| {
            KernelKind::all().map(|named| {
                let s = named.to_stencil();
                let e = s.calibrated_e().unwrap_or_else(|| s.flops_per_point());
                PartitionShape::all().map(|p| (e, s.perimeters(p)))
            })
        });
        table[kind as usize][shape as usize]
    }

    /// The catalogue stencil a query that needs tap geometry (a
    /// simulation, a solve, Table I, a thread measurement) runs on;
    /// custom constants have none, and answer `invalid_request`.
    pub fn kernel(self) -> Result<KernelKind, ParspeedError> {
        self.resolve().map_err(|_| {
            ParspeedError::invalid(
                "this query needs a catalog stencil (5pt, 9pt-box, 9pt-star, 13pt); \
                 custom (e, k) constants have no tap geometry",
            )
        })
    }

    /// The catalog [`Stencil`] a named spec denotes (`None` for
    /// [`StencilSpec::Custom`], which has no tap geometry).
    pub fn to_stencil(self) -> Option<Stencil> {
        self.resolve().ok().map(KernelKind::to_stencil)
    }
}

/// The machines the event-level simulator can run: the six model
/// architectures plus the XY-routed store-and-forward mesh, which has no
/// closed form of its own (it is compared against the [`ArchKind::Mesh`]
/// model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimArchKind {
    /// Message-passing hypercube.
    Hypercube,
    /// Nearest-neighbour mesh (model-matched exchange simulator).
    Mesh,
    /// XY-routed store-and-forward mesh (corner traffic pays real transit).
    Mesh2d,
    /// Synchronous shared bus.
    SyncBus,
    /// Asynchronous shared bus.
    AsyncBus,
    /// The §8 batch-staggered bus scheduler.
    ScheduledBus,
    /// Banyan switching network.
    Banyan,
}

impl SimArchKind {
    /// The analytic model this simulator is compared against (`Mesh2d`
    /// compares against the mesh model, as the CLI always has).
    pub fn model_kind(self) -> ArchKind {
        match self {
            SimArchKind::Hypercube => ArchKind::Hypercube,
            SimArchKind::Mesh | SimArchKind::Mesh2d => ArchKind::Mesh,
            SimArchKind::SyncBus => ArchKind::SyncBus,
            SimArchKind::AsyncBus => ArchKind::AsyncBus,
            SimArchKind::ScheduledBus => ArchKind::ScheduledBus,
            SimArchKind::Banyan => ArchKind::Banyan,
        }
    }

    /// The CLI/JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            SimArchKind::Hypercube => "hypercube",
            SimArchKind::Mesh => "mesh",
            SimArchKind::Mesh2d => "mesh2d",
            SimArchKind::SyncBus => "sync-bus",
            SimArchKind::AsyncBus => "async-bus",
            SimArchKind::ScheduledBus => "scheduled-bus",
            SimArchKind::Banyan => "banyan",
        }
    }

    /// Parses the CLI/JSONL name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "hypercube" => SimArchKind::Hypercube,
            "mesh" => SimArchKind::Mesh,
            "mesh2d" => SimArchKind::Mesh2d,
            "sync-bus" => SimArchKind::SyncBus,
            "async-bus" => SimArchKind::AsyncBus,
            "scheduled-bus" => SimArchKind::ScheduledBus,
            "banyan" => SimArchKind::Banyan,
            other => {
                return Err(format!(
                    "unknown simulator architecture `{other}`; one of: hypercube, mesh, mesh2d, \
                     sync-bus, async-bus, scheduled-bus, banyan"
                ))
            }
        })
    }
}

/// A convergence-check schedule in wire form — when the solver checks the
/// max-norm update difference against its tolerance (§4's scheduling
/// knob, [`parspeed_solver::CheckPolicy`] on the wire). The gap between
/// checks is also the block budget the communication-avoiding loops
/// spend: temporal tiling in the sequential solvers, deep-halo
/// sub-iteration blocks in the partitioned one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckSpec {
    /// Check at iterations `d, 2d, 3d, …`.
    Every(usize),
    /// Check at `start`, then grow the gap geometrically by `factor` up
    /// to `max_interval`.
    Geometric {
        /// First check iteration.
        start: usize,
        /// Gap growth factor (> 1).
        factor: f64,
        /// Largest allowed gap between checks.
        max_interval: usize,
    },
}

impl CheckSpec {
    /// The default geometric schedule (first check at 8, ×1.5 growth,
    /// gaps capped at 256) — what `solver=parallel` uses when no policy
    /// is given.
    pub fn geometric() -> Self {
        CheckSpec::Geometric { start: 8, factor: 1.5, max_interval: 256 }
    }

    /// The CLI/JSONL name: `every:N`, or `geometric:start,factor,max`.
    pub fn name(self) -> String {
        match self {
            CheckSpec::Every(d) => format!("every:{d}"),
            CheckSpec::Geometric { start, factor, max_interval } => {
                format!("geometric:{start},{factor},{max_interval}")
            }
        }
    }

    /// Parses the CLI/JSONL name: `every` (= `every:1`), `every:N`,
    /// `geometric` (the default schedule), or
    /// `geometric:start,factor,max_interval`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let err = || {
            format!(
                "unknown check policy `{s}`; one of: every, every:N, geometric, \
                 geometric:start,factor,max_interval"
            )
        };
        let (head, args) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match (head, args) {
            ("every", None) => Ok(CheckSpec::Every(1)),
            ("every", Some(a)) => {
                let d: usize = a.trim().parse().map_err(|_| err())?;
                Ok(CheckSpec::Every(d))
            }
            ("geometric", None) => Ok(CheckSpec::geometric()),
            ("geometric", Some(a)) => {
                let parts: Vec<&str> = a.split(',').map(str::trim).collect();
                if parts.len() != 3 {
                    return Err(err());
                }
                Ok(CheckSpec::Geometric {
                    start: parts[0].parse().map_err(|_| err())?,
                    factor: parts[1].parse().map_err(|_| err())?,
                    max_interval: parts[2].parse().map_err(|_| err())?,
                })
            }
            _ => Err(err()),
        }
    }

    /// The solver-side policy this spec denotes.
    pub fn to_policy(self) -> parspeed_solver::CheckPolicy {
        match self {
            CheckSpec::Every(d) => parspeed_solver::CheckPolicy::Every(d),
            CheckSpec::Geometric { start, factor, max_interval } => {
                parspeed_solver::CheckPolicy::Geometric { start, factor, max_interval }
            }
        }
    }
}

/// The canonical (bit-exact, hashable) form of a [`CheckSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKey {
    /// Check at iterations `d, 2d, 3d, …`.
    Every(usize),
    /// Geometric gap growth.
    Geometric {
        /// First check iteration.
        start: usize,
        /// Factor bits.
        factor: F64Key,
        /// Gap cap.
        max_interval: usize,
    },
}

impl CheckKey {
    /// Canonicalizes a spec.
    pub fn from_spec(spec: CheckSpec) -> Self {
        match spec {
            CheckSpec::Every(d) => CheckKey::Every(d),
            CheckSpec::Geometric { start, factor, max_interval } => {
                CheckKey::Geometric { start, factor: F64Key::new(factor), max_interval }
            }
        }
    }

    /// The equivalent spec (bit-identical round trip).
    pub fn to_spec(self) -> CheckSpec {
        match self {
            CheckKey::Every(d) => CheckSpec::Every(d),
            CheckKey::Geometric { start, factor, max_interval } => {
                CheckSpec::Geometric { start, factor: factor.get(), max_interval }
            }
        }
    }

    /// The solver-side policy this key denotes.
    pub fn to_policy(self) -> parspeed_solver::CheckPolicy {
        self.to_spec().to_policy()
    }
}

/// The numerical solvers a [`Query::Solve`] can pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Point Jacobi.
    Jacobi,
    /// SOR at the optimal relaxation factor.
    Sor,
    /// Red-black SOR.
    RedBlack,
    /// Conjugate gradient.
    Cg,
    /// Geometric multigrid V-cycles (needs `n = 2^k − 1`).
    Multigrid,
    /// Rayon-partitioned Jacobi (bit-identical to sequential Jacobi).
    Parallel,
}

impl SolverKind {
    /// The CLI/JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Jacobi => "jacobi",
            SolverKind::Sor => "sor",
            SolverKind::RedBlack => "rbsor",
            SolverKind::Cg => "cg",
            SolverKind::Multigrid => "multigrid",
            SolverKind::Parallel => "parallel",
        }
    }

    /// Parses the CLI/JSONL name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "jacobi" => SolverKind::Jacobi,
            "sor" => SolverKind::Sor,
            "rbsor" => SolverKind::RedBlack,
            "cg" => SolverKind::Cg,
            "multigrid" => SolverKind::Multigrid,
            "parallel" => SolverKind::Parallel,
            other => {
                return Err(format!(
                    "unknown solver `{other}`; one of: jacobi, sor, rbsor, cg, multigrid, parallel"
                ))
            }
        })
    }

    /// Whether the solver's iteration reads the stencil's tap list (the
    /// others fix their own 5-point operator, so the stencil field is
    /// canonicalized away and identical runs dedup).
    pub fn uses_stencil(self) -> bool {
        matches!(self, SolverKind::Jacobi | SolverKind::Sor | SolverKind::Parallel)
    }

    /// Whether the solver schedules convergence checks with a
    /// [`CheckSpec`] (the others check every iteration by construction,
    /// so the policy field is canonicalized away and identical runs
    /// dedup).
    pub fn uses_check_policy(self) -> bool {
        matches!(self, SolverKind::Jacobi | SolverKind::Sor | SolverKind::Parallel)
    }

    /// The check schedule this solver runs when the request leaves the
    /// policy unset — the pre-`check_policy` wire behaviour, kept so
    /// legacy v2 requests answer identically.
    pub fn default_check(self) -> CheckSpec {
        match self {
            SolverKind::Parallel => CheckSpec::geometric(),
            _ => CheckSpec::Every(1),
        }
    }
}

/// A machine description: a preset plus optional overrides, mirroring the
/// CLI's machine flags.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MachineSpec {
    /// Start from the FLEX/32 overhead regime instead of the `c = 0`
    /// idealization.
    pub flex32: bool,
    /// Seconds per flop override.
    pub tfp: Option<f64>,
    /// Bus cycle override.
    pub b: Option<f64>,
    /// Bus per-word overhead override.
    pub c: Option<f64>,
    /// Message per-packet cost override (hypercube and mesh).
    pub alpha: Option<f64>,
    /// Message startup override (hypercube and mesh).
    pub beta: Option<f64>,
    /// Packet capacity override (hypercube and mesh).
    pub packet: Option<usize>,
    /// Switch stage traversal override.
    pub w: Option<f64>,
}

impl MachineSpec {
    /// True when no override is set (the spec is exactly a preset).
    fn is_bare_preset(&self) -> bool {
        self.tfp.is_none()
            && self.b.is_none()
            && self.c.is_none()
            && self.alpha.is_none()
            && self.beta.is_none()
            && self.packet.is_none()
            && self.w.is_none()
    }

    /// The canonical key this spec resolves to, or `invalid_request` when
    /// an override lies outside the models' domain: every field finite,
    /// `tfp` > 0, `packet` ≥ 1, and the other costs ≥ 0. Bare presets —
    /// the bulk of real traffic — are memoized; the planner calls this
    /// per query.
    pub fn to_key(&self) -> Result<MachineKey, ParspeedError> {
        use std::sync::OnceLock;
        static PRESETS: OnceLock<[MachineKey; 2]> = OnceLock::new();
        if self.is_bare_preset() {
            let presets = PRESETS.get_or_init(|| {
                [
                    MachineKey::new(&MachineParams::paper_defaults()),
                    MachineKey::new(&MachineParams::flex32_defaults()),
                ]
            });
            Ok(presets[self.flex32 as usize])
        } else {
            self.check()?;
            Ok(MachineKey::new(&self.resolve()))
        }
    }

    /// Checks every override against the domain the models are defined
    /// on: each field finite, `tfp` > 0, `packet` ≥ 1, and `b`, `c`,
    /// `alpha`, `beta` and `w` ≥ 0 — zero is the paper's
    /// free-communication idealization. Outside it the closed forms
    /// divide by zero or leave the paper's cubic form, and the simulator
    /// schedules negative or infinite work.
    fn check(&self) -> Result<(), ParspeedError> {
        let costs = [
            ("tfp", self.tfp),
            ("b", self.b),
            ("c", self.c),
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("w", self.w),
        ];
        for (name, value) in costs {
            let Some(x) = value else { continue };
            let (in_domain, domain) =
                if name == "tfp" { (x > 0.0, "positive") } else { (x >= 0.0, "non-negative") };
            if !(x.is_finite() && in_domain) {
                return Err(ParspeedError::invalid(format!(
                    "machine.{name} must be {domain} and finite, got {x}"
                )));
            }
        }
        if self.packet == Some(0) {
            return Err(ParspeedError::invalid("machine.packet must be at least 1"));
        }
        Ok(())
    }

    /// Resolves the spec into concrete machine parameters.
    pub fn resolve(&self) -> MachineParams {
        let mut m = if self.flex32 {
            MachineParams::flex32_defaults()
        } else {
            MachineParams::paper_defaults()
        };
        if let Some(tfp) = self.tfp {
            m.tfp = tfp;
        }
        if let Some(b) = self.b {
            m.bus.b = b;
        }
        if let Some(c) = self.c {
            m.bus.c = c;
        }
        if let Some(alpha) = self.alpha {
            m.hypercube.alpha = alpha;
            m.mesh.alpha = alpha;
        }
        if let Some(beta) = self.beta {
            m.hypercube.beta = beta;
            m.mesh.beta = beta;
        }
        if let Some(packet) = self.packet {
            m.hypercube.packet_words = packet;
            m.mesh.packet_words = packet;
        }
        if let Some(w) = self.w {
            m.switch.w = w;
        }
        m
    }
}

/// The canonical (bit-exact, hashable) form of [`MachineParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineKey {
    tfp: F64Key,
    bus_b: F64Key,
    bus_c: F64Key,
    hc_alpha: F64Key,
    hc_beta: F64Key,
    hc_packet: usize,
    mesh_alpha: F64Key,
    mesh_beta: F64Key,
    mesh_packet: usize,
    switch_w: F64Key,
}

impl MachineKey {
    /// Canonicalizes resolved machine parameters.
    pub fn new(m: &MachineParams) -> Self {
        Self {
            tfp: F64Key::new(m.tfp),
            bus_b: F64Key::new(m.bus.b),
            bus_c: F64Key::new(m.bus.c),
            hc_alpha: F64Key::new(m.hypercube.alpha),
            hc_beta: F64Key::new(m.hypercube.beta),
            hc_packet: m.hypercube.packet_words,
            mesh_alpha: F64Key::new(m.mesh.alpha),
            mesh_beta: F64Key::new(m.mesh.beta),
            mesh_packet: m.mesh.packet_words,
            switch_w: F64Key::new(m.switch.w),
        }
    }

    /// Recovers the exact machine parameters (bit-identical round trip).
    pub fn to_params(self) -> MachineParams {
        MachineParams {
            tfp: self.tfp.get(),
            bus: BusParams { b: self.bus_b.get(), c: self.bus_c.get() },
            hypercube: HypercubeParams {
                alpha: self.hc_alpha.get(),
                beta: self.hc_beta.get(),
                packet_words: self.hc_packet,
            },
            mesh: HypercubeParams {
                alpha: self.mesh_alpha.get(),
                beta: self.mesh_beta.get(),
                packet_words: self.mesh_packet,
            },
            switch: SwitchParams { w: self.switch_w.get() },
        }
    }
}

/// Which hardware lever a leverage query pulls (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lever {
    /// Multiply the bus speed.
    Bus,
    /// Multiply the floating-point speed.
    Flop,
    /// Scale the fixed per-word overhead `c`.
    Overhead,
}

impl Lever {
    /// The CLI/JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            Lever::Bus => "bus",
            Lever::Flop => "flop",
            Lever::Overhead => "overhead",
        }
    }

    /// Parses the CLI/JSONL name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(match name {
            "bus" => Lever::Bus,
            "flop" => Lever::Flop,
            "overhead" | "c" => Lever::Overhead,
            other => return Err(format!("unknown lever `{other}`; one of: bus, flop, overhead")),
        })
    }
}

/// A problem instance spec: grid side, stencil, shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Grid side `n`.
    pub n: usize,
    /// Stencil (named or custom constants).
    pub stencil: StencilSpec,
    /// Partition shape.
    pub shape: PartitionShape,
}

/// One query in a batch. `Sweep` is a macro-query the planner expands into
/// many `Optimize` evaluations.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Optimal processor count and speedup for one instance.
    Optimize {
        /// Architecture to optimize on.
        arch: ArchKind,
        /// Machine description.
        machine: MachineSpec,
        /// Problem instance.
        workload: WorkloadSpec,
        /// Processor budget (`None` = unlimited).
        procs: Option<usize>,
        /// Optional per-processor memory budget in words (fractional
        /// budgets are legal — the model is continuous).
        memory_words: Option<f64>,
    },
    /// Closed-form smallest grid gainfully using all `procs` processors.
    MinSize {
        /// Bus variant.
        variant: BusVariant,
        /// Machine description.
        machine: MachineSpec,
        /// `E(S)` constant.
        e: f64,
        /// `k(P,S)` constant.
        k: f64,
        /// Full machine size.
        procs: usize,
    },
    /// Smallest grid reaching a target efficiency on `procs` processors.
    Isoefficiency {
        /// Architecture.
        arch: ArchKind,
        /// Machine description.
        machine: MachineSpec,
        /// Stencil (supplies `E`, `k`).
        stencil: StencilSpec,
        /// Partition shape.
        shape: PartitionShape,
        /// Processor count held fixed.
        procs: usize,
        /// Target efficiency in `(0, 1)`.
        efficiency: f64,
    },
    /// What a hardware upgrade buys at the re-optimized partitioning
    /// (synchronous bus, as in the paper's §6.1).
    Leverage {
        /// Machine description.
        machine: MachineSpec,
        /// Problem instance.
        workload: WorkloadSpec,
        /// Processor budget (`None` = unlimited).
        procs: Option<usize>,
        /// Which constant improves.
        lever: Lever,
        /// Improvement factor (speed multiplier; scale factor for
        /// [`Lever::Overhead`]).
        factor: f64,
    },
    /// The paper's closing Table I evaluated at one grid size: the four
    /// closed-form optimal-speedup rows.
    Table1 {
        /// Machine description.
        machine: MachineSpec,
        /// Grid side.
        n: usize,
        /// Stencil (catalog only — the formulas need tap geometry).
        stencil: StencilSpec,
    },
    /// Every architecture optimized side by side on one instance — a
    /// macro-query the planner expands into six `Optimize` evaluations, so
    /// compares dedup against plain optimize traffic.
    Compare {
        /// Machine description.
        machine: MachineSpec,
        /// Problem instance.
        workload: WorkloadSpec,
        /// Processor budget (`None` = unlimited).
        procs: Option<usize>,
    },
    /// One event-level iteration on a simulated machine, beside the
    /// analytic model's prediction.
    Simulate {
        /// Machine class to simulate.
        arch: SimArchKind,
        /// Machine description.
        machine: MachineSpec,
        /// Problem instance (catalog stencil only).
        workload: WorkloadSpec,
        /// Processor count (exact, not a budget).
        procs: usize,
    },
    /// Actually solve the manufactured sin·sin Poisson problem with a real
    /// numerical solver.
    Solve {
        /// Grid side.
        n: usize,
        /// Which solver.
        solver: SolverKind,
        /// Convergence tolerance.
        tol: f64,
        /// Stencil for the solvers that read one (catalog only).
        stencil: StencilSpec,
        /// Strip count for [`SolverKind::Parallel`] (ignored otherwise).
        partitions: usize,
        /// Iteration cap.
        max_iters: usize,
        /// Convergence-check schedule for the solvers that take one
        /// (`None` = the solver's historical default: `every:1`, or
        /// `geometric` for the parallel executor).
        check: Option<CheckSpec>,
    },
    /// Time the real rayon-partitioned executor across thread counts. A
    /// wall-clock *measurement*, not a pure evaluation: it is never deduped
    /// or cached, and runs after the parallel phase so timings are not
    /// polluted by concurrent model evaluations.
    Threads {
        /// Grid side.
        n: usize,
        /// Stencil (catalog only).
        stencil: StencilSpec,
        /// Partition shape.
        shape: PartitionShape,
        /// Thread counts to measure.
        threads: Vec<usize>,
        /// Timed iterations per measurement.
        iters: usize,
        /// Repetitions (best-of).
        repeats: usize,
    },
    /// Regenerate a reproduction experiment through the runner registered
    /// at engine construction (dependency-inverted: the experiment harness
    /// sits above this crate). Uncached — some experiments measure wall
    /// time.
    Experiment {
        /// Experiment id (`e1`..`e16` or `all`).
        id: String,
        /// Trim the sweeps.
        quick: bool,
    },
    /// A grid of `Optimize` queries: every combination of architecture,
    /// stencil, shape, and budget, with the grid side doubling from
    /// `n_from` to `n_to`.
    Sweep {
        /// Architectures.
        archs: Vec<ArchKind>,
        /// Machine description (shared by the whole sweep).
        machine: MachineSpec,
        /// Stencils.
        stencils: Vec<StencilSpec>,
        /// Shapes.
        shapes: Vec<PartitionShape>,
        /// Budgets (`None` = unlimited).
        budgets: Vec<Option<usize>>,
        /// First grid side.
        n_from: usize,
        /// Last grid side (inclusive; sides double from `n_from`).
        n_to: usize,
    },
}

impl Query {
    /// Whether re-executing this query after a failure is safe —
    /// i.e. whether the serving tier may transparently retry it on
    /// another shard.
    ///
    /// Every query but two is a pure function of its parameters
    /// (deterministic model evaluation, cached like a value), so
    /// running it twice is invisible. [`Query::Threads`] is a
    /// wall-clock *measurement* and [`Query::Experiment`] may time
    /// real executions, so a retry would silently answer with a
    /// different measurement than the one that was lost; the router
    /// refuses to fail those over and answers `overloaded` with a
    /// `retry_after_ms` hint instead, leaving the retry decision to
    /// the caller.
    pub fn retry_safe(&self) -> bool {
        !matches!(self, Query::Threads { .. } | Query::Experiment { .. })
    }
}

/// The canonical, deduplicated form of one atomic evaluation. Everything
/// the evaluator needs is in the key; everything presentational (names,
/// labels) is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalKey {
    /// One optimizer run.
    Optimize {
        /// Architecture.
        arch: ArchKind,
        /// Canonical machine.
        machine: MachineKey,
        /// Grid side.
        n: usize,
        /// Shape.
        shape: PartitionShape,
        /// `E(S)` bits.
        e: F64Key,
        /// `k(P,S)`.
        k: usize,
        /// Budget.
        budget: ProcessorBudget,
        /// Optional memory budget bits (words per processor).
        memory_words: Option<F64Key>,
    },
    /// One closed-form minimum-size evaluation.
    MinSize {
        /// Bus variant.
        variant: BusVariant,
        /// Canonical machine.
        machine: MachineKey,
        /// `E(S)` bits.
        e: F64Key,
        /// `k` bits (continuous in the closed form).
        k: F64Key,
        /// Machine size.
        procs: usize,
    },
    /// One isoefficiency threshold search.
    Isoefficiency {
        /// Architecture.
        arch: ArchKind,
        /// Canonical machine.
        machine: MachineKey,
        /// Shape.
        shape: PartitionShape,
        /// `E(S)` bits.
        e: F64Key,
        /// `k(P,S)`.
        k: usize,
        /// Processor count.
        procs: usize,
        /// Target efficiency bits.
        efficiency: F64Key,
    },
    /// One leverage what-if.
    Leverage {
        /// Canonical machine.
        machine: MachineKey,
        /// Grid side.
        n: usize,
        /// Shape.
        shape: PartitionShape,
        /// `E(S)` bits.
        e: F64Key,
        /// `k(P,S)`.
        k: usize,
        /// Budget.
        budget: ProcessorBudget,
        /// Lever pulled.
        lever: Lever,
        /// Factor bits.
        factor: F64Key,
    },
    /// One Table-I evaluation (all four rows).
    Table1 {
        /// Canonical machine.
        machine: MachineKey,
        /// Grid side.
        n: usize,
        /// Catalog stencil.
        stencil: KernelKind,
    },
    /// One event-level iteration simulation.
    Simulate {
        /// Machine class.
        arch: SimArchKind,
        /// Canonical machine.
        machine: MachineKey,
        /// Grid side.
        n: usize,
        /// Shape.
        shape: PartitionShape,
        /// Catalog stencil.
        stencil: KernelKind,
        /// Processor count.
        procs: usize,
    },
    /// One numerical solve. Deterministic (the partitioned executor is
    /// bit-identical to sequential Jacobi), hence cacheable like any other
    /// evaluation. `partitions` is canonicalized to 0 for solvers that
    /// ignore it and `stencil` to the 5-point for solvers that fix their
    /// own operator, so equivalent runs share a key.
    Solve {
        /// Grid side.
        n: usize,
        /// Which solver.
        solver: SolverKind,
        /// Tolerance bits.
        tol: F64Key,
        /// Catalog stencil.
        stencil: KernelKind,
        /// Strip count (0 unless the solver partitions).
        partitions: usize,
        /// Iteration cap.
        max_iters: usize,
        /// Canonical check schedule (`None` = the solver's default, and
        /// for solvers that ignore the policy).
        check: Option<CheckKey>,
    },
}

/// The canonical form of one *impure* request — a measurement or an
/// externally-run report. Effects are planned alongside pure atoms but are
/// never deduplicated, never cached, and always execute sequentially after
/// the parallel phase (so wall-clock measurements are not polluted by
/// concurrent model evaluations).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EffectKey {
    /// One thread-scaling measurement of the partitioned executor.
    Threads {
        /// Grid side.
        n: usize,
        /// Catalog stencil.
        stencil: KernelKind,
        /// Shape.
        shape: PartitionShape,
        /// Thread counts.
        threads: Vec<usize>,
        /// Timed iterations per point.
        iters: usize,
        /// Best-of repetitions.
        repeats: usize,
    },
    /// One experiment regeneration via the registered runner.
    Experiment {
        /// Experiment id.
        id: String,
        /// Trimmed sweeps.
        quick: bool,
    },
}

/// The successful result of one atomic evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalValue {
    /// Result of an optimizer run (mirrors `parspeed_core::Optimum`).
    Optimum {
        /// Optimal processor count.
        processors: usize,
        /// Largest partition area at the optimum.
        area: f64,
        /// Per-iteration cycle time.
        cycle_time: f64,
        /// Speedup over one processor.
        speedup: f64,
        /// Speedup / processors.
        efficiency: f64,
        /// Whether every available processor is used.
        used_all: bool,
    },
    /// Result of a closed-form minimum-size evaluation.
    MinSize {
        /// Continuous minimal grid side.
        n_side: f64,
        /// Fig. 7 ordinate `log₂(n²)`.
        log2_points: f64,
    },
    /// Result of an isoefficiency threshold search.
    Isoefficiency {
        /// Smallest integer grid side reaching the target.
        n: usize,
    },
    /// Result of a leverage what-if.
    Leverage {
        /// Optimal cycle time before the upgrade.
        baseline: f64,
        /// Optimal cycle time after (re-optimized).
        upgraded: f64,
        /// `upgraded / baseline`.
        factor: f64,
    },
    /// Result of a Table-I evaluation: the four closed-form rows, paper
    /// order, names and formulas included.
    Table1 {
        /// The evaluated rows.
        rows: Vec<Table1Row>,
    },
    /// Result of one simulated iteration, with the model's predictions
    /// alongside (so renderers need no model access).
    Simulate {
        /// Simulated cycle time (seconds).
        cycle_time: f64,
        /// Longest pure-compute span in the cycle.
        max_compute: f64,
        /// Fraction of the cycle that is not pure compute.
        comm_fraction: f64,
        /// The analytic model's predicted cycle time at this allocation.
        predicted: f64,
        /// The model's sequential time for the whole instance.
        seq_time: f64,
    },
    /// Result of a numerical solve.
    Solve {
        /// Whether the tolerance was reached within the iteration cap.
        converged: bool,
        /// Iterations (or V-cycles) taken.
        iterations: usize,
        /// Final successive-update difference.
        final_diff: f64,
        /// Max-norm error against the manufactured exact solution.
        max_error: f64,
        /// Global reductions performed (CG only).
        global_reductions: Option<usize>,
        /// The iteration this solve resumed from, when it restarted from
        /// a checkpoint instead of iteration zero (`None` for a solve
        /// that ran uninterrupted — the overwhelmingly common case). The
        /// value is provenance, not result: a resumed solve is
        /// bit-identical to an uninterrupted one.
        resumed_from: Option<usize>,
    },
    /// Result of a thread-scaling measurement.
    Threads {
        /// One point per measured thread count, input order.
        points: Vec<MeasuredPoint>,
    },
    /// A textual report from the registered experiment runner.
    Report(String),
}

/// The outcome of one atomic evaluation: a value, or a model-level error
/// (e.g. memory-infeasible). Errors are cached like values — they are
/// deterministic properties of the key.
pub type EvalOutcome = Result<EvalValue, ParspeedError>;

#[cfg(test)]
mod tests {
    use super::*;
    use parspeed_core::Workload;

    #[test]
    fn machine_key_round_trips_bit_exactly() {
        for m in [MachineParams::paper_defaults(), MachineParams::flex32_defaults()] {
            let back = MachineKey::new(&m).to_params();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn only_measurement_queries_are_retry_unsafe() {
        let workload =
            WorkloadSpec { n: 128, stencil: StencilSpec::FivePoint, shape: PartitionShape::Square };
        let pure = Query::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineSpec::default(),
            workload,
            procs: None,
            memory_words: None,
        };
        assert!(pure.retry_safe());
        assert!(
            Query::Compare { machine: MachineSpec::default(), workload, procs: None }.retry_safe()
        );
        // Wall-clock measurements must not be silently re-run elsewhere.
        assert!(!Query::Threads {
            n: 64,
            stencil: StencilSpec::FivePoint,
            shape: PartitionShape::Square,
            threads: vec![1, 2],
            iters: 1,
            repeats: 1,
        }
        .retry_safe());
        assert!(!Query::Experiment { id: "e1".into(), quick: true }.retry_safe());
    }

    #[test]
    fn named_stencil_constants_match_workload_new() {
        for spec in [
            StencilSpec::FivePoint,
            StencilSpec::NinePointBox,
            StencilSpec::NinePointStar,
            StencilSpec::ThirteenPoint,
        ] {
            let s = spec.to_stencil().unwrap();
            for shape in [PartitionShape::Strip, PartitionShape::Square] {
                let direct = Workload::new(64, &s, shape);
                let (e, k) = spec.constants(shape);
                assert_eq!(direct.e_flops, e, "{spec:?} {shape:?}");
                assert_eq!(direct.k, k, "{spec:?} {shape:?}");
            }
        }
    }

    #[test]
    fn names_parse_back() {
        for a in ArchKind::all() {
            assert_eq!(ArchKind::parse(a.name()).unwrap(), a);
        }
        for v in [
            BusVariant::SyncStrip,
            BusVariant::AsyncStrip,
            BusVariant::SyncSquare,
            BusVariant::AsyncSquare,
        ] {
            assert_eq!(BusVariant::parse(v.name()).unwrap(), v);
        }
        for l in [Lever::Bus, Lever::Flop, Lever::Overhead] {
            assert_eq!(Lever::parse(l.name()).unwrap(), l);
        }
        for a in [
            SimArchKind::Hypercube,
            SimArchKind::Mesh,
            SimArchKind::Mesh2d,
            SimArchKind::SyncBus,
            SimArchKind::AsyncBus,
            SimArchKind::ScheduledBus,
            SimArchKind::Banyan,
        ] {
            assert_eq!(SimArchKind::parse(a.name()).unwrap(), a);
        }
        for s in [
            SolverKind::Jacobi,
            SolverKind::Sor,
            SolverKind::RedBlack,
            SolverKind::Cg,
            SolverKind::Multigrid,
            SolverKind::Parallel,
        ] {
            assert_eq!(SolverKind::parse(s.name()).unwrap(), s);
        }
        assert!(ArchKind::parse("torus").is_err());
        assert!(PartitionShape::parse("hexagon").is_err());
        assert!(SimArchKind::parse("torus").is_err());
        assert!(SolverKind::parse("adi").is_err());
    }

    #[test]
    fn check_specs_parse_and_round_trip() {
        for spec in [
            CheckSpec::Every(25),
            CheckSpec::geometric(),
            CheckSpec::Geometric { start: 4, factor: 2.0, max_interval: 64 },
        ] {
            assert_eq!(CheckSpec::parse(&spec.name()).unwrap(), spec);
            assert_eq!(CheckKey::from_spec(spec).to_spec(), spec);
        }
        assert_eq!(CheckSpec::parse("every").unwrap(), CheckSpec::Every(1));
        assert_eq!(CheckSpec::parse("geometric").unwrap(), CheckSpec::geometric());
        assert_eq!(
            CheckSpec::parse("geometric: 8, 1.5, 256").unwrap(),
            CheckSpec::geometric(),
            "whitespace is tolerated"
        );
        assert!(CheckSpec::parse("fibonacci").is_err());
        assert!(CheckSpec::parse("geometric:1,2").is_err());
        assert!(CheckSpec::parse("every:x").is_err());
    }

    #[test]
    fn default_check_matches_the_historical_solver_behaviour() {
        assert_eq!(SolverKind::Jacobi.default_check(), CheckSpec::Every(1));
        assert_eq!(SolverKind::Sor.default_check(), CheckSpec::Every(1));
        assert_eq!(SolverKind::Parallel.default_check(), CheckSpec::geometric());
        assert!(SolverKind::Jacobi.uses_check_policy());
        assert!(!SolverKind::Cg.uses_check_policy());
        assert!(!SolverKind::Multigrid.uses_check_policy());
        assert!(!SolverKind::RedBlack.uses_check_policy());
    }

    #[test]
    fn stencil_keys_round_trip_and_reject_custom() {
        let named = [
            StencilSpec::FivePoint,
            StencilSpec::NinePointBox,
            StencilSpec::NinePointStar,
            StencilSpec::ThirteenPoint,
        ];
        for (spec, kind) in named.into_iter().zip(KernelKind::all()) {
            assert_eq!(spec.kernel().unwrap(), kind);
            assert_eq!(spec.to_stencil(), Some(kind.to_stencil()));
        }
        let err = StencilSpec::Custom { e: 6.0, k: 1 }.kernel().unwrap_err();
        assert!(err.to_string().contains("catalog stencil"), "{err}");
    }
}

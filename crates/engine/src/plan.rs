//! The planner: expands macro-queries, canonicalizes every atom into an
//! [`EvalKey`], and dedups the batch into the unique evaluation set.
//!
//! Planning is pure and sequential — it touches no cache and spawns no
//! threads — so the mapping from a batch to its unique keys is trivially
//! deterministic. The executor and cache only ever see unique keys; the
//! plan remembers which response slot each input query's atoms land in.
//!
//! Impure queries (wall-clock measurements, experiment regenerations)
//! plan into [`EffectKey`]s instead: one per query, never deduplicated,
//! never cached.

use crate::error::ParspeedError;
use crate::fxhash::FxBuildHasher;
use crate::request::{
    ArchKind, CheckKey, CheckSpec, EffectKey, EvalKey, F64Key, MachineKey, Query, SolverKind,
    StencilSpec,
};
use parspeed_core::{ProcessorBudget, Workload};
use parspeed_stencil::{KernelKind, PartitionShape};
use std::collections::HashMap;

/// The largest grid side a `solve` or `threads` query may ask for:
/// 2¹² − 1, which keeps every multigrid side up to it and is 4× the
/// largest side any workload, test or example sends. One grid at this
/// side is 134 MB; an unbounded side lets one request line abort the
/// serving process on a failed allocation.
pub const MAX_GRID_SIDE: usize = 4095;

/// The most points one `sweep` may expand to. Six architectures × four
/// stencils × two shapes × four budgets × 13 doubling sides is 2 496;
/// the planner holds every point, so an unbounded grid lets a sub-KB line
/// abort the process on a failed allocation.
pub const MAX_SWEEP_POINTS: usize = 4096;

/// The most threads one `threads` measurement may ask for. The pool it
/// runs on keeps every worker it ever spawned for the life of the process.
pub const MAX_MEASURED_THREADS: usize = 64;

/// Rejects a grid side of 0 or above `max`: [`MAX_GRID_SIDE`] for grids
/// that are allocated, [`Workload::MAX_SIDE`] for the closed-form models.
fn check_side(n: usize, max: usize) -> Result<(), ParspeedError> {
    if n == 0 {
        return Err(ParspeedError::invalid("grid side must be positive"));
    }
    if n > max {
        return Err(ParspeedError::invalid(format!("grid side {n} exceeds the maximum of {max}")));
    }
    Ok(())
}

/// Presentation labels for one expanded point of a macro-query (everything
/// the key deliberately forgets).
#[derive(Debug, Clone, PartialEq)]
pub struct PointLabel {
    /// Architecture name.
    pub arch: &'static str,
    /// Grid side.
    pub n: usize,
    /// Stencil display name.
    pub stencil: String,
    /// Shape name.
    pub shape: &'static str,
    /// Budget display (`∞` for unlimited).
    pub budget: String,
}

/// How one input query's response is assembled from unique-key results.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// A single atomic query: index into the unique-key set.
    Single(usize),
    /// A macro-query (sweep or compare): one `(label, unique index)` pair
    /// per expanded point, in deterministic grid order.
    Sweep(Vec<(PointLabel, usize)>),
    /// An impure query: index into the plan's effect list.
    Effect(usize),
    /// The query could not be planned (bad spec); carries the error.
    Invalid(ParspeedError),
}

/// A planned batch: the deduplicated evaluation set, the effect list, and
/// the response assembly map.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Unique evaluation keys, in first-occurrence order.
    pub unique: Vec<EvalKey>,
    /// Impure effects, one per effect query, in input order.
    pub effects: Vec<EffectKey>,
    /// One slot per input query, in input order.
    pub slots: Vec<Slot>,
    /// Number of pure atoms before deduplication (macro points count
    /// individually; effects and invalid queries count zero).
    pub atoms: usize,
}

impl Plan {
    /// Plans a batch.
    pub fn build(queries: &[Query]) -> Plan {
        Self::assemble(queries.iter().map(plan_query).collect())
    }

    /// Plans a batch and attributes the two phases separately: the
    /// *plan* phase (macro-query expansion + canonicalization, the
    /// per-query work) and the *dedup* phase (interning atoms into the
    /// unique evaluation set, the cross-query work). Used when a
    /// recorder is installed; [`build`](Plan::build) stays the untimed
    /// path so the library costs nothing by default.
    pub fn build_timed(queries: &[Query]) -> (Plan, PlanTiming) {
        let t0 = std::time::Instant::now();
        let planned: Vec<Result<Planned, ParspeedError>> = queries.iter().map(plan_query).collect();
        let plan_nanos = t0.elapsed().as_nanos() as u64;
        let t1 = std::time::Instant::now();
        let plan = Self::assemble(planned);
        (plan, PlanTiming { plan_nanos, dedup_nanos: t1.elapsed().as_nanos() as u64 })
    }

    /// The dedup pass: interns every planned atom into the unique
    /// evaluation set and lays out the response slots.
    fn assemble(planned: Vec<Result<Planned, ParspeedError>>) -> Plan {
        let mut unique: Vec<EvalKey> = Vec::new();
        let mut effects: Vec<EffectKey> = Vec::new();
        let mut index: HashMap<EvalKey, usize, FxBuildHasher> = HashMap::default();
        let mut atoms = 0usize;
        let mut intern = |key: EvalKey| -> usize {
            *index.entry(key).or_insert_with(|| {
                unique.push(key);
                unique.len() - 1
            })
        };

        let mut slots = Vec::with_capacity(planned.len());
        for q in planned {
            let slot = match q {
                Err(e) => Slot::Invalid(e),
                Ok(Planned::Single(key)) => {
                    atoms += 1;
                    Slot::Single(intern(key))
                }
                Ok(Planned::Multi(points)) => {
                    atoms += points.len();
                    Slot::Sweep(
                        points.into_iter().map(|(label, key)| (label, intern(key))).collect(),
                    )
                }
                Ok(Planned::Effect(effect)) => {
                    effects.push(effect);
                    Slot::Effect(effects.len() - 1)
                }
            };
            slots.push(slot);
        }
        Plan { unique, effects, slots, atoms }
    }

    /// Dedup factor: atoms per unique evaluation (1.0 when nothing
    /// repeats; 0 atoms give 1.0 by convention).
    pub fn dedup_factor(&self) -> f64 {
        if self.unique.is_empty() {
            1.0
        } else {
            self.atoms as f64 / self.unique.len() as f64
        }
    }
}

/// Nanosecond attribution of the two planning phases (see
/// [`Plan::build_timed`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTiming {
    /// Expansion + canonicalization time.
    pub plan_nanos: u64,
    /// Interning / slot-assembly time.
    pub dedup_nanos: u64,
}

enum Planned {
    Single(EvalKey),
    Multi(Vec<(PointLabel, EvalKey)>),
    Effect(EffectKey),
}

/// The canonical 64-bit routing hash of a query: the engine's FxHash of
/// whatever the query *evaluates* — its canonical [`EvalKey`] (atomic
/// queries), the first expanded point's key (macro-queries, which route
/// with their leading atom), the [`EffectKey`] (impure queries), or the
/// planning error itself (unplannable queries, so malformed duplicates
/// still agree on a destination).
///
/// Because the hash is taken *after* canonicalization, two spellings of
/// the same evaluation — named vs. custom stencil, explicit vs. implicit
/// defaults — hash identically, exactly like they share a cache line.
/// A consistent-hash router keyed on this value therefore sends
/// duplicate traffic from different clients to the same warm shard.
/// The outputs are pinned by test and must stay stable across releases:
/// ring placement depends on them.
pub fn routing_hash(q: &Query) -> u64 {
    use std::hash::BuildHasher as _;
    let hasher = FxBuildHasher::default();
    match plan_query(q) {
        Ok(Planned::Single(key)) => hasher.hash_one(key),
        Ok(Planned::Multi(points)) => match points.first() {
            Some((_, key)) => hasher.hash_one(key),
            None => 0,
        },
        Ok(Planned::Effect(effect)) => hasher.hash_one(&effect),
        Err(e) => hasher.hash_one(&e),
    }
}

/// The `(E(S), k(P,S))` a closed-form model evaluates with. The models
/// divide by `E(S)`, so it must be positive and finite.
fn model_constants(
    stencil: StencilSpec,
    shape: PartitionShape,
) -> Result<(f64, usize), ParspeedError> {
    let (e, k) = stencil.constants(shape);
    if !(e.is_finite() && e > 0.0) {
        return Err(ParspeedError::invalid(format!("E(S) must be positive and finite, got {e}")));
    }
    Ok((e, k))
}

fn optimize_key(
    arch: ArchKind,
    machine: MachineKey,
    n: usize,
    stencil: StencilSpec,
    shape: PartitionShape,
    procs: Option<usize>,
    memory_words: Option<f64>,
) -> Result<EvalKey, ParspeedError> {
    check_side(n, Workload::MAX_SIDE)?;
    let (e, k) = model_constants(stencil, shape)?;
    if let Some(words) = memory_words {
        if !(words.is_finite() && words > 0.0) {
            return Err(ParspeedError::invalid(format!(
                "memory budget must be positive and finite, got {words}"
            )));
        }
    }
    Ok(EvalKey::Optimize {
        arch,
        machine,
        n,
        shape,
        e: F64Key::new(e),
        k,
        budget: procs.map_or(ProcessorBudget::Unlimited, ProcessorBudget::Limited),
        memory_words: memory_words.map(F64Key::new),
    })
}

/// One point of a macro-query: its presentation label (the budget shown
/// as `∞` or the count) and its optimize key.
fn optimize_point(
    arch: ArchKind,
    machine: MachineKey,
    n: usize,
    stencil: StencilSpec,
    shape: PartitionShape,
    procs: Option<usize>,
) -> Result<(PointLabel, EvalKey), ParspeedError> {
    let key = optimize_key(arch, machine, n, stencil, shape, procs, None)?;
    let label = PointLabel {
        arch: arch.name(),
        n,
        stencil: stencil.name(),
        shape: shape.name(),
        budget: procs.map_or_else(|| "∞".into(), |p| p.to_string()),
    };
    Ok((label, key))
}

fn plan_query(q: &Query) -> Result<Planned, ParspeedError> {
    match q {
        Query::Optimize { arch, machine, workload, procs, memory_words } => {
            Ok(Planned::Single(optimize_key(
                *arch,
                machine.to_key()?,
                workload.n,
                workload.stencil,
                workload.shape,
                *procs,
                *memory_words,
            )?))
        }
        Query::MinSize { variant, machine, e, k, procs } => {
            if *procs == 0 {
                return Err(ParspeedError::invalid("minsize needs at least one processor"));
            }
            if !(e.is_finite() && *e > 0.0) {
                return Err(ParspeedError::invalid(format!(
                    "E(S) must be positive and finite, got {e}"
                )));
            }
            Ok(Planned::Single(EvalKey::MinSize {
                variant: *variant,
                machine: machine.to_key()?,
                e: F64Key::new(*e),
                k: F64Key::new(*k),
                procs: *procs,
            }))
        }
        Query::Isoefficiency { arch, machine, stencil, shape, procs, efficiency } => {
            if !(*efficiency > 0.0 && *efficiency < 1.0) {
                return Err(ParspeedError::invalid(format!(
                    "efficiency must be in (0, 1), got {efficiency}"
                )));
            }
            if *procs == 0 {
                return Err(ParspeedError::invalid("isoefficiency needs at least one processor"));
            }
            let (e, k) = model_constants(*stencil, *shape)?;
            Ok(Planned::Single(EvalKey::Isoefficiency {
                arch: *arch,
                machine: machine.to_key()?,
                shape: *shape,
                e: F64Key::new(e),
                k,
                procs: *procs,
                efficiency: F64Key::new(*efficiency),
            }))
        }
        Query::Leverage { machine, workload, procs, lever, factor } => {
            if !(factor.is_finite() && *factor > 0.0) {
                return Err(ParspeedError::invalid(format!(
                    "lever factor must be positive and finite, got {factor}"
                )));
            }
            check_side(workload.n, Workload::MAX_SIDE)?;
            let (e, k) = model_constants(workload.stencil, workload.shape)?;
            Ok(Planned::Single(EvalKey::Leverage {
                machine: machine.to_key()?,
                n: workload.n,
                shape: workload.shape,
                e: F64Key::new(e),
                k,
                budget: procs.map_or(ProcessorBudget::Unlimited, ProcessorBudget::Limited),
                lever: *lever,
                factor: F64Key::new(*factor),
            }))
        }
        Query::Table1 { machine, n, stencil } => {
            check_side(*n, Workload::MAX_SIDE)?;
            Ok(Planned::Single(EvalKey::Table1 {
                machine: machine.to_key()?,
                n: *n,
                stencil: stencil.kernel()?,
            }))
        }
        Query::Compare { machine, workload, procs } => {
            let (mkey, w) = (machine.to_key()?, workload);
            let mut points = Vec::with_capacity(6);
            for arch in ArchKind::all() {
                points.push(optimize_point(arch, mkey, w.n, w.stencil, w.shape, *procs)?);
            }
            Ok(Planned::Multi(points))
        }
        Query::Simulate { arch, machine, workload, procs } => {
            check_side(workload.n, Workload::MAX_SIDE)?;
            if *procs == 0 {
                return Err(ParspeedError::invalid("simulate needs at least one processor"));
            }
            let stencil = workload.stencil.kernel()?;
            let (n, p) = (workload.n, *procs);
            // Same validation (and messages) the evaluator applies.
            crate::exec::build_decomposition(n, p, workload.shape)?;
            Ok(Planned::Single(EvalKey::Simulate {
                arch: *arch,
                machine: machine.to_key()?,
                n,
                shape: workload.shape,
                stencil,
                procs: p,
            }))
        }
        Query::Solve { n, solver, tol, stencil, partitions, max_iters, check } => {
            check_side(*n, MAX_GRID_SIDE)?;
            if !(tol.is_finite() && *tol > 0.0) {
                return Err(ParspeedError::invalid(format!(
                    "tolerance must be positive and finite, got {tol}"
                )));
            }
            if let Some(spec) = check {
                match spec {
                    CheckSpec::Every(0) => {
                        return Err(ParspeedError::invalid("check period must be ≥ 1"))
                    }
                    CheckSpec::Geometric { factor, max_interval, .. } => {
                        if !(factor.is_finite() && *factor > 1.0) {
                            return Err(ParspeedError::invalid(format!(
                                "geometric check factor must exceed 1, got {factor}"
                            )));
                        }
                        if *max_interval == 0 {
                            return Err(ParspeedError::invalid(
                                "geometric check max_interval must be ≥ 1",
                            ));
                        }
                    }
                    CheckSpec::Every(_) => {}
                }
            }
            if let Some(e) = crate::exec::solve_plan_error(*n, *solver) {
                return Err(e);
            }
            // Canonicalize away whatever this solver ignores, so
            // equivalent runs share a key (and a cache line).
            let stencil =
                if solver.uses_stencil() { stencil.kernel()? } else { KernelKind::FivePoint };
            let partitions = match solver {
                SolverKind::Parallel => (*partitions).clamp(1, *n),
                _ => 0,
            };
            // An explicitly spelled-out default collapses onto the unset
            // form, and solvers that check every iteration by construction
            // ignore the policy entirely.
            let check = match check {
                Some(spec) if solver.uses_check_policy() && *spec != solver.default_check() => {
                    Some(CheckKey::from_spec(*spec))
                }
                _ => None,
            };
            Ok(Planned::Single(EvalKey::Solve {
                n: *n,
                solver: *solver,
                tol: F64Key::new(*tol),
                stencil,
                partitions,
                max_iters: *max_iters,
                check,
            }))
        }
        Query::Threads { n, stencil, shape, threads, iters, repeats } => {
            check_side(*n, MAX_GRID_SIDE)?;
            if threads.is_empty() || threads.contains(&0) {
                return Err(ParspeedError::invalid("threads needs a list of positive counts"));
            }
            if let Some(t) = threads.iter().find(|&&t| t > MAX_MEASURED_THREADS) {
                return Err(ParspeedError::invalid(format!(
                    "thread count {t} exceeds the maximum of {MAX_MEASURED_THREADS}"
                )));
            }
            Ok(Planned::Effect(EffectKey::Threads {
                n: *n,
                stencil: stencil.kernel()?,
                shape: *shape,
                threads: threads.clone(),
                iters: (*iters).max(1),
                repeats: (*repeats).max(1),
            }))
        }
        Query::Experiment { id, quick } => {
            Ok(Planned::Effect(EffectKey::Experiment { id: id.clone(), quick: *quick }))
        }
        Query::Sweep { archs, machine, stencils, shapes, budgets, n_from, n_to } => {
            if *n_from == 0 || n_to < n_from {
                return Err(ParspeedError::invalid(format!("bad sweep range {n_from}..{n_to}")));
            }
            check_side(*n_to, Workload::MAX_SIDE)?;
            if archs.is_empty() || stencils.is_empty() || shapes.is_empty() || budgets.is_empty() {
                return Err(ParspeedError::invalid("sweep grid has an empty axis"));
            }
            // Count the points before expanding any: one per doubling side
            // n_from·2ʲ ≤ n_to on each (arch, stencil, shape, budget).
            let sides = (n_to / n_from).ilog2() as usize + 1;
            let count = [archs.len(), stencils.len(), shapes.len(), budgets.len(), sides]
                .into_iter()
                .try_fold(1usize, usize::checked_mul)
                .filter(|&count| count <= MAX_SWEEP_POINTS)
                .ok_or_else(|| {
                    ParspeedError::invalid(format!(
                        "sweep grid exceeds the maximum of {MAX_SWEEP_POINTS} points"
                    ))
                })?;
            let mkey = machine.to_key()?;
            let mut points = Vec::with_capacity(count);
            // Grid order: arch, stencil, shape, budget, then the doubling
            // grid sides — the same order the CLI sweep prints.
            for arch in archs {
                for stencil in stencils {
                    for shape in shapes {
                        for procs in budgets {
                            let mut n = *n_from;
                            loop {
                                points.push(optimize_point(
                                    *arch, mkey, n, *stencil, *shape, *procs,
                                )?);
                                if n > *n_to / 2 {
                                    break;
                                }
                                n *= 2;
                            }
                        }
                    }
                }
            }
            Ok(Planned::Multi(points))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{MachineSpec, SimArchKind, WorkloadSpec};

    fn opt(n: usize, procs: Option<usize>) -> Query {
        Query::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineSpec::default(),
            workload: WorkloadSpec {
                n,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs,
            memory_words: None,
        }
    }

    #[test]
    fn duplicate_queries_collapse() {
        let batch: Vec<Query> = (0..100).map(|_| opt(256, Some(64))).collect();
        let plan = Plan::build(&batch);
        assert_eq!(plan.unique.len(), 1);
        assert_eq!(plan.atoms, 100);
        assert!((plan.dedup_factor() - 100.0).abs() < 1e-12);
        for s in &plan.slots {
            assert_eq!(s, &Slot::Single(0));
        }
    }

    #[test]
    fn named_and_custom_stencils_dedup_together() {
        let (e, k) = StencilSpec::FivePoint.constants(PartitionShape::Square);
        let custom = Query::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineSpec::default(),
            workload: WorkloadSpec {
                n: 256,
                stencil: StencilSpec::Custom { e, k },
                shape: PartitionShape::Square,
            },
            procs: Some(64),
            memory_words: None,
        };
        let plan = Plan::build(&[opt(256, Some(64)), custom]);
        assert_eq!(plan.unique.len(), 1, "same numbers must share a key");
    }

    #[test]
    fn sweep_expands_with_doubling_sides() {
        let q = Query::Sweep {
            archs: vec![ArchKind::SyncBus],
            machine: MachineSpec::default(),
            stencils: vec![StencilSpec::FivePoint],
            shapes: vec![PartitionShape::Square],
            budgets: vec![None],
            n_from: 64,
            n_to: 512,
        };
        let plan = Plan::build(&[q]);
        match &plan.slots[0] {
            Slot::Sweep(points) => {
                let ns: Vec<usize> = points.iter().map(|(l, _)| l.n).collect();
                assert_eq!(ns, vec![64, 128, 256, 512]);
            }
            other => panic!("expected sweep slot, got {other:?}"),
        }
        assert_eq!(plan.unique.len(), 4);
    }

    #[test]
    fn sweeps_and_singles_share_the_unique_set() {
        let sweep = Query::Sweep {
            archs: vec![ArchKind::SyncBus],
            machine: MachineSpec::default(),
            stencils: vec![StencilSpec::FivePoint],
            shapes: vec![PartitionShape::Square],
            budgets: vec![Some(64)],
            n_from: 256,
            n_to: 256,
        };
        let plan = Plan::build(&[sweep, opt(256, Some(64))]);
        assert_eq!(plan.unique.len(), 1);
        assert_eq!(plan.atoms, 2);
    }

    #[test]
    fn compare_expands_to_all_six_architectures_and_dedups_with_optimize() {
        let compare = Query::Compare {
            machine: MachineSpec::default(),
            workload: WorkloadSpec {
                n: 256,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: Some(64),
        };
        let plan = Plan::build(&[compare, opt(256, Some(64))]);
        match &plan.slots[0] {
            Slot::Sweep(points) => {
                let archs: Vec<&str> = points.iter().map(|(l, _)| l.arch).collect();
                assert_eq!(
                    archs,
                    vec!["hypercube", "mesh", "sync-bus", "async-bus", "scheduled-bus", "banyan"]
                );
            }
            other => panic!("expected multi slot, got {other:?}"),
        }
        // The sync-bus point of the compare and the plain optimize share a key.
        assert_eq!(plan.unique.len(), 6);
        assert_eq!(plan.atoms, 7);
    }

    #[test]
    fn solve_canonicalization_dedups_ignored_fields() {
        let solve = |stencil, partitions| Query::Solve {
            n: 31,
            solver: SolverKind::Cg,
            tol: 1e-8,
            stencil,
            partitions,
            max_iters: 1000,
            check: None,
        };
        // CG ignores both the stencil and the partition count.
        let plan =
            Plan::build(&[solve(StencilSpec::FivePoint, 4), solve(StencilSpec::NinePointBox, 9)]);
        assert_eq!(plan.unique.len(), 1);
    }

    #[test]
    fn check_policy_canonicalization_dedups_defaults() {
        let solve = |solver, check| Query::Solve {
            n: 15,
            solver,
            tol: 1e-6,
            stencil: StencilSpec::FivePoint,
            partitions: 4,
            max_iters: 1000,
            check,
        };
        // Spelling out a solver's own default collapses onto unset.
        let plan = Plan::build(&[
            solve(SolverKind::Jacobi, None),
            solve(SolverKind::Jacobi, Some(CheckSpec::Every(1))),
            solve(SolverKind::Parallel, None),
            solve(SolverKind::Parallel, Some(CheckSpec::geometric())),
        ]);
        assert_eq!(plan.unique.len(), 2);
        // A non-default policy is a distinct evaluation…
        let plan = Plan::build(&[
            solve(SolverKind::Jacobi, None),
            solve(SolverKind::Jacobi, Some(CheckSpec::Every(32))),
        ]);
        assert_eq!(plan.unique.len(), 2);
        // …except for solvers that ignore the policy entirely.
        let plan = Plan::build(&[
            solve(SolverKind::Cg, None),
            solve(SolverKind::Cg, Some(CheckSpec::Every(32))),
        ]);
        assert_eq!(plan.unique.len(), 1);
    }

    #[test]
    fn effects_are_never_deduplicated() {
        let q = Query::Threads {
            n: 64,
            stencil: StencilSpec::FivePoint,
            shape: PartitionShape::Strip,
            threads: vec![1, 2],
            iters: 1,
            repeats: 1,
        };
        let plan = Plan::build(&[q.clone(), q]);
        assert_eq!(plan.effects.len(), 2, "measurements must run once per request");
        assert_eq!(plan.slots, vec![Slot::Effect(0), Slot::Effect(1)]);
        assert_eq!(plan.atoms, 0);
    }

    #[test]
    fn simulate_rejects_impossible_decompositions_at_plan_time() {
        let sim = |n, procs, shape| Query::Simulate {
            arch: SimArchKind::SyncBus,
            machine: MachineSpec::default(),
            workload: WorkloadSpec { n, stencil: StencilSpec::FivePoint, shape },
            procs,
        };
        let plan =
            Plan::build(&[sim(8, 16, PartitionShape::Strip), sim(8, 97, PartitionShape::Square)]);
        assert!(matches!(&plan.slots[0], Slot::Invalid(e) if e.to_string().contains("strips")));
        assert!(
            matches!(&plan.slots[1], Slot::Invalid(e) if e.to_string().contains("near-square"))
        );
    }

    #[test]
    fn solve_and_threads_sides_are_bounded() {
        let solve = |n| Query::Solve {
            n,
            solver: SolverKind::Multigrid,
            tol: 1e-8,
            stencil: StencilSpec::FivePoint,
            partitions: 0,
            max_iters: 1,
            check: None,
        };
        let threads = |n| Query::Threads {
            n,
            stencil: StencilSpec::FivePoint,
            shape: PartitionShape::Strip,
            threads: vec![1],
            iters: 1,
            repeats: 1,
        };
        let over = MAX_GRID_SIDE + 1;
        let plan = Plan::build(&[
            solve(MAX_GRID_SIDE),
            solve(over),
            threads(MAX_GRID_SIDE),
            threads(over),
            solve(1 << 32),
        ]);
        assert!(crate::exec::solve_plan_error(MAX_GRID_SIDE, SolverKind::Multigrid).is_none());
        assert!(matches!(plan.slots[0], Slot::Single(0)));
        assert!(matches!(plan.slots[2], Slot::Effect(0)));
        for i in [1, 3, 4] {
            assert!(
                matches!(&plan.slots[i], Slot::Invalid(e) if e.to_string().contains("maximum of 4095")),
                "slot {i}: {:?}",
                plan.slots[i]
            );
        }
    }

    fn sweep(budgets: usize, n_from: usize, n_to: usize) -> Query {
        Query::Sweep {
            archs: vec![ArchKind::SyncBus],
            machine: MachineSpec::default(),
            stencils: vec![StencilSpec::FivePoint],
            shapes: vec![PartitionShape::Square],
            budgets: (0..budgets).map(Some).collect(),
            n_from,
            n_to,
        }
    }

    fn refused(slot: &Slot, why: &str) -> bool {
        matches!(slot, Slot::Invalid(e) if e.to_string().contains(why))
    }

    #[test]
    fn sweeps_are_counted_before_they_expand() {
        // 512 budgets × 8 doubling sides (1..=128), then one past either.
        let plan = Plan::build(&[
            sweep(512, 1, 255),
            sweep(MAX_SWEEP_POINTS, 64, 64),
            sweep(512, 1, 256),
            sweep(MAX_SWEEP_POINTS + 1, 64, 64),
        ]);
        assert!(matches!(&plan.slots[0], Slot::Sweep(p) if p.len() == MAX_SWEEP_POINTS));
        assert!(matches!(&plan.slots[1], Slot::Sweep(p) if p.len() == MAX_SWEEP_POINTS));
        for slot in &plan.slots[2..] {
            assert!(refused(slot, "maximum of 4096 points"), "{slot:?}");
        }
        // Axis lengths whose product overflows a usize are refused too.
        let axis = 1 << 16;
        let q = Query::Sweep {
            archs: vec![ArchKind::SyncBus; axis],
            machine: MachineSpec::default(),
            stencils: vec![StencilSpec::FivePoint; axis],
            shapes: vec![PartitionShape::Square; axis],
            budgets: vec![None; axis],
            n_from: 1,
            n_to: 1,
        };
        assert!(refused(&Plan::build(&[q]).slots[0], "maximum of 4096 points"));
    }

    #[test]
    fn model_sides_are_bounded_where_n_squared_fits() {
        let spec = MachineSpec::default();
        let square =
            |n| WorkloadSpec { n, stencil: StencilSpec::FivePoint, shape: PartitionShape::Square };
        let every_op = |n| {
            [
                opt(n, None),
                Query::Compare { machine: spec, workload: square(n), procs: None },
                Query::Leverage {
                    machine: spec,
                    workload: square(n),
                    procs: None,
                    lever: crate::Lever::Bus,
                    factor: 2.0,
                },
                Query::Table1 { machine: spec, n, stencil: StencilSpec::FivePoint },
                Query::Simulate {
                    arch: SimArchKind::SyncBus,
                    machine: spec,
                    workload: WorkloadSpec { shape: PartitionShape::Strip, ..square(n) },
                    procs: 1,
                },
                sweep(1, n, n),
            ]
        };
        let at = Plan::build(&every_op(Workload::MAX_SIDE));
        let past = Plan::build(&every_op(Workload::MAX_SIDE + 1));
        let why = format!("maximum of {}", Workload::MAX_SIDE);
        for (i, (at, past)) in at.slots.iter().zip(&past.slots).enumerate() {
            assert!(!matches!(at, Slot::Invalid(_)), "op {i}: {at:?}");
            assert!(refused(past, &why), "op {i}: {past:?}");
        }
    }

    #[test]
    fn measured_thread_counts_are_bounded() {
        let threads = |count| Query::Threads {
            n: 15,
            stencil: StencilSpec::FivePoint,
            shape: PartitionShape::Strip,
            threads: vec![1, count],
            iters: 1,
            repeats: 1,
        };
        // Planning only: executing the measurement would spawn the threads.
        let plan = Plan::build(&[threads(MAX_MEASURED_THREADS), threads(MAX_MEASURED_THREADS + 1)]);
        assert_eq!(plan.slots[0], Slot::Effect(0));
        assert!(refused(&plan.slots[1], "maximum of 64"), "{:?}", plan.slots[1]);
    }

    #[test]
    fn invalid_queries_keep_their_slot() {
        let bad = opt(0, None);
        let plan = Plan::build(&[bad, opt(64, None)]);
        assert!(matches!(plan.slots[0], Slot::Invalid(_)));
        assert!(matches!(plan.slots[1], Slot::Single(0)));
        assert_eq!(plan.atoms, 1);
    }

    /// Ring placement depends on these exact values: a change here is a
    /// wire-compatibility break (every key moves to a different shard and
    /// a rolling router upgrade loses its cache affinity). Update only
    /// with a conscious decision, never as a side effect.
    #[test]
    fn routing_hashes_are_pinned() {
        use crate::routing_hash;
        let pinned: &[(Query, u64)] = &[
            (opt(256, Some(64)), 5_712_715_353_655_322_337),
            (opt(256, None), 7_661_062_608_780_813_326),
            (opt(64, Some(64)), 5_119_102_712_921_739_844),
            (
                Query::Solve {
                    n: 31,
                    solver: SolverKind::Cg,
                    tol: 1e-8,
                    stencil: StencilSpec::FivePoint,
                    partitions: 4,
                    max_iters: 200_000,
                    check: None,
                },
                11_528_373_132_180_569_655,
            ),
            (
                Query::MinSize {
                    variant: crate::BusVariant::SyncSquare,
                    machine: MachineSpec::default(),
                    e: 6.0,
                    k: 1.0,
                    procs: 14,
                },
                4_027_797_555_404_432_814,
            ),
        ];
        // Pinned as wire lines, so the entries name no Rust type: every
        // op's key kind, both shapes, a budget on a leverage, all four
        // catalogue stencils, every minsize variant and one effect.
        let wire = |line: &str| crate::jsonl::parse_query(line).unwrap().query;
        let lines: &[(&str, u64)] = &[
            (
                r#"{"op":"optimize","version":2,"arch":"async-bus","n":512,"stencil":"9pt-box","shape":"strip","procs":32}"#,
                11_465_471_787_375_176_754,
            ),
            (
                r#"{"op":"leverage","version":2,"n":256,"stencil":"5pt","shape":"square","procs":16,"lever":"bus","factor":2}"#,
                1_188_715_423_571_902_963,
            ),
            (
                r#"{"op":"isoeff","version":2,"arch":"hypercube","stencil":"9pt-star","shape":"square","procs":64,"efficiency":0.5}"#,
                16_113_843_498_741_534_479,
            ),
            (
                r#"{"op":"simulate","version":2,"arch":"sync-bus","n":64,"stencil":"9pt-box","shape":"square","procs":16}"#,
                15_588_268_080_513_594_005,
            ),
            (r#"{"op":"table1","version":2,"n":1024,"stencil":"13pt"}"#, 3_928_295_519_747_835_948),
            (
                r#"{"op":"solve","version":2,"n":31,"solver":"jacobi","tol":1e-6,"stencil":"9pt-star","max_iters":1000}"#,
                5_011_784_423_778_764_521,
            ),
            (
                r#"{"op":"minsize","version":2,"variant":"sync-strip","e":6.0,"k":1.0,"procs":14}"#,
                2_398_658_665_508_001_826,
            ),
            (
                r#"{"op":"minsize","version":2,"variant":"async-strip","e":6.0,"k":1.0,"procs":14}"#,
                17_103_460_314_651_930_415,
            ),
            (
                r#"{"op":"minsize","version":2,"variant":"async-square","e":6.0,"k":1.0,"procs":14}"#,
                13_368_341_263_172_397_663,
            ),
            (
                r#"{"op":"threads","version":2,"n":64,"stencil":"13pt","shape":"square","threads":[1,2],"iters":1,"repeats":1}"#,
                3_520_633_000_293_111_210,
            ),
        ];
        let pinned = pinned.iter().cloned().chain(lines.iter().map(|&(l, h)| (wire(l), h)));
        for (q, want) in pinned {
            assert_eq!(
                routing_hash(&q),
                want,
                "routing hash moved for {q:?} — this breaks ring placement"
            );
        }
    }

    #[test]
    fn routing_hash_ignores_presentation_differences() {
        use crate::routing_hash;
        // Named and custom stencils with the same constants share a cache
        // line, so they must share a routing hash too.
        let (e, k) = StencilSpec::FivePoint.constants(PartitionShape::Square);
        let custom = Query::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineSpec::default(),
            workload: WorkloadSpec {
                n: 256,
                stencil: StencilSpec::Custom { e, k },
                shape: PartitionShape::Square,
            },
            procs: Some(64),
            memory_words: None,
        };
        assert_eq!(routing_hash(&opt(256, Some(64))), routing_hash(&custom));
        // Distinct evaluations should (overwhelmingly) land apart.
        assert_ne!(routing_hash(&opt(256, Some(64))), routing_hash(&opt(128, Some(64))));
    }

    #[test]
    fn macro_queries_route_by_their_leading_atom() {
        use crate::routing_hash;
        // A one-point sweep routes where its only atom routes.
        let sweep = Query::Sweep {
            archs: vec![ArchKind::SyncBus],
            machine: MachineSpec::default(),
            stencils: vec![StencilSpec::FivePoint],
            shapes: vec![PartitionShape::Square],
            budgets: vec![Some(64)],
            n_from: 256,
            n_to: 256,
        };
        assert_eq!(routing_hash(&sweep), routing_hash(&opt(256, Some(64))));
        // Invalid queries still hash deterministically (duplicates agree).
        let bad = opt(0, None);
        assert_eq!(routing_hash(&bad), routing_hash(&bad.clone()));
    }

    #[test]
    fn bad_sweep_axes_are_reported() {
        let q = Query::Sweep {
            archs: vec![],
            machine: MachineSpec::default(),
            stencils: vec![StencilSpec::FivePoint],
            shapes: vec![PartitionShape::Square],
            budgets: vec![None],
            n_from: 64,
            n_to: 128,
        };
        let plan = Plan::build(&[q]);
        assert!(matches!(&plan.slots[0], Slot::Invalid(e) if e.to_string().contains("empty axis")));
    }

    /// A `simulate` at a prime side near 2³² with one processor more was
    /// refused only after an 11 s search over every column count; the
    /// largest composite side, where the divisor walk is longest, plans
    /// too. Both plan in bounded time on the thread that routes requests.
    /// (The bound is ~100× what the divisor walk takes.)
    #[test]
    fn simulate_planning_at_the_largest_sides_is_bounded() {
        let simulate = |n: usize, procs: usize| {
            crate::jsonl::parse_query(&format!(
                r#"{{"op":"simulate","version":2,"arch":"sync-bus","n":{n},"stencil":"5pt","shape":"square","procs":{procs}}}"#
            ))
            .unwrap()
            .query
        };
        let start = std::time::Instant::now();
        let plan = Plan::build(&[simulate(4294967291, 4294967292)]);
        assert!(
            matches!(&plan.slots[0], Slot::Invalid(e) if e.kind() == "invalid_request"
                && e.message().contains("no near-square decomposition")),
            "{:?}",
            plan.slots[0]
        );
        let max = Workload::MAX_SIDE;
        assert_eq!(Plan::build(&[simulate(max, max)]).unique.len(), 1);
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "planning took {took:?}");
    }

    /// Machine overrides outside the models' domain answer
    /// `invalid_request` at plan time, naming the field; zero bus costs,
    /// the paper's free-communication idealization, still plan.
    #[test]
    fn machine_overrides_are_checked_at_plan_time() {
        let with = |machine: MachineSpec| Query::Optimize {
            arch: ArchKind::SyncBus,
            machine,
            workload: WorkloadSpec {
                n: 256,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: None,
            memory_words: None,
        };
        let base = MachineSpec::default();
        for (bad, field) in [
            (MachineSpec { tfp: Some(0.0), ..base }, "machine.tfp"),
            (MachineSpec { tfp: Some(f64::INFINITY), ..base }, "machine.tfp"),
            (MachineSpec { b: Some(-1.0), ..base }, "machine.b"),
            (MachineSpec { c: Some(f64::NAN), ..base }, "machine.c"),
            (MachineSpec { alpha: Some(-1e-9), ..base }, "machine.alpha"),
            (MachineSpec { beta: Some(f64::NEG_INFINITY), ..base }, "machine.beta"),
            (MachineSpec { w: Some(-0.5), ..base }, "machine.w"),
            (MachineSpec { packet: Some(0), ..base }, "machine.packet"),
        ] {
            let plan = Plan::build(&[with(bad)]);
            assert!(
                matches!(&plan.slots[0], Slot::Invalid(e) if e.kind() == "invalid_request"
                    && e.message().contains(field)),
                "{bad:?}: {:?}",
                plan.slots[0]
            );
        }
        let free = MachineSpec { b: Some(0.0), c: Some(0.0), w: Some(0.0), ..base };
        assert_eq!(Plan::build(&[with(free)]).unique.len(), 1);
    }
}

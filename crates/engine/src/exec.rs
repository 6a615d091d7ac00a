//! The executor: evaluates unique keys, fanning misses out across a
//! rayon-style thread pool when the batch's work pays for it, and runs
//! impure effects sequentially.
//!
//! [`evaluate`] is the single source of truth for what a key *means*: it
//! reconstructs the exact call a direct caller would make — into
//! `parspeed-core` for the analytic queries, `parspeed-arch` for
//! event-level simulations, `parspeed-solver`/`parspeed-exec` for real
//! solves — and forwards the result untouched, which is what the
//! bit-identity tests pin down. Everything above it (sharding, caching)
//! only moves results around.
//!
//! [`run_effect`] is the impure counterpart: wall-clock measurements and
//! experiment regenerations execute here, one at a time, after the
//! parallel phase, so timings are never polluted by concurrent model
//! evaluations.

use crate::error::ParspeedError;
use crate::request::{CheckKey, EffectKey, EvalKey, EvalOutcome, EvalValue, Lever, SolverKind};
use parspeed_arch::{
    AsyncBusSim, BanyanSim, CycleReport, IterationSpec, Mesh2dSim, NeighborExchangeSim,
    ScheduledBusSim, SyncBusSim,
};
use parspeed_core::isoefficiency::min_grid_for_efficiency;
use parspeed_core::minsize::{min_grid_side, min_problem_size_log2};
use parspeed_core::{leverage, optimize_constrained, table1, MemoryBudget, Workload};
use parspeed_exec::measure::measure_scaling;
use parspeed_exec::PartitionedJacobi;
use parspeed_grid::{Decomposition, Grid2D, RectDecomposition, StripDecomposition};
use parspeed_solver::{
    CgSolver, CheckpointCtx, CheckpointPolicy, CheckpointStore, JacobiSolver, Manufactured,
    MultigridSolver, PoissonProblem, RedBlackSolver, SolveStatus, SorSolver,
};
use parspeed_stencil::PartitionShape;
use rayon::prelude::*;
use rayon::ThreadPool;
use std::time::Instant;

/// Halo depth for `solver=parallel` runs: one exchange funds up to this
/// many local sub-iterations. Results and check schedules are identical
/// at any depth (the executor is bit-identical to sequential Jacobi);
/// deeper halos trade redundant ghost arithmetic for fewer exchange
/// rounds, with diminishing returns past a handful of sub-iterations.
const DEEP_HALO_DEPTH: usize = 4;

/// The hook through which [`Query::Experiment`](crate::Query::Experiment)
/// requests are served. The experiment harness lives *above* this crate
/// (it depends on the engine), so the engine takes the runner by
/// dependency inversion: register one with
/// [`EngineBuilder::experiment_runner`](crate::EngineBuilder::experiment_runner).
pub type ExperimentRunner = fn(&str, bool) -> Result<String, String>;

/// Builds the decomposition a simulate query runs on, or the error that
/// makes it impossible. The single home of these validations and their
/// messages: the planner calls this (discarding the decomposition) to
/// reject impossible queries up front, and [`evaluate`] calls it again to
/// run — the two can never drift.
pub fn build_decomposition(
    n: usize,
    procs: usize,
    shape: PartitionShape,
) -> Result<Box<dyn Decomposition>, ParspeedError> {
    match shape {
        PartitionShape::Strip => {
            if procs > n {
                return Err(ParspeedError::invalid(format!(
                    "{procs} strips need a grid of at least {procs} rows"
                )));
            }
            Ok(Box::new(StripDecomposition::new(n, procs)))
        }
        PartitionShape::Square => RectDecomposition::near_square(n, procs)
            .map(|d| Box::new(d) as Box<dyn Decomposition>)
            .ok_or_else(|| {
                ParspeedError::invalid(format!(
                    "no near-square decomposition of a {n}×{n} grid into {procs} blocks; \
                     try a processor count with a factor dividing {n}"
                ))
            }),
    }
}

/// The validation a solve query must pass before it can run — shared by
/// the planner and the evaluator so the message never forks.
pub fn solve_plan_error(n: usize, solver: SolverKind) -> Option<ParspeedError> {
    if solver == SolverKind::Multigrid && !parspeed_solver::multigrid_valid_side(n) {
        return Some(ParspeedError::invalid(format!(
            "multigrid needs n = 2^k − 1 (e.g. 63, 127, 255); got {n}"
        )));
    }
    None
}

/// The checkpoint-store key for a canonical evaluation: the same hash
/// family as [`crate::routing_hash`], so every shard of a fleet —
/// including the one a solve fails over to — derives the same key from
/// the same canonical evaluation.
pub fn checkpoint_key(key: &EvalKey) -> u64 {
    use std::hash::BuildHasher as _;
    crate::fxhash::FxBuildHasher::default().hash_one(key)
}

/// Evaluates one canonical key (without checkpoint/restart — the naive
/// baseline and single ad-hoc callers).
pub fn evaluate(key: &EvalKey) -> EvalOutcome {
    evaluate_ckpt(key, None)
}

/// Evaluates one canonical key, resuming long solves from (and
/// snapshotting them into) `ckpt`'s store when one is supplied.
pub fn evaluate_ckpt(key: &EvalKey, ckpt: Option<CheckpointCtx<'_>>) -> EvalOutcome {
    match *key {
        EvalKey::Optimize { arch, machine, n, shape, e, k, budget, memory_words } => {
            let m = machine.to_params();
            let model = arch.model(&m);
            let w = Workload::with_constants(n, shape, e.get(), k);
            let memory = memory_words.map(|words| MemoryBudget::words(words.get()));
            match optimize_constrained(model.as_ref(), &w, budget, memory) {
                Ok(opt) => Ok(EvalValue::Optimum {
                    processors: opt.processors,
                    area: opt.area,
                    cycle_time: opt.cycle_time,
                    speedup: opt.speedup,
                    efficiency: opt.efficiency,
                    used_all: opt.used_all,
                }),
                Err(infeasible) => Err(infeasible.into()),
            }
        }
        EvalKey::MinSize { variant, machine, e, k, procs } => {
            let m = machine.to_params();
            Ok(EvalValue::MinSize {
                n_side: min_grid_side(&m, e.get(), k.get(), procs, variant),
                log2_points: min_problem_size_log2(&m, e.get(), k.get(), procs, variant),
            })
        }
        EvalKey::Isoefficiency { arch, machine, shape, e, k, procs, efficiency } => {
            let m = machine.to_params();
            let model = arch.model(&m);
            // The template's own grid side is irrelevant: the search scales
            // it; only shape and the stencil constants carry through.
            let template = Workload::with_constants(2, shape, e.get(), k);
            match min_grid_for_efficiency(model.as_ref(), &template, procs, efficiency.get()) {
                Some(n) => Ok(EvalValue::Isoefficiency { n }),
                None => Err(ParspeedError::infeasible(format!(
                    "efficiency {} needs a grid side above {} on {procs} processors",
                    efficiency.get(),
                    Workload::MAX_SIDE
                ))),
            }
        }
        EvalKey::Leverage { machine, n, shape, e, k, budget, lever, factor } => {
            let m = machine.to_params();
            let w = Workload::with_constants(n, shape, e.get(), k);
            let report = match lever {
                Lever::Bus => leverage::bus_speedup(&m, &w, budget, factor.get()),
                Lever::Flop => leverage::flop_speedup(&m, &w, budget, factor.get()),
                Lever::Overhead => leverage::overhead_scaling(&m, &w, budget, factor.get()),
            };
            Ok(EvalValue::Leverage {
                baseline: report.baseline,
                upgraded: report.upgraded,
                factor: report.factor(),
            })
        }
        EvalKey::Table1 { machine, n, stencil } => {
            let m = machine.to_params();
            Ok(EvalValue::Table1 { rows: table1::rows(&m, n, &stencil.to_stencil()) })
        }
        EvalKey::Simulate { arch, machine, n, shape, stencil, procs } => {
            let m = machine.to_params();
            let stencil = stencil.to_stencil();
            let decomp = build_decomposition(n, procs, shape)?;
            let spec = IterationSpec::new(decomp.as_ref(), &stencil);
            use crate::request::SimArchKind::*;
            let report: CycleReport = match arch {
                Hypercube => NeighborExchangeSim::hypercube(&m).simulate(&spec),
                Mesh => NeighborExchangeSim::mesh(&m).simulate(&spec),
                Mesh2d => Mesh2dSim::new(&m).simulate(&spec).cycle,
                SyncBus => SyncBusSim::new(&m).simulate(&spec),
                AsyncBus => AsyncBusSim::new(&m).simulate(&spec),
                ScheduledBus => ScheduledBusSim::new(&m).simulate(&spec),
                Banyan => BanyanSim::new(&m).simulate(&spec).cycle,
            };
            let model = arch.model_kind().model(&m);
            let w = Workload::new(n, &stencil, shape);
            Ok(EvalValue::Simulate {
                cycle_time: report.cycle_time,
                max_compute: report.max_compute,
                comm_fraction: report.comm_fraction(),
                predicted: model.cycle_time(&w, w.points() / procs as f64),
                seq_time: model.seq_time(&w),
            })
        }
        EvalKey::Solve { n, solver, tol, stencil, partitions, max_iters, check } => {
            solve(n, solver, tol.get(), stencil.to_stencil(), partitions, max_iters, check, ckpt)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn solve(
    n: usize,
    solver: SolverKind,
    tol: f64,
    stencil: parspeed_stencil::Stencil,
    partitions: usize,
    max_iters: usize,
    check: Option<CheckKey>,
    ckpt: Option<CheckpointCtx<'_>>,
) -> EvalOutcome {
    let problem = PoissonProblem::manufactured(n, Manufactured::SinSin);
    let mut global_reductions = None;
    let mut resumed_from = None;
    // An unset policy runs the solver's historical default schedule.
    let policy =
        check.map(CheckKey::to_policy).unwrap_or_else(|| solver.default_check().to_policy());
    let (u, status): (Grid2D, SolveStatus) = match solver {
        SolverKind::Jacobi => {
            let s = JacobiSolver { tol, max_iters, check: policy, ..Default::default() };
            let (u, status, resumed) = s.solve_checkpointed(&problem, &stencil, ckpt);
            resumed_from = resumed;
            (u, status)
        }
        SolverKind::Sor => SorSolver { max_iters, check: policy, ..SorSolver::optimal(n, tol) }
            .solve(&problem, &stencil),
        SolverKind::RedBlack => {
            RedBlackSolver { max_iters, ..RedBlackSolver::optimal(n, tol) }.solve(&problem)
        }
        SolverKind::Cg => {
            let (u, s, stats) = CgSolver { tol, max_iters }.solve(&problem);
            global_reductions = Some(stats.global_reductions);
            (u, s)
        }
        SolverKind::Multigrid => {
            if let Some(e) = solve_plan_error(n, solver) {
                return Err(e);
            }
            MultigridSolver { tol, max_cycles: max_iters.min(1000), ..Default::default() }
                .solve(&problem)
        }
        SolverKind::Parallel => {
            let parts = partitions.clamp(1, n);
            let d = StripDecomposition::new(n, parts);
            // Deep halos: one exchange funds up to a block of local
            // sub-iterations (identical iterates and check schedule, ~depth×
            // fewer exchange rounds). Blocks never outrun the next check,
            // so cap the depth by the policy's first gap — an every:1
            // schedule gets the classic depth-1 executor rather than
            // paying for ghost frames it can never amortize.
            let depth = DEEP_HALO_DEPTH.min(policy.first_check()).max(1);
            let mut exec = PartitionedJacobi::with_depth(&problem, &stencil, &d, depth);
            let (run, resumed) = exec.solve_checkpointed(tol, max_iters, policy, ckpt);
            resumed_from = resumed;
            (exec.solution(), run.into())
        }
    };
    Ok(EvalValue::Solve {
        converged: status.converged,
        iterations: status.iterations,
        final_diff: status.final_diff,
        max_error: problem.max_error(&u).expect("solve problems are manufactured"),
        global_reductions,
        resumed_from,
    })
}

/// Runs one impure effect. `runner` serves experiment requests; without
/// one they answer [`ParspeedError::Unsupported`].
pub fn run_effect(effect: &EffectKey, runner: Option<ExperimentRunner>) -> EvalOutcome {
    match effect {
        EffectKey::Threads { n, stencil, shape, threads, iters, repeats } => {
            let problem = PoissonProblem::laplace(*n, 0.0);
            let points =
                measure_scaling(&problem, &stencil.to_stencil(), *shape, threads, *iters, *repeats);
            Ok(EvalValue::Threads { points })
        }
        EffectKey::Experiment { id, quick } => match runner {
            None => {
                Err(ParspeedError::unsupported("no experiment runner registered on this engine"))
            }
            Some(run) => match run(id, *quick) {
                Ok(text) => Ok(EvalValue::Report(text)),
                Err(msg) => Err(ParspeedError::invalid(msg)),
            },
        },
    }
}

/// Evaluates `keys` in parallel, returning outcomes in input order.
///
/// `pool` pins the thread count (an engine built with
/// [`threads`](crate::EngineBuilder::threads)), whatever the batch's
/// size; with `None` the first key runs inline and its time, times the
/// keys left, is the batch's work estimate — so a batch of cheap model
/// keys stays on the calling thread and a batch of solves fans out.
pub fn evaluate_all(keys: &[EvalKey], pool: Option<&ThreadPool>) -> Vec<EvalOutcome> {
    evaluate_all_ckpt(keys, pool, None)
}

/// [`evaluate_all`] with checkpoint/restart: when `ckpt` supplies a
/// store and cadence, long solves snapshot at check boundaries under
/// [`checkpoint_key`] and resume from any snapshot a previous
/// (interrupted) evaluation of the same key left behind.
pub fn evaluate_all_ckpt(
    keys: &[EvalKey],
    pool: Option<&ThreadPool>,
    ckpt: Option<(&CheckpointStore, CheckpointPolicy)>,
) -> Vec<EvalOutcome> {
    fan_out(keys, pool, |key| {
        let ctx =
            ckpt.map(|(store, policy)| CheckpointCtx { store, policy, key: checkpoint_key(key) });
        evaluate_ckpt(key, ctx)
    })
}

/// Runs `eval` over `keys` as [`evaluate_all`] describes.
fn fan_out<T: Send>(
    keys: &[EvalKey],
    pool: Option<&ThreadPool>,
    eval: impl Fn(&EvalKey) -> T + Sync,
) -> Vec<T> {
    if let Some(pool) = pool {
        return pool.install(|| keys.par_iter().map(eval).collect());
    }
    if keys.len() <= 1 {
        return keys.iter().map(eval).collect();
    }
    let start = Instant::now();
    let first = eval(&keys[0]);
    let work = start.elapsed().as_secs_f64() * (keys.len() - 1) as f64;
    let rest: Vec<T> = keys[1..].par_iter().with_work(work).map(eval).collect();
    std::iter::once(first).chain(rest).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ArchKind, F64Key, MachineKey, SimArchKind};
    use parspeed_core::{ArchModel, MachineParams, ProcessorBudget, SyncBus};
    use parspeed_stencil::KernelKind;

    fn key_256_square_64() -> EvalKey {
        EvalKey::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineKey::new(&MachineParams::paper_defaults()),
            n: 256,
            shape: PartitionShape::Square,
            e: F64Key::new(6.0),
            k: 1,
            budget: ProcessorBudget::Limited(64),
            memory_words: None,
        }
    }

    #[test]
    fn a_pinned_pool_pins_every_batch_size() {
        // `--threads N` governs a key alone in its batch as it governs
        // a key among others.
        let keys = vec![key_256_square_64(); 3];
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            for n in 1..=3 {
                let seen = fan_out(&keys[..n], Some(&pool), |_| rayon::current_num_threads());
                assert_eq!(seen, vec![threads; n], "{n} key(s) on {threads} thread(s)");
            }
        }
    }

    #[test]
    fn optimize_matches_direct_core_call_bit_for_bit() {
        let m = MachineParams::paper_defaults();
        let w = Workload::with_constants(256, PartitionShape::Square, 6.0, 1);
        let direct = SyncBus::new(&m).optimize(&w, ProcessorBudget::Limited(64));
        match evaluate(&key_256_square_64()).unwrap() {
            EvalValue::Optimum { processors, area, cycle_time, speedup, efficiency, used_all } => {
                assert_eq!(processors, direct.processors);
                assert_eq!(area.to_bits(), direct.area.to_bits());
                assert_eq!(cycle_time.to_bits(), direct.cycle_time.to_bits());
                assert_eq!(speedup.to_bits(), direct.speedup.to_bits());
                assert_eq!(efficiency.to_bits(), direct.efficiency.to_bits());
                assert_eq!(used_all, direct.used_all);
            }
            other => panic!("expected optimum, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_memory_becomes_an_error_outcome() {
        let key = EvalKey::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineKey::new(&MachineParams::paper_defaults()),
            n: 1024,
            shape: PartitionShape::Square,
            e: F64Key::new(6.0),
            k: 1,
            budget: ProcessorBudget::Limited(4),
            memory_words: Some(crate::request::F64Key::new(8.0)), // 1024²/4 words needed
        };
        let out = evaluate(&key);
        assert!(matches!(&out, Err(e) if e.to_string().contains("does not fit")));
        assert!(matches!(&out, Err(e) if e.kind() == "infeasible"));
    }

    #[test]
    fn table1_matches_direct_rows() {
        let m = MachineParams::paper_defaults();
        let key = EvalKey::Table1 {
            machine: MachineKey::new(&m),
            n: 1024,
            stencil: KernelKind::FivePoint,
        };
        let direct = table1::rows(&m, 1024, &KernelKind::FivePoint.to_stencil());
        match evaluate(&key).unwrap() {
            EvalValue::Table1 { rows } => assert_eq!(rows, direct),
            other => panic!("expected table1, got {other:?}"),
        }
    }

    #[test]
    fn simulate_matches_direct_simulator_run() {
        let m = MachineParams::paper_defaults();
        let key = EvalKey::Simulate {
            arch: SimArchKind::SyncBus,
            machine: MachineKey::new(&m),
            n: 64,
            shape: PartitionShape::Strip,
            stencil: KernelKind::FivePoint,
            procs: 4,
        };
        let stencil = KernelKind::FivePoint.to_stencil();
        let decomp = StripDecomposition::new(64, 4);
        let spec = IterationSpec::new(&decomp, &stencil);
        let direct = SyncBusSim::new(&m).simulate(&spec);
        match evaluate(&key).unwrap() {
            EvalValue::Simulate { cycle_time, max_compute, comm_fraction, .. } => {
                assert_eq!(cycle_time.to_bits(), direct.cycle_time.to_bits());
                assert_eq!(max_compute.to_bits(), direct.max_compute.to_bits());
                assert_eq!(comm_fraction.to_bits(), direct.comm_fraction().to_bits());
            }
            other => panic!("expected simulate, got {other:?}"),
        }
    }

    #[test]
    fn solve_matches_direct_solver_run() {
        let key = EvalKey::Solve {
            n: 31,
            solver: SolverKind::Cg,
            tol: F64Key::new(1e-9),
            stencil: KernelKind::FivePoint,
            partitions: 0,
            max_iters: 10_000,
            check: None,
        };
        let problem = PoissonProblem::manufactured(31, Manufactured::SinSin);
        let (u, s, stats) = CgSolver { tol: 1e-9, max_iters: 10_000 }.solve(&problem);
        match evaluate(&key).unwrap() {
            EvalValue::Solve {
                converged,
                iterations,
                final_diff,
                max_error,
                global_reductions,
                resumed_from,
            } => {
                assert_eq!(converged, s.converged);
                assert_eq!(iterations, s.iterations);
                assert_eq!(final_diff.to_bits(), s.final_diff.to_bits());
                assert_eq!(max_error.to_bits(), problem.max_error(&u).unwrap().to_bits());
                assert_eq!(global_reductions, Some(stats.global_reductions));
                assert_eq!(resumed_from, None);
            }
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn checkpointed_evaluation_resumes_bit_identically_and_cleans_up() {
        let key = EvalKey::Solve {
            n: 16,
            solver: SolverKind::Jacobi,
            tol: F64Key::new(1e-8),
            stencil: KernelKind::FivePoint,
            partitions: 0,
            max_iters: 10_000,
            check: None,
        };
        let clean = evaluate(&key).unwrap();

        // Interrupt: a budget-capped run of the same solve stands in for a
        // shard dying mid-evaluation — its snapshots stay in the shared
        // store under the canonical checkpoint key.
        let store = CheckpointStore::new(8);
        let problem = PoissonProblem::manufactured(16, Manufactured::SinSin);
        let policy = SolverKind::Jacobi.default_check().to_policy();
        let ctx = CheckpointCtx {
            store: &store,
            policy: CheckpointPolicy::default(),
            key: checkpoint_key(&key),
        };
        let capped = JacobiSolver { tol: 1e-8, max_iters: 40, check: policy, ..Default::default() };
        let (_, partial, _) =
            capped.solve_checkpointed(&problem, &KernelKind::FivePoint.to_stencil(), Some(ctx));
        assert!(!partial.converged && !store.is_empty(), "the interruption left a snapshot");

        // Failover: evaluating the same canonical key against the store
        // resumes the solve instead of restarting it — and the answer is
        // bit-identical to the uninterrupted run.
        let out = evaluate_all_ckpt(&[key], None, Some((&store, CheckpointPolicy::default())));
        match (clean, out[0].clone().unwrap()) {
            (
                EvalValue::Solve { converged, iterations, final_diff, max_error, .. },
                EvalValue::Solve {
                    converged: c2,
                    iterations: i2,
                    final_diff: f2,
                    max_error: e2,
                    resumed_from,
                    ..
                },
            ) => {
                assert_eq!(converged, c2);
                assert_eq!(iterations, i2);
                assert_eq!(final_diff.to_bits(), f2.to_bits());
                assert_eq!(max_error.to_bits(), e2.to_bits());
                let from = resumed_from.expect("the failover run resumed");
                assert!(from > 0 && from < iterations);
            }
            other => panic!("expected two solves, got {other:?}"),
        }
        assert!(store.is_empty(), "a converged solve cleans up its snapshot");
        assert_eq!(store.resumes(), 1);
    }

    #[test]
    fn experiment_effect_without_runner_is_unsupported() {
        let out = run_effect(&EffectKey::Experiment { id: "e1".into(), quick: true }, None);
        assert!(matches!(&out, Err(e) if e.kind() == "unsupported"));
    }

    #[test]
    fn experiment_effect_routes_through_the_runner() {
        fn runner(id: &str, quick: bool) -> Result<String, String> {
            match id {
                "e1" => Ok(format!("report quick={quick}")),
                other => Err(format!("unknown experiment `{other}`")),
            }
        }
        let ok = run_effect(&EffectKey::Experiment { id: "e1".into(), quick: true }, Some(runner));
        assert_eq!(ok.unwrap(), EvalValue::Report("report quick=true".into()));
        let err =
            run_effect(&EffectKey::Experiment { id: "e99".into(), quick: false }, Some(runner));
        assert!(matches!(&err, Err(e) if e.to_string().contains("e99")));
    }

    #[test]
    fn parallel_and_sequential_evaluation_agree_exactly() {
        let keys: Vec<EvalKey> = (0..40)
            .map(|i| EvalKey::Optimize {
                arch: ArchKind::all()[i % 6],
                machine: MachineKey::new(&MachineParams::paper_defaults()),
                n: 64 << (i % 4),
                shape: if i % 2 == 0 { PartitionShape::Square } else { PartitionShape::Strip },
                e: F64Key::new(6.0),
                k: 1,
                budget: ProcessorBudget::Limited(1 + i),
                memory_words: None,
            })
            .collect();
        let seq: Vec<EvalOutcome> = keys.iter().map(evaluate).collect();
        let single = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let four = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(seq, evaluate_all(&keys, Some(&single)));
        assert_eq!(seq, evaluate_all(&keys, Some(&four)));
        assert_eq!(seq, evaluate_all(&keys, None));
    }
}

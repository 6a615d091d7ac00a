//! Property tests for the service surface: a shuffled, duplicated,
//! mixed-kind batch — including the `Table1`, `Compare`, `Simulate`, and
//! `Solve` variants the service redesign added — must return responses in
//! the original request order, each bit-identical to the direct calls a
//! caller would hand-write against `parspeed-core`, `parspeed-arch`, and
//! `parspeed-solver`.

use parspeed_core::{optimize_constrained, table1, MachineParams, ProcessorBudget, Workload};
use parspeed_engine::{
    ArchKind, Engine, EvalValue, MachineSpec, Query, Response, SimArchKind, SolverKind,
    StencilSpec, WorkloadSpec,
};
use parspeed_stencil::{PartitionShape, Stencil};
use proptest::prelude::*;

/// The query pool the batches cycle over: one of each new variant plus
/// optimizer traffic for them to interleave with.
fn pool() -> Vec<Query> {
    let spec = MachineSpec::default();
    let square =
        |n| WorkloadSpec { n, stencil: StencilSpec::FivePoint, shape: PartitionShape::Square };
    vec![
        Query::Table1 { machine: spec, n: 512, stencil: StencilSpec::FivePoint },
        Query::Compare { machine: spec, workload: square(128), procs: Some(32) },
        Query::Simulate {
            arch: SimArchKind::SyncBus,
            machine: spec,
            workload: WorkloadSpec {
                n: 64,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Strip,
            },
            procs: 4,
        },
        Query::Solve {
            n: 15,
            solver: SolverKind::Cg,
            tol: 1e-6,
            stencil: StencilSpec::FivePoint,
            partitions: 4,
            max_iters: 10_000,
            check: None,
        },
        Query::Optimize {
            arch: ArchKind::SyncBus,
            machine: spec,
            workload: square(256),
            procs: Some(64),
            memory_words: None,
        },
        Query::Optimize {
            arch: ArchKind::Hypercube,
            machine: spec,
            workload: square(1024),
            procs: None,
            memory_words: None,
        },
    ]
}

/// What a caller would compute by hand for each pool entry, with no
/// engine anywhere near it.
fn direct_answers() -> Vec<Response> {
    let m = MachineParams::paper_defaults();
    let five = Stencil::five_point();
    let mut expected = Vec::new();

    // Table1.
    expected.push(Response::Single(Ok(EvalValue::Table1 { rows: table1::rows(&m, 512, &five) })));

    // Compare (pool index 1) is checked against
    // [`direct_compare_outcomes`] in `check` — its labels are engine-side
    // presentation — so its slot here is a placeholder.
    expected.push(Response::Sweep(vec![]));

    // Simulate: the exact event-level run plus the model's predictions.
    let decomp = parspeed_grid::StripDecomposition::new(64, 4);
    let spec = parspeed_arch::IterationSpec::new(&decomp, &five);
    let report = parspeed_arch::SyncBusSim::new(&m).simulate(&spec);
    let w64 = Workload::new(64, &five, PartitionShape::Strip);
    let model = ArchKind::SyncBus.model(&m);
    let simulate = Ok(EvalValue::Simulate {
        cycle_time: report.cycle_time,
        max_compute: report.max_compute,
        comm_fraction: report.comm_fraction(),
        predicted: model.cycle_time(&w64, w64.points() / 4.0),
        seq_time: model.seq_time(&w64),
    });

    // Solve: the exact CG run and its error against the manufactured
    // solution.
    let problem =
        parspeed_solver::PoissonProblem::manufactured(15, parspeed_solver::Manufactured::SinSin);
    let (u, status, stats) =
        parspeed_solver::CgSolver { tol: 1e-6, max_iters: 10_000 }.solve(&problem);
    let exact = parspeed_solver::Manufactured::SinSin;
    let h = problem.h();
    let mut max_error = 0.0f64;
    for r in 0..problem.n() {
        for c in 0..problem.n() {
            let (x, y) = ((c as f64 + 1.0) * h, (r as f64 + 1.0) * h);
            max_error = max_error.max((u.get(r, c) - exact.u(x, y)).abs());
        }
    }
    let solve = Ok(EvalValue::Solve {
        converged: status.converged,
        iterations: status.iterations,
        final_diff: status.final_diff,
        max_error,
        global_reductions: Some(stats.global_reductions),
        resumed_from: None,
    });

    // The two optimizer entries.
    let w256 = Workload::new(256, &five, PartitionShape::Square);
    let w1024 = Workload::new(1024, &five, PartitionShape::Square);
    let opt = |arch: ArchKind, w: &Workload, budget: ProcessorBudget| {
        let model = arch.model(&m);
        let direct = optimize_constrained(model.as_ref(), w, budget, None).unwrap();
        Ok(EvalValue::Optimum {
            processors: direct.processors,
            area: direct.area,
            cycle_time: direct.cycle_time,
            speedup: direct.speedup,
            efficiency: direct.efficiency,
            used_all: direct.used_all,
        })
    };
    let opt_bus = opt(ArchKind::SyncBus, &w256, ProcessorBudget::Limited(64));
    let opt_hc = opt(ArchKind::Hypercube, &w1024, ProcessorBudget::Unlimited);

    expected.push(Response::Single(simulate));
    expected.push(Response::Single(solve));
    expected.push(Response::Single(opt_bus));
    expected.push(Response::Single(opt_hc));
    expected
}

/// The compare entry's expected outcomes (labels are presentation-only
/// and asserted structurally).
fn direct_compare_outcomes() -> Vec<parspeed_engine::EvalOutcome> {
    let m = MachineParams::paper_defaults();
    let five = Stencil::five_point();
    let w128 = Workload::new(128, &five, PartitionShape::Square);
    ArchKind::all()
        .into_iter()
        .map(|arch| {
            let model = arch.model(&m);
            let direct =
                optimize_constrained(model.as_ref(), &w128, ProcessorBudget::Limited(32), None)
                    .unwrap();
            Ok(EvalValue::Optimum {
                processors: direct.processors,
                area: direct.area,
                cycle_time: direct.cycle_time,
                speedup: direct.speedup,
                efficiency: direct.efficiency,
                used_all: direct.used_all,
            })
        })
        .collect()
}

/// Checks one engine response against the direct answer for pool entry
/// `pool_idx`, bit-for-bit.
fn check(pool_idx: usize, response: &Response, expected: &[Response]) {
    if pool_idx == 1 {
        // Compare: six points in paper order, outcomes bit-identical.
        let points = response.sweep().unwrap_or_else(|| panic!("compare answers points"));
        let outcomes = direct_compare_outcomes();
        assert_eq!(points.len(), outcomes.len());
        for ((label, got), want) in points.iter().zip(&outcomes) {
            assert_eq!(got, want, "compare point {}", label.arch);
        }
        let archs: Vec<&str> = points.iter().map(|(l, _)| l.arch).collect();
        assert_eq!(
            archs,
            vec!["hypercube", "mesh", "sync-bus", "async-bus", "scheduled-bus", "banyan"]
        );
    } else {
        assert_eq!(response, &expected[pool_idx], "pool entry {pool_idx}");
    }
}

proptest! {
    /// Shuffle a duplicated mixed-kind batch with a seeded permutation:
    /// the engine must answer every slot in the original request order,
    /// bit-identical to the direct calls.
    #[test]
    fn shuffled_duplicated_batch_answers_in_order_bit_identically(
        seed in 0u64..1_000_000,
        dup in 1usize..4,
    ) {
        let pool = pool();
        let expected = direct_answers();

        // Duplicate the pool `dup` times, then Fisher–Yates with an LCG
        // seeded from the proptest case.
        let mut order: Vec<usize> = (0..pool.len() * dup).map(|i| i % pool.len()).collect();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for i in (1..order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let batch: Vec<Query> = order.iter().map(|&i| pool[i].clone()).collect();

        let engine = Engine::builder().build();
        let out = engine.run_batch(&batch);
        prop_assert_eq!(out.responses.len(), batch.len());
        for (slot, &pool_idx) in order.iter().enumerate() {
            check(pool_idx, &out.responses[slot], &expected);
        }
    }
}

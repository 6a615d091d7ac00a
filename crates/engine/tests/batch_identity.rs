//! Integration tests pinning the engine's core contract: batched, deduped,
//! cached, parallel evaluation returns **bit-identical** answers to direct
//! `parspeed-core` calls — the ones a caller would write by hand with
//! named stencils and `Workload::new` — and a cache hit can never change
//! an answer.

use parspeed_core::isoefficiency::min_grid_for_efficiency;
use parspeed_core::minsize::{min_grid_side, BusVariant};
use parspeed_core::{
    leverage, optimize_constrained, ArchModel, AsyncBus, Banyan, Hypercube, MachineParams, Mesh,
    ProcessorBudget, ScheduledBus, SyncBus, Workload,
};
use parspeed_engine::{
    ArchKind, Engine, EvalValue, Lever, MachineSpec, Query, Response, StencilSpec, WorkloadSpec,
};
use parspeed_stencil::{PartitionShape, Stencil};

fn direct_model(arch: ArchKind, m: &MachineParams) -> Box<dyn ArchModel> {
    match arch {
        ArchKind::Hypercube => Box::new(Hypercube::new(m)),
        ArchKind::Mesh => Box::new(Mesh::new(m)),
        ArchKind::SyncBus => Box::new(SyncBus::new(m)),
        ArchKind::AsyncBus => Box::new(AsyncBus::new(m)),
        ArchKind::ScheduledBus => Box::new(ScheduledBus::new(m)),
        ArchKind::Banyan => Box::new(Banyan::new(m)),
    }
}

fn direct_stencil(s: StencilSpec) -> Stencil {
    match s {
        StencilSpec::FivePoint => Stencil::five_point(),
        StencilSpec::NinePointBox => Stencil::nine_point_box(),
        StencilSpec::NinePointStar => Stencil::nine_point_star(),
        StencilSpec::ThirteenPoint => Stencil::thirteen_point_star(),
        StencilSpec::Custom { .. } => unreachable!("test uses named stencils"),
    }
}

/// Every (architecture, stencil, shape, size, budget) combination must
/// round-trip through the engine bit-for-bit against the hand-written
/// direct call.
#[test]
fn optimize_grid_is_bit_identical_to_direct_calls() {
    let stencils = [StencilSpec::FivePoint, StencilSpec::NinePointBox];
    let shapes = [PartitionShape::Strip, PartitionShape::Square];
    let sizes = [64usize, 129, 256, 1000];
    let budgets = [Some(1), Some(14), Some(64), None];

    let mut batch = Vec::new();
    for arch in ArchKind::all() {
        for stencil in stencils {
            for shape in shapes {
                for n in sizes {
                    for procs in budgets {
                        batch.push(Query::Optimize {
                            arch,
                            machine: MachineSpec::default(),
                            workload: WorkloadSpec { n, stencil, shape },
                            procs,
                            memory_words: None,
                        });
                    }
                }
            }
        }
    }
    let engine = Engine::builder().build();
    let out = engine.run_batch(&batch);

    let m = MachineParams::paper_defaults();
    for (query, response) in batch.iter().zip(&out.responses) {
        let Query::Optimize { arch, workload, procs, .. } = query else { unreachable!() };
        let model = direct_model(*arch, &m);
        let shape = workload.shape;
        let w = Workload::new(workload.n, &direct_stencil(workload.stencil), shape);
        let budget = match procs {
            Some(p) => ProcessorBudget::Limited(*p),
            None => ProcessorBudget::Unlimited,
        };
        let direct = optimize_constrained(model.as_ref(), &w, budget, None).unwrap();
        match response {
            Response::Single(Ok(EvalValue::Optimum {
                processors,
                area,
                cycle_time,
                speedup,
                efficiency,
                used_all,
            })) => {
                let ctx = format!("{query:?}");
                assert_eq!(*processors, direct.processors, "{ctx}");
                assert_eq!(area.to_bits(), direct.area.to_bits(), "{ctx}");
                assert_eq!(cycle_time.to_bits(), direct.cycle_time.to_bits(), "{ctx}");
                assert_eq!(speedup.to_bits(), direct.speedup.to_bits(), "{ctx}");
                assert_eq!(efficiency.to_bits(), direct.efficiency.to_bits(), "{ctx}");
                assert_eq!(*used_all, direct.used_all, "{ctx}");
            }
            other => panic!("expected optimum for {query:?}, got {other:?}"),
        }
    }
}

#[test]
fn minsize_iso_and_leverage_match_direct_calls() {
    let m = MachineParams::paper_defaults();
    let spec = MachineSpec::default();
    let batch = vec![
        Query::MinSize {
            variant: BusVariant::SyncSquare,
            machine: spec,
            e: 6.0,
            k: 1.0,
            procs: 14,
        },
        Query::Isoefficiency {
            arch: ArchKind::SyncBus,
            machine: spec,
            stencil: StencilSpec::FivePoint,
            shape: PartitionShape::Square,
            procs: 16,
            efficiency: 0.5,
        },
        Query::Leverage {
            machine: spec,
            workload: WorkloadSpec {
                n: 1024,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: Some(24),
            lever: Lever::Bus,
            factor: 2.0,
        },
    ];
    let out = Engine::builder().build().run_batch(&batch);

    let direct_min = min_grid_side(&m, 6.0, 1.0, 14, BusVariant::SyncSquare);
    match out.responses[0].single().unwrap() {
        Ok(EvalValue::MinSize { n_side, .. }) => {
            assert_eq!(n_side.to_bits(), direct_min.to_bits());
        }
        other => panic!("unexpected {other:?}"),
    }

    let bus = SyncBus::new(&m);
    let template = Workload::new(2, &Stencil::five_point(), PartitionShape::Square);
    let direct_iso = min_grid_for_efficiency(&bus, &template, 16, 0.5).unwrap();
    match out.responses[1].single().unwrap() {
        Ok(EvalValue::Isoefficiency { n }) => assert_eq!(*n, direct_iso),
        other => panic!("unexpected {other:?}"),
    }

    let w = Workload::new(1024, &Stencil::five_point(), PartitionShape::Square);
    let direct_lev = leverage::bus_speedup(&m, &w, ProcessorBudget::Limited(24), 2.0);
    match out.responses[2].single().unwrap() {
        Ok(EvalValue::Leverage { baseline, upgraded, factor }) => {
            assert_eq!(baseline.to_bits(), direct_lev.baseline.to_bits());
            assert_eq!(upgraded.to_bits(), direct_lev.upgraded.to_bits());
            assert_eq!(factor.to_bits(), direct_lev.factor().to_bits());
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Hammering the same batch through a warm cache, in any thread
/// configuration, never changes a single bit of any answer.
#[test]
fn cache_hits_never_change_answers() {
    let mut batch = Vec::new();
    for arch in ArchKind::all() {
        for n in [64usize, 256, 777] {
            batch.push(Query::Optimize {
                arch,
                machine: MachineSpec::default(),
                workload: WorkloadSpec {
                    n,
                    stencil: StencilSpec::NinePointStar,
                    shape: PartitionShape::Square,
                },
                procs: Some(32),
                memory_words: None,
            });
        }
    }
    for threads in [0usize, 1, 4] {
        let engine = Engine::builder().threads(threads).build();
        let cold = engine.run_batch(&batch);
        assert_eq!(cold.telemetry.cache_hits, 0, "threads={threads}");
        for _ in 0..5 {
            let warm = engine.run_batch(&batch);
            assert_eq!(warm.telemetry.cache_hits, warm.telemetry.unique);
            assert_eq!(warm.telemetry.evaluated, 0);
            assert_eq!(cold.responses, warm.responses, "threads={threads}");
        }
    }
}

/// A sweep macro-query answers exactly like the per-point queries it
/// expands to.
#[test]
fn sweep_points_match_point_queries() {
    let spec = MachineSpec::default();
    let sweep = Query::Sweep {
        archs: vec![ArchKind::SyncBus, ArchKind::Hypercube],
        machine: spec,
        stencils: vec![StencilSpec::FivePoint],
        shapes: vec![PartitionShape::Square],
        budgets: vec![Some(16)],
        n_from: 64,
        n_to: 512,
    };
    let engine = Engine::builder().build();
    let out = engine.run_batch(std::slice::from_ref(&sweep));
    let points = out.responses[0].sweep().unwrap();
    assert_eq!(points.len(), 8); // 2 archs × 4 doubling sizes

    for (label, outcome) in points {
        let arch = ArchKind::parse(label.arch).unwrap();
        let point = Query::Optimize {
            arch,
            machine: spec,
            workload: WorkloadSpec {
                n: label.n,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: Some(16),
            memory_words: None,
        };
        let single = engine.run_batch(&[point]);
        assert_eq!(single.responses[0].single().unwrap(), outcome, "{label:?}");
    }
}

/// The acceptance-criterion workload: a 10k-query **mixed-kind** batch
/// (optimize, minsize, isoeff, leverage, table1, compare, simulate, solve
/// — the old and the new service query variants together) with heavy
/// duplication must run at least 4× faster through the engine
/// (dedup + cache + parallel sharding) than the naive sequential
/// per-query loop, with bit-identical responses.
#[test]
fn ten_thousand_query_batch_beats_naive_by_4x() {
    let batch = parspeed_engine::workloads::mixed_batch(10_000);

    // Sibling tests in this binary run on other threads and fight for
    // cores; minimum-of-N on both sides keeps the ratio about the code,
    // not the scheduler.
    let mut naive_secs = f64::INFINITY;
    let mut naive = Vec::new();
    for _ in 0..2 {
        let t0 = std::time::Instant::now();
        naive = parspeed_engine::eval_naive(&batch);
        naive_secs = naive_secs.min(t0.elapsed().as_secs_f64());
    }

    let mut engine_secs = f64::INFINITY;
    let mut fast = None;
    for _ in 0..3 {
        let engine = Engine::builder().build(); // cold cache each time
        let t1 = std::time::Instant::now();
        let out = engine.run_batch(&batch);
        engine_secs = engine_secs.min(t1.elapsed().as_secs_f64());
        fast = Some(out);
    }
    let fast = fast.expect("ran at least once");

    assert_eq!(fast.responses, naive, "engine must be bit-identical to the naive loop");
    assert!(fast.telemetry.dedup_factor() > 20.0, "batch should be heavily duplicated");
    let speedup = naive_secs / engine_secs;
    assert!(
        speedup >= 4.0,
        "engine {engine_secs:.4}s vs naive {naive_secs:.4}s — only {speedup:.1}×"
    );
}

//! Canonical serving-shaped workloads, shared by the acceptance tests and
//! the throughput benches so they always measure the same traffic.

use crate::request::{
    ArchKind, Lever, MachineSpec, Query, SimArchKind, SolverKind, StencilSpec, WorkloadSpec,
};
use parspeed_core::minsize::BusVariant;
use parspeed_stencil::PartitionShape;

/// A `len`-query mixed-kind batch cycling over a few hundred unique
/// queries — the shape of mixed dashboard + capacity-planning traffic
/// hitting the service: mostly optimizer points, spiced with every other
/// cacheable query kind (table1, compare, minsize, isoefficiency,
/// leverage, simulate, solve). Effects (threads, experiment) are excluded:
/// they are uncacheable by design, so they say nothing about the
/// dedup/cache pipeline this workload exists to measure.
pub fn mixed_batch(len: usize) -> Vec<Query> {
    let stencils = [StencilSpec::FivePoint, StencilSpec::NinePointBox];
    let shapes = PartitionShape::all();
    let sizes = [256usize, 512, 1024, 2048, 4096];
    let budgets = [Some(8), Some(16), Some(32), Some(64), None];
    let archs = [ArchKind::SyncBus, ArchKind::AsyncBus, ArchKind::Hypercube, ArchKind::Banyan];
    let spec = MachineSpec::default();
    let mut unique = Vec::new();
    for arch in archs {
        for stencil in stencils {
            for shape in shapes {
                for n in sizes {
                    for procs in budgets {
                        unique.push(Query::Optimize {
                            arch,
                            machine: spec,
                            workload: WorkloadSpec { n, stencil, shape },
                            procs,
                            memory_words: None,
                        });
                    }
                }
            }
        }
    }
    // The newer service variants, sprinkled through the optimizer traffic.
    for n in sizes {
        unique.push(Query::Table1 { machine: spec, n, stencil: StencilSpec::FivePoint });
        unique.push(Query::Compare {
            machine: spec,
            workload: WorkloadSpec {
                n,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: Some(32),
        });
    }
    for procs in [8usize, 14, 32] {
        unique.push(Query::MinSize {
            variant: BusVariant::SyncSquare,
            machine: spec,
            e: 6.0,
            k: 1.0,
            procs,
        });
        unique.push(Query::Isoefficiency {
            arch: ArchKind::SyncBus,
            machine: spec,
            stencil: StencilSpec::FivePoint,
            shape: PartitionShape::Square,
            procs,
            efficiency: 0.5,
        });
        unique.push(Query::Leverage {
            machine: spec,
            workload: WorkloadSpec {
                n: 1024,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: Some(procs),
            lever: Lever::Bus,
            factor: 2.0,
        });
    }
    for procs in [2usize, 4] {
        unique.push(Query::Simulate {
            arch: SimArchKind::SyncBus,
            machine: spec,
            workload: WorkloadSpec {
                n: 64,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Strip,
            },
            procs,
        });
    }
    for solver in [SolverKind::Cg, SolverKind::Jacobi] {
        unique.push(Query::Solve {
            n: 15,
            solver,
            tol: 1e-6,
            stencil: StencilSpec::FivePoint,
            partitions: 4,
            max_iters: 10_000,
            check: None,
        });
    }
    (0..len).map(|i| unique[i % unique.len()].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_batch_contains_every_cacheable_kind_and_cycles() {
        let batch = mixed_batch(1000);
        assert_eq!(batch.len(), 1000);
        let has = |f: fn(&Query) -> bool| batch.iter().any(f);
        assert!(has(|q| matches!(q, Query::Optimize { .. })));
        assert!(has(|q| matches!(q, Query::Table1 { .. })));
        assert!(has(|q| matches!(q, Query::Compare { .. })));
        assert!(has(|q| matches!(q, Query::MinSize { .. })));
        assert!(has(|q| matches!(q, Query::Isoefficiency { .. })));
        assert!(has(|q| matches!(q, Query::Leverage { .. })));
        assert!(has(|q| matches!(q, Query::Simulate { .. })));
        assert!(has(|q| matches!(q, Query::Solve { .. })));
    }
}

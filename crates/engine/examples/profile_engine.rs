//! Stage-by-stage timing of the engine pipeline on the benchmark batch
//! (10k atoms, 400 unique): planning, parallel vs sequential evaluation,
//! cold and warm `run_batch`, and the naive per-query baseline.
//!
//! ```sh
//! cargo run --release -p parspeed-engine --example profile_engine
//! ```

use parspeed_engine::*;
use std::time::Instant;

fn main() {
    let stencils = [StencilSpec::FivePoint, StencilSpec::NinePointBox];
    let shapes = PartitionShape::all();
    let sizes = [256usize, 512, 1024, 2048, 4096];
    let budgets = [Some(8), Some(16), Some(32), Some(64), None];
    let archs = [ArchKind::SyncBus, ArchKind::AsyncBus, ArchKind::Hypercube, ArchKind::Banyan];
    let mut unique = Vec::new();
    for arch in archs {
        for stencil in stencils {
            for shape in shapes {
                for n in sizes {
                    for procs in budgets {
                        unique.push(Query::Optimize {
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
    let batch: Vec<Query> = (0..10_000).map(|i| unique[i % unique.len()].clone()).collect();

    let t = Instant::now();
    let plan = Plan::build(&batch);
    println!("plan: {:?} ({} unique)", t.elapsed(), plan.unique.len());

    let t = Instant::now();
    let outs = exec::evaluate_all(&plan.unique, None);
    println!("eval par: {:?} ({} outcomes)", t.elapsed(), outs.len());
    let t = Instant::now();
    let outs2: Vec<_> = plan.unique.iter().map(exec::evaluate).collect();
    println!("eval seq: {:?}", t.elapsed());
    assert_eq!(outs, outs2);

    let engine = Engine::builder().build();
    let t = Instant::now();
    let out = engine.run_batch(&batch);
    println!("run_batch cold: {:?}", t.elapsed());
    let t = Instant::now();
    let out2 = engine.run_batch(&batch);
    println!("run_batch warm: {:?}", t.elapsed());
    assert_eq!(out.responses.len(), out2.responses.len());

    let t = Instant::now();
    let naive = eval_naive(&batch);
    println!("naive: {:?}", t.elapsed());
    assert_eq!(naive.len(), batch.len());
}

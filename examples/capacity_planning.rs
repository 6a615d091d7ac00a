//! Capacity planning with the query engine: given a machine, how many
//! processors should each job use, which jobs can fill the machine at all,
//! and what would an upgrade buy — submitted as *one batch* to
//! `parspeed-engine`, which dedups the job mix and fans it across cores.
//!
//! ```sh
//! cargo run --example capacity_planning
//! ```

use parspeed::engine::{BusVariant, EvalValue, Lever, Response};
use parspeed::prelude::*;

fn main() {
    let machine = MachineParams::paper_defaults();
    let n_procs = 24usize;
    let spec = MachineSpec::default(); // resolves to paper_defaults()

    println!(
        "Machine: {n_procs}-processor synchronous bus (b = {:.1} µs/word, c = 0)\n",
        machine.bus.b * 1e6
    );

    // Build the whole planning session as one batch: the job-mix grid, the
    // Fig-7 thresholds, and the upgrade what-ifs.
    let stencils = [StencilSpec::FivePoint, StencilSpec::NinePointBox];
    let shapes = PartitionShape::all();
    let sizes = [128usize, 256, 512, 1024];

    let mut batch: Vec<Query> = Vec::new();
    for stencil in stencils {
        for shape in shapes {
            for n in sizes {
                batch.push(Query::Optimize {
                    arch: ArchKind::SyncBus,
                    machine: spec,
                    workload: WorkloadSpec { n, stencil, shape },
                    procs: Some(n_procs),
                    memory_words: None,
                });
            }
        }
    }
    let minsize_variants = [BusVariant::SyncStrip, BusVariant::AsyncStrip, BusVariant::SyncSquare];
    for v in minsize_variants {
        for e in [6.0, 12.0] {
            batch.push(Query::MinSize { variant: v, machine: spec, e, k: 1.0, procs: n_procs });
        }
    }
    for lever in [Lever::Bus, Lever::Flop] {
        batch.push(Query::Leverage {
            machine: spec,
            workload: WorkloadSpec {
                n: 1024,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: Some(n_procs),
            lever,
            factor: 2.0,
        });
    }

    let engine = Engine::builder().build();
    let out = engine.run_batch(&batch);
    let mut responses = out.responses.iter();

    // Allocation advice across the job mix.
    println!(
        "{:>6} {:>14} {:>10} {:>10} {:>10} {:>8}",
        "n", "stencil", "shape", "procs", "speedup", "full?"
    );
    for stencil in stencils {
        for shape in shapes {
            for n in sizes {
                let Some(Response::Single(Ok(EvalValue::Optimum {
                    processors,
                    speedup,
                    used_all,
                    ..
                }))) = responses.next()
                else {
                    panic!("optimize response expected");
                };
                println!(
                    "{:>6} {:>14} {:>10} {:>10} {:>10.1} {:>8}",
                    n,
                    stencil.name(),
                    shape.name(),
                    processors,
                    speedup,
                    if *used_all { "yes" } else { "no" }
                );
            }
        }
    }

    // Fig-7 style thresholds for this machine.
    println!("\nSmallest grid side that gainfully uses all {n_procs} processors:");
    for v in minsize_variants {
        let mut sides = [0.0f64; 2];
        for side in &mut sides {
            let Some(Response::Single(Ok(EvalValue::MinSize { n_side, .. }))) = responses.next()
            else {
                panic!("minsize response expected");
            };
            *side = *n_side;
        }
        println!(
            "  {:<22} 5-point: n ≥ {:>6.0}   9-point: n ≥ {:>6.0}",
            v.label(),
            sides[0],
            sides[1]
        );
    }

    // What would an upgrade buy at the optimum?
    let mut factors = [0.0f64; 2];
    for f in &mut factors {
        let Some(Response::Single(Ok(EvalValue::Leverage { factor, .. }))) = responses.next()
        else {
            panic!("leverage response expected");
        };
        *f = *factor;
    }
    println!(
        "\nUpgrades at n = 1024 (squares): bus×2 → {:.0}% of cycle, flop×2 → {:.0}%",
        100.0 * factors[0],
        100.0 * factors[1]
    );
    println!("Communication speed is the better lever (paper §6.1).");

    println!("\nEngine telemetry: {}", out.telemetry);
}

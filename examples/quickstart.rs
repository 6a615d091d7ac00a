//! Quickstart: ask the model how many processors a problem deserves.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use parspeed::prelude::*;

fn main() {
    // The paper's calibrated machine constants (`MachineParams` docs).
    let machine = MachineParams::paper_defaults();

    // A 256×256 Poisson grid, 5-point stencil, square partitions.
    let stencil = Stencil::five_point();
    let workload = Workload::new(256, &stencil, PartitionShape::Square);

    println!("Problem: {}×{} grid, {} stencil, square partitions\n", 256, 256, stencil.name());

    // On a synchronous shared bus with no processor limit, the optimum is
    // *interior*: more processors would slow the solve down.
    let bus = SyncBus::new(&machine);
    let opt = bus.optimize(&workload, ProcessorBudget::Unlimited);
    println!("Synchronous bus, unlimited processors:");
    println!("  optimal processors : {}", opt.processors);
    println!("  partition area     : {:.0} points", opt.area);
    println!("  cycle time         : {:.3} ms", opt.cycle_time * 1e3);
    println!(
        "  speedup            : {:.1}×  (efficiency {:.0}%)",
        opt.speedup,
        100.0 * opt.efficiency
    );

    // On a hypercube the optimum is extremal — use everything you have.
    let cube = Hypercube::new(&machine);
    let opt = cube.optimize(&workload, ProcessorBudget::Limited(64));
    println!("\nHypercube, 64 processors available:");
    println!("  optimal processors : {} (used_all = {})", opt.processors, opt.used_all);
    println!("  speedup            : {:.1}×", opt.speedup);

    // How big must the grid be before a 16-processor bus is worth filling?
    let n_min = parspeed::model::minsize::min_grid_side(
        &machine,
        workload.e_flops,
        workload.k as f64,
        16,
        parspeed::model::minsize::BusVariant::SyncSquare,
    );
    println!("\nSmallest grid that gainfully uses all 16 bus processors: n ≈ {n_min:.0}");
}

//! `parspeed compare` — every architecture side by side on one instance.
//!
//! One [`Query::Compare`](parspeed_engine::Query::Compare) macro-query:
//! the engine expands it into six optimizer atoms that dedup against any
//! other optimize traffic in the process.

use crate::args::{Args, CliError};
use crate::commands::eval_points;
use crate::select;
use parspeed_bench::report::Table;
use parspeed_engine::{ArchKind, EvalValue, Query, WorkloadSpec};

pub const KEYS: &[&str] =
    &["n", "stencil", "shape", "procs", "tfp", "b", "c", "alpha", "beta", "packet", "w"];
pub const SWITCHES: &[&str] = &["flex32"];

/// Usage shown by `parspeed help compare`.
pub const USAGE: &str = "parspeed compare [--n 256] [--stencil 5pt] [--shape square] [--procs N]
    [machine overrides]

Optimizes the same problem on every architecture class and tabulates the
optimal processor counts and speedups — the paper's Table I, for your
instance instead of asymptotically.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let machine = select::machine_spec(args)?;
    let n = args.usize_or("n", 256)?;
    let stencil = select::stencil_spec(args.str_or("stencil", "5pt"))?;
    let shape = select::shape_key(args.str_or("shape", "square"))?;
    let procs = args.usize_opt("procs")?;
    let workload = WorkloadSpec { n, stencil, shape };
    let points = eval_points(Query::Compare { machine, workload, procs })?;

    let params = machine.resolve();
    let mut t = Table::new(
        format!(
            "All architectures · n={n} · {} · {}",
            select::stencil_title(stencil),
            shape.name()
        ),
        &["architecture", "processors", "cycle time", "speedup", "efficiency"],
    );
    // The points come in `ArchKind::all()` order; display names come from
    // the models (the labels carry the short wire names).
    for (arch, (_, outcome)) in ArchKind::all().into_iter().zip(&points) {
        let EvalValue::Optimum { processors, cycle_time, speedup, efficiency, .. } =
            outcome.as_ref().expect("no memory budget, cannot be infeasible")
        else {
            unreachable!("compare points are optimizer runs")
        };
        t.row(vec![
            arch.model(&params).name().into(),
            processors.to_string(),
            format!("{cycle_time:.3e} s"),
            format!("{speedup:.2}"),
            format!("{:.1}%", efficiency * 100.0),
        ]);
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_every_architecture() {
        let toks: Vec<String> = ["--n", "128"].iter().map(|t| t.to_string()).collect();
        let args = Args::parse(&toks, KEYS, SWITCHES).unwrap();
        let out = run(&args).unwrap();
        for name in [
            "hypercube",
            "mesh",
            "synchronous bus",
            "asynchronous bus",
            "scheduled bus",
            "switching network",
        ] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
    }

    #[test]
    fn hypercube_dominates_the_bus_on_large_grids() {
        let args = Args::parse(&[], KEYS, SWITCHES).unwrap();
        let out = run(&args).unwrap();
        // The hypercube row should show a larger speedup than the sync bus
        // row — crude but effective: parse the speedup column.
        let speedup = |needle: &str| -> f64 {
            out.lines()
                .find(|l| l.contains(needle))
                .and_then(|l| l.split_whitespace().rev().nth(1).map(|s| s.parse().unwrap()))
                .unwrap()
        };
        assert!(speedup("hypercube") > speedup("synchronous bus"), "{out}");
    }
}

//! `parspeed sweep` — optimal speedup and processor count as the problem
//! grows (the paper's central question).
//!
//! The sweep is one [`Query::Sweep`](parspeed_engine::Query::Sweep)
//! macro-query through the engine: it expands, dedups, and fans the grid
//! across its thread pool, and this command renders the points. Engine
//! responses are bit-identical to the direct model calls this command
//! used to make, so the rendered table is unchanged.

use crate::args::{Args, CliError};
use crate::commands::eval_points;
use crate::select;
use parspeed_bench::report::Table;
use parspeed_engine::{EvalValue, Query};

pub const KEYS: &[&str] = &[
    "stencil", "shape", "procs", "n-from", "n-to", "tfp", "b", "c", "alpha", "beta", "packet", "w",
];
pub const SWITCHES: &[&str] = &["flex32"];

/// Usage shown by `parspeed help sweep`.
pub const USAGE: &str = "parspeed sweep --arch <name> [--n-from 64] [--n-to 4096] [--stencil 5pt]
    [--shape square] [--procs N] [machine overrides]

Doubles the grid side from --n-from to --n-to and reports the optimal
allocation at each size: how speedup scales when the machine grows with
the problem (Table I) or is fixed at --procs (speedup → N, §6.1).";

/// Runs the subcommand.
pub fn run(arch: &str, args: &Args) -> Result<String, CliError> {
    let machine = select::machine_spec(args)?;
    let arch = select::arch_kind(arch)?;
    let stencil = select::stencil_spec(args.str_or("stencil", "5pt"))?;
    let shape = select::shape_key(args.str_or("shape", "square"))?;
    let n_from = args.usize_or("n-from", 64)?;
    let n_to = args.usize_or("n-to", 4096)?;
    if n_from == 0 || n_to < n_from {
        return Err(CliError(format!("bad sweep range {n_from}..{n_to}")));
    }

    let query = Query::Sweep {
        archs: vec![arch],
        machine,
        stencils: vec![stencil],
        shapes: vec![shape],
        budgets: vec![args.usize_opt("procs")?],
        n_from,
        n_to,
    };

    let points = eval_points(query)?;

    let mut t = Table::new(
        format!(
            "{} scaling sweep · {} · {}",
            arch.model(&machine.resolve()).name(),
            select::stencil_title(stencil),
            shape.name()
        ),
        &["n", "log2(n²)", "processors", "speedup", "efficiency", "speedup ratio"],
    );
    let mut prev: Option<f64> = None;
    for (label, outcome) in &points {
        let opt = match outcome {
            Ok(EvalValue::Optimum { processors, speedup, efficiency, .. }) => {
                (*processors, *speedup, *efficiency)
            }
            Ok(other) => unreachable!("sweep points are optimizer runs, got {other:?}"),
            Err(e) => return Err(CliError(e.to_string())),
        };
        let (processors, speedup, efficiency) = opt;
        t.row(vec![
            label.n.to_string(),
            format!("{:.0}", 2.0 * (label.n as f64).log2()),
            processors.to_string(),
            format!("{speedup:.2}"),
            format!("{:.1}%", efficiency * 100.0),
            prev.map_or("—".into(), |p| format!("{:.3}", speedup / p)),
        ]);
        prev = Some(speedup);
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        let toks: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        Args::parse(&toks, KEYS, SWITCHES).unwrap()
    }

    #[test]
    fn sync_bus_square_ratio_approaches_cube_root_of_four() {
        let out = run("sync-bus", &parse(&["--n-from", "512", "--n-to", "4096"])).unwrap();
        // Θ((n²)^⅓): doubling n multiplies speedup by ∛4 ≈ 1.587.
        assert!(out.contains("1.58") || out.contains("1.59"), "{out}");
    }

    #[test]
    fn fixed_machine_speedup_approaches_n() {
        let out = run("hypercube", &parse(&["--procs", "16", "--n-from", "256", "--n-to", "8192"]))
            .unwrap();
        assert!(out.contains("16  "), "{out}");
        let last = out.lines().last().unwrap();
        assert!(last.contains("15.") || last.contains("16.0"), "{last}");
    }

    #[test]
    fn bad_range_is_an_error() {
        assert!(run("hypercube", &parse(&["--n-from", "512", "--n-to", "256"])).is_err());
    }

    #[test]
    fn engine_sweep_matches_direct_model_calls_exactly() {
        use parspeed_core::{optimize_constrained, ProcessorBudget, Workload};
        use parspeed_stencil::{PartitionShape, Stencil};
        let args = parse(&["--n-from", "64", "--n-to", "1024", "--procs", "32"]);
        let out = run("async-bus", &args).unwrap();
        let m = parspeed_core::MachineParams::paper_defaults();
        let model = parspeed_engine::ArchKind::AsyncBus.model(&m);
        let mut n = 64usize;
        while n <= 1024 {
            let w = Workload::new(n, &Stencil::five_point(), PartitionShape::Square);
            let direct =
                optimize_constrained(model.as_ref(), &w, ProcessorBudget::Limited(32), None)
                    .unwrap();
            let row = out
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("{n} ")))
                .unwrap_or_else(|| panic!("no row for n={n} in {out}"));
            assert!(row.contains(&format!("{:.2}", direct.speedup)), "n={n}: {row}");
            n *= 2;
        }
    }
}

//! `parspeed table1` — the paper's closing Table I at a chosen grid size,
//! served through the engine (one cacheable evaluation for all four rows).

use crate::args::{Args, CliError};
use crate::commands::eval_single;
use crate::select;
use parspeed_bench::report::Table;
use parspeed_engine::{EvalValue, Query};

pub const KEYS: &[&str] = &["n", "stencil", "tfp", "b", "c", "alpha", "beta", "packet", "w"];
pub const SWITCHES: &[&str] = &["flex32"];

/// Usage shown by `parspeed help table1`.
pub const USAGE: &str = "parspeed table1 [--n 1024] [--stencil 5pt] [machine overrides]

Evaluates Table I's optimal-speedup formulas (square partitions, one point
per processor where appropriate) at the chosen grid size.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let n = args.usize_or("n", 1024)?;
    let stencil = select::stencil_spec(args.str_or("stencil", "5pt"))?;
    let machine = select::machine_spec(args)?;
    let EvalValue::Table1 { rows } = eval_single(Query::Table1 { machine, n, stencil })? else {
        unreachable!("table1 queries produce table1 values")
    };

    let mut t = Table::new(
        format!("Table I · n={n} · {}", select::stencil_title(stencil)),
        &["architecture", "optimal speedup", "formula"],
    );
    for row in rows {
        t.row(vec![
            row.architecture.into(),
            format!("{:.1}", row.optimal_speedup),
            row.formula.into(),
        ]);
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_four_architectures() {
        let args = Args::parse(&[], KEYS, SWITCHES).unwrap();
        let out = run(&args).unwrap();
        for name in ["Hypercube", "Synchronous bus", "Asynchronous bus", "Switching network"] {
            assert!(out.to_lowercase().contains(&name.to_lowercase()), "missing {name}: {out}");
        }
    }
}

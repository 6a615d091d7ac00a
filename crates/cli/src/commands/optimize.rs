//! `parspeed optimize` — the paper's headline question for one instance:
//! how many processors, and what speedup?
//!
//! Routed through the engine: the command sends one
//! [`Query::Optimize`], so repeated optimizes in a process share the
//! result cache and answers stay bit-identical to direct model calls.

use crate::args::{Args, CliError};
use crate::commands::eval_single;
use crate::select;
use parspeed_bench::report::Table;
use parspeed_core::{MemoryBudget, Workload};
use parspeed_engine::{EvalValue, Query, WorkloadSpec};

pub const KEYS: &[&str] =
    &["n", "stencil", "shape", "procs", "memory", "tfp", "b", "c", "alpha", "beta", "packet", "w"];
pub const SWITCHES: &[&str] = &["flex32"];

/// Usage shown by `parspeed help optimize`.
pub const USAGE: &str = "parspeed optimize --arch <name> [--n 256] [--stencil 5pt] [--shape square]
    [--procs N] [--memory WORDS] [machine overrides: --tfp --b --c --alpha --beta --packet --w --flex32]

Finds the optimal processor count and speedup for one problem instance on
one architecture (any of: hypercube, mesh, sync-bus, async-bus,
scheduled-bus, banyan). --procs caps the machine (default: unlimited);
--memory adds a per-processor capacity in words, which can force spreading
(§3/§4).";

/// Runs the subcommand.
pub fn run(arch: &str, args: &Args) -> Result<String, CliError> {
    let machine = select::machine_spec(args)?;
    let arch = select::arch_kind(arch)?;
    let n = args.usize_or("n", 256)?;
    let stencil = select::stencil_spec(args.str_or("stencil", "5pt"))?;
    let shape = select::shape_key(args.str_or("shape", "square"))?;
    let memory_words = args.f64_opt("memory")?;
    let procs = args.usize_opt("procs")?;

    let workload = WorkloadSpec { n, stencil, shape };
    let query = Query::Optimize { arch, machine, workload, procs, memory_words };
    let EvalValue::Optimum { processors, area, cycle_time, speedup, efficiency, used_all } =
        eval_single(query)?
    else {
        unreachable!("optimize queries produce optimum values")
    };

    let model = arch.model(&machine.resolve());
    let mut t = Table::new(
        format!("{} · n={n} · {} · {}", model.name(), select::stencil_title(stencil), shape.name()),
        &["quantity", "value"],
    );
    t.row(vec!["optimal processors".into(), processors.to_string()]);
    t.row(vec!["largest partition (points)".into(), format!("{area:.0}")]);
    t.row(vec!["cycle time".into(), format!("{cycle_time:.3e} s")]);
    t.row(vec!["speedup".into(), format!("{speedup:.2}")]);
    t.row(vec!["efficiency".into(), format!("{:.1}%", efficiency * 100.0)]);
    t.row(vec!["uses every processor".into(), if used_all { "yes" } else { "no" }.into()]);
    if let Some(words) = memory_words {
        let (e, k) = stencil.constants(shape);
        let w = Workload::with_constants(n, shape, e, k);
        t.row(vec![
            "largest partition memory (words)".into(),
            format!("{:.0} of {words:.0}", MemoryBudget::partition_words(&w, processors)),
        ]);
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
    fn paper_anchor_appears_in_output() {
        // 256² squares on the sync bus: the §6.1 anchor of ~14 processors.
        let out = run("sync-bus", &parse(&["--procs", "64"])).unwrap();
        assert!(out.contains("14"), "{out}");
        assert!(out.contains("no"), "interior optimum leaves processors idle: {out}");
    }

    #[test]
    fn memory_floor_shows_in_output() {
        let out = run("sync-bus", &parse(&["--procs", "64", "--memory", "20000"])).unwrap();
        assert!(out.contains("partition memory"), "{out}");
    }

    #[test]
    fn infeasible_memory_is_a_clean_error() {
        let e = run("sync-bus", &parse(&["--memory", "10"])).unwrap_err();
        assert!(e.0.contains("does not fit"));
    }

    #[test]
    fn non_positive_memory_is_a_clean_error() {
        let e = run("sync-bus", &parse(&["--memory", "0"])).unwrap_err();
        assert!(e.0.contains("memory budget must be positive"), "{}", e.0);
    }

    #[test]
    fn unknown_architecture_is_an_error() {
        let e = run("torus", &parse(&[])).unwrap_err();
        assert!(e.0.contains("torus"));
    }
}

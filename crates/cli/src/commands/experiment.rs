//! `parspeed experiment` — regenerate the paper's tables and figures.
//!
//! Routed through the engine as an effect query. The experiment harness
//! (`parspeed-bench`) sits *above* the engine in the dependency graph, so
//! the engine cannot call it directly; instead [`runner`] is registered on
//! the process-wide engine at construction (dependency inversion), and
//! `Query::Experiment` requests — from this command or from a JSONL batch —
//! are served through it.

use crate::args::{Args, CliError};
use crate::commands::eval_single;
use parspeed_bench::experiments;
use parspeed_engine::{EvalValue, Query};

pub const KEYS: &[&str] = &["id"];
pub const SWITCHES: &[&str] = &["quick"];

/// Usage shown by `parspeed help experiment`.
pub const USAGE: &str = "parspeed experiment [--id e1..e17|all] [--quick]

Regenerates a reproduction experiment (the artifact table in
EXPERIMENTS.md: e1 = the k-table, e2 = Fig 6, e3 = Fig 7, e4 = Fig 8,
e5 = Table I, e6–e12 the per-section analyses, e13/e14 validation,
e15 scheduling, e16 embeddings, e17 ablations) or all of them. --quick
trims the sweeps.";

/// The experiment runner registered on the process-wide engine: looks an
/// id up in `parspeed-bench`'s experiment table.
pub fn runner(id: &str, quick: bool) -> Result<String, String> {
    experiments::run(id, quick).ok_or_else(|| format!("unknown experiment `{id}`; e1..e17 or all"))
}

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let quick = args.switch("quick");
    let id = args.str_or("id", "all").to_lowercase();
    let EvalValue::Report(text) = eval_single(Query::Experiment { id, quick })? else {
        unreachable!("experiment queries produce reports")
    };
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        let toks: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        Args::parse(&toks, KEYS, SWITCHES).unwrap()
    }

    #[test]
    fn single_experiment_runs() {
        let out = run(&parse(&["--id", "e1", "--quick"])).unwrap();
        assert!(out.contains("k("), "{out}");
    }

    #[test]
    fn e17_returns_the_ablations_report() {
        let out = run(&parse(&["--id", "e17", "--quick"])).unwrap();
        assert_eq!(out, experiments::ablations::run(true));
    }

    #[test]
    fn unknown_id_is_an_error() {
        assert!(run(&parse(&["--id", "e99"])).is_err());
    }
}

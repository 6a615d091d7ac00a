//! `parspeed minsize` — the smallest grid that gainfully uses all N
//! processors (Fig. 7's question, for arbitrary N).
//!
//! One engine query per bus variant, submitted as a single batch so the
//! closed-form evaluations dedup and cache with the rest of the process.

use crate::args::{Args, CliError};
use crate::commands::service_call;
use crate::select;
use parspeed_bench::report::Table;
use parspeed_engine::{BusVariant, EvalValue, Query, Response};

pub const KEYS: &[&str] = &["stencil", "procs", "tfp", "b", "c", "alpha", "beta", "packet", "w"];
pub const SWITCHES: &[&str] = &["flex32"];

/// Usage shown by `parspeed help minsize`.
pub const USAGE: &str = "parspeed minsize [--procs 16] [--stencil 5pt] [machine overrides]

The smallest grid side n whose optimal bus allocation uses all --procs
processors, for each bus variant and partition shape (Fig. 7). Below that
size, buying more processors buys nothing.";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let stencil = select::stencil_spec(args.str_or("stencil", "5pt"))?;
    let procs = args.usize_or("procs", 16)?;
    if procs < 2 {
        return Err(CliError("--procs must be at least 2".into()));
    }
    let machine = select::machine_spec(args)?;

    // One query per variant, in Fig. 7 presentation order.
    let queries = BusVariant::all()
        .map(|variant| {
            let (e, k) = stencil.constants(variant.shape());
            Query::MinSize { variant, machine, e, k: k as f64, procs }
        })
        .into();
    let responses = service_call(queries);

    let mut t = Table::new(
        format!("Minimal grid using all {procs} processors · {}", select::stencil_title(stencil)),
        &["bus variant", "shape", "min n", "min log2(n²)"],
    );
    for (v, response) in BusVariant::all().into_iter().zip(responses) {
        let side = match response {
            Response::Single(Ok(EvalValue::MinSize { n_side, .. })) => n_side,
            Response::Single(Err(e)) | Response::Invalid(e) => return Err(CliError(e.to_string())),
            other => unreachable!("minsize queries produce minsize values, got {other:?}"),
        };
        t.row(vec![
            v.label().into(),
            v.shape().name().into(),
            format!("{:.0}", side.ceil()),
            format!("{:.1}", 2.0 * side.log2()),
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
    fn paper_anchor_14_processors_at_256() {
        // §6.1: 256² with 5-point squares should use 1–14 processors, so
        // the minimal grid for 14 must be ≈ 256.
        let out = run(&parse(&["--procs", "14"])).unwrap();
        let sync_square =
            out.lines().find(|l| l.contains("synchronous") && l.contains("square")).unwrap();
        let min_n: f64 = sync_square.split_whitespace().rev().nth(1).unwrap().parse().unwrap();
        assert!((min_n - 256.0).abs() / 256.0 < 0.05, "{sync_square}");
    }

    #[test]
    fn strips_need_larger_grids_than_squares() {
        let out = run(&parse(&["--procs", "16"])).unwrap();
        let min_of = |needle: &str| -> f64 {
            out.lines()
                .find(|l| l.contains(needle))
                .and_then(|l| l.split_whitespace().rev().nth(1).map(|s| s.parse().unwrap()))
                .unwrap()
        };
        assert!(min_of("strip") > min_of("square"), "{out}");
    }

    #[test]
    fn rejects_single_processor() {
        assert!(run(&parse(&["--procs", "1"])).is_err());
    }
}

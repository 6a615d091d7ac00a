//! `parspeed isoeff` — isoefficiency: how fast must the problem grow to
//! keep the machine efficient? (The modern framing of the paper's
//! fixed-N results.)
//!
//! One engine query per processor count — threshold searches dedup and
//! cache like any other traffic — and the exponent is fitted locally from
//! the returned thresholds with the same least-squares the core applies.

use crate::args::{Args, CliError};
use crate::commands::service_call;
use crate::select;
use parspeed_bench::report::Table;
use parspeed_core::isoefficiency::fit_work_exponent;
use parspeed_engine::{EvalValue, Query, Response};

pub const KEYS: &[&str] =
    &["stencil", "shape", "efficiency", "procs", "tfp", "b", "c", "alpha", "beta", "packet", "w"];
pub const SWITCHES: &[&str] = &["flex32"];

/// Usage shown by `parspeed help isoeff`.
pub const USAGE: &str = "parspeed isoeff --arch <name> [--efficiency 0.5] [--stencil 5pt]
    [--shape square] [--procs 8,16,32,64] [machine overrides]

For each processor count, the smallest grid side reaching the target
efficiency, and the fitted isoefficiency exponent d(log W)/d(log N)
(W = n²). Hypercube squares ≈ 1 (ideal), banyan ≈ 1 + log factor, bus
squares ≈ 3, bus strips ≈ 4.";

/// Runs the subcommand.
pub fn run(arch: &str, args: &Args) -> Result<String, CliError> {
    let machine = select::machine_spec(args)?;
    let arch = select::arch_kind(arch)?;
    let stencil = select::stencil_spec(args.str_or("stencil", "5pt"))?;
    let shape = select::shape_key(args.str_or("shape", "square"))?;
    let efficiency = args.f64_or("efficiency", 0.5)?;
    if !(0.0..1.0).contains(&efficiency) || efficiency == 0.0 {
        return Err(CliError(format!("--efficiency must be in (0, 1); got {efficiency}")));
    }
    let procs = args.usize_list_or("procs", &[8, 16, 32, 64])?;
    if procs.len() < 2 || procs.contains(&0) {
        return Err(CliError("--procs needs at least two positive counts".into()));
    }

    let query = |procs| Query::Isoefficiency { arch, machine, stencil, shape, procs, efficiency };
    let responses = service_call(procs.iter().map(|&p| query(p)).collect());
    let mut thresholds = Vec::with_capacity(procs.len());
    for (&p, response) in procs.iter().zip(responses) {
        let n = match response {
            Response::Single(Ok(EvalValue::Isoefficiency { n })) => n,
            Response::Single(Err(e)) | Response::Invalid(e) => return Err(CliError(e.to_string())),
            other => unreachable!("isoeff queries produce isoefficiency values, got {other:?}"),
        };
        thresholds.push((p, n));
    }
    let mut t = Table::new(
        format!(
            "Isoefficiency · {} · {} · {} · target {:.0}%",
            arch.model(&machine.resolve()).name(),
            select::stencil_title(stencil),
            shape.name(),
            efficiency * 100.0
        ),
        &["N", "min n", "work n²", "points/processor"],
    );
    for &(p, n) in &thresholds {
        t.row(vec![
            p.to_string(),
            n.to_string(),
            (n * n).to_string(),
            format!("{:.0}", (n * n) as f64 / p as f64),
        ]);
    }
    let exponent = fit_work_exponent(&thresholds);
    let mut out = t.render();
    out.push_str(&format!(
        "Fitted isoefficiency exponent: {exponent:.2} (W ∝ N^{exponent:.2}; lower = more scalable).\n"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        let toks: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        Args::parse(&toks, KEYS, SWITCHES).unwrap()
    }

    #[test]
    fn bus_squares_fit_cubic() {
        let out = run("sync-bus", &parse(&["--procs", "8,16,32,64"])).unwrap();
        let exp: f64 = out
            .lines()
            .find(|l| l.contains("exponent"))
            .and_then(|l| l.split_whitespace().nth(3).map(|s| s.parse().unwrap()))
            .unwrap();
        assert!((exp - 3.0).abs() < 0.2, "{out}");
    }

    #[test]
    fn exponent_matches_the_unbatched_core_fit() {
        use parspeed_core::isoefficiency::isoefficiency_exponent;
        use parspeed_core::Workload;
        let out = run("sync-bus", &parse(&["--procs", "8,16,32,64"])).unwrap();
        let m = parspeed_core::MachineParams::paper_defaults();
        let model = parspeed_engine::ArchKind::SyncBus.model(&m);
        let template = Workload::new(
            2,
            &parspeed_stencil::Stencil::five_point(),
            parspeed_stencil::PartitionShape::Square,
        );
        let direct = isoefficiency_exponent(model.as_ref(), &template, &[8, 16, 32, 64], 0.5);
        assert!(out.contains(&format!("{direct:.2}")), "{out}");
    }

    #[test]
    fn rejects_bad_targets_and_sweeps() {
        assert!(run("sync-bus", &parse(&["--efficiency", "1.5"])).is_err());
        assert!(run("sync-bus", &parse(&["--procs", "8"])).is_err());
    }
}

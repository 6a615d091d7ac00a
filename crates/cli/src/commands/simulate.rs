//! `parspeed simulate` — one event-level iteration beside the closed form,
//! served through the engine: simulations are deterministic, so they
//! canonicalize, dedup, and cache exactly like analytic queries.

use crate::args::{Args, CliError};
use crate::commands::eval_single;
use crate::select;
use parspeed_bench::report::Table;
use parspeed_engine::{EvalValue, Query, SimArchKind, WorkloadSpec};

pub const KEYS: &[&str] =
    &["n", "stencil", "shape", "procs", "tfp", "b", "c", "alpha", "beta", "packet", "w"];
pub const SWITCHES: &[&str] = &["flex32"];

/// Usage shown by `parspeed help simulate`.
pub const USAGE: &str = "parspeed simulate --arch <name> [--n 256] [--procs 16] [--stencil 5pt]
    [--shape strip] [machine overrides]

Simulates one iteration event by event on the chosen machine (real
decomposition, exact halo volumes, emergent contention) and prints the
cycle time next to the analytic model's prediction. Besides the six model
architectures, `--arch mesh2d` runs the XY-routed store-and-forward mesh,
where box-stencil corner traffic pays real transit.";

/// Runs the subcommand.
pub fn run(arch: &str, args: &Args) -> Result<String, CliError> {
    let machine = select::machine_spec(args)?;
    let n = args.usize_or("n", 256)?;
    let procs = args.usize_or("procs", 16)?;
    let stencil = select::stencil_spec(args.str_or("stencil", "5pt"))?;
    let shape = select::shape_key(args.str_or("shape", "strip"))?;
    let arch = SimArchKind::parse(arch).map_err(CliError)?;

    let workload = WorkloadSpec { n, stencil, shape };
    let query = Query::Simulate { arch, machine, workload, procs };
    let EvalValue::Simulate { cycle_time, max_compute, comm_fraction, predicted, seq_time } =
        eval_single(query)?
    else {
        unreachable!("simulate queries produce simulate values")
    };

    let model = arch.model_kind().model(&machine.resolve());
    let mut t = Table::new(
        format!(
            "{} · n={n} · P={procs} · {} · {}",
            model.name(),
            select::stencil_title(stencil),
            shape.name()
        ),
        &["quantity", "value"],
    );
    t.row(vec!["simulated cycle time".into(), format!("{cycle_time:.3e} s")]);
    t.row(vec!["model cycle time".into(), format!("{predicted:.3e} s")]);
    t.row(vec![
        "relative difference".into(),
        format!("{:.1}%", 100.0 * (cycle_time - predicted).abs() / predicted),
    ]);
    t.row(vec!["longest pure compute".into(), format!("{max_compute:.3e} s")]);
    t.row(vec!["communication fraction".into(), format!("{:.1}%", 100.0 * comm_fraction)]);
    t.row(vec!["simulated speedup".into(), format!("{:.2}", seq_time / cycle_time)]);
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
    fn every_architecture_simulates() {
        for arch in parspeed_engine::ArchKind::all().map(|a| a.name()).iter().chain(&["mesh2d"]) {
            let out = run(arch, &parse(&["--n", "64", "--procs", "4"])).unwrap();
            assert!(out.contains("simulated cycle time"), "{arch}: {out}");
        }
    }

    #[test]
    fn hypercube_strips_track_the_model_closely() {
        let out = run("hypercube", &parse(&["--n", "256", "--procs", "8"])).unwrap();
        let diff_line = out.lines().find(|l| l.contains("relative difference")).unwrap();
        let pct: f64 =
            diff_line.split_whitespace().last().unwrap().trim_end_matches('%').parse().unwrap();
        assert!(pct < 5.0, "{out}");
    }

    #[test]
    fn impossible_decompositions_error_cleanly() {
        // More strips than rows.
        assert!(run("hypercube", &parse(&["--n", "8", "--procs", "16"])).is_err());
        // 97 blocks on an 8-grid: the only factorization 97×1 exceeds the
        // rows, so no near-square decomposition exists.
        let e = run("sync-bus", &parse(&["--n", "8", "--procs", "97", "--shape", "square"]));
        assert!(e.is_err());
    }

    #[test]
    fn prime_grids_fall_back_to_bands() {
        // 13 blocks on a prime 97-grid: near_square degrades to 13×1 bands
        // rather than failing.
        let out = run("sync-bus", &parse(&["--n", "97", "--procs", "13", "--shape", "square"]));
        assert!(out.is_ok());
    }
}

//! Subcommand dispatch, and the one road from commands to the models:
//! every subcommand builds [`Query`] values and routes them through the
//! process-wide [`Engine`](parspeed_engine::Engine)'s
//! [`run_batch`](parspeed_engine::Engine::run_batch), so every entry point
//! is planned, deduplicated, and cached.

use crate::args::{err, Args, CliError};
use parspeed_engine::{Engine, EvalOutcome, EvalValue, PointLabel, Query, Response};

pub mod batch;
pub mod compare;
pub mod experiment;
pub mod isoeff;
pub mod metrics;
pub mod minsize;
pub mod optimize;
pub mod route;
pub mod serve;
pub mod simulate;
pub mod solve;
pub mod sweep;
pub mod table1;
pub mod threads;

/// Top-level usage text.
pub const USAGE: &str = "parspeed — problem size, parallel architecture, and optimal speedup
(reproduction of Nicol & Willard, ICASE 87-7 / ICPP 1987)

USAGE: parspeed <command> [flags]

COMMANDS:
  optimize    optimal processor count and speedup for one instance
  batch       evaluate a JSONL request batch through the query engine
  serve       serve JSONL batches over TCP with cross-client micro-batching
  route       front a sharded fleet of serves behind a consistent-hash ring
  metrics     probe a running serve for per-stage latency histograms
  compare     every architecture side by side
  sweep       optimal speedup as the problem grows
  isoeff      isoefficiency: problem growth needed to hold efficiency
  minsize     smallest grid that gainfully uses all N processors (Fig 7)
  table1      the paper's closing Table I at a chosen grid size
  simulate    one event-level iteration beside the closed form
  solve       actually solve a Poisson problem (sequential or rayon)
  threads     time the real rayon executor across thread counts
  experiment  regenerate a reproduction experiment (e1..e17 or all)
  help        this text, or `parspeed help <command>` for details

Architectures: hypercube, mesh, sync-bus, async-bus, scheduled-bus, banyan.
Stencils: 5pt, 9pt-box, 9pt-star, 13pt. Shapes: strip, square.";

/// The engine `serve` and `batch` run: `capacity` cached outcomes,
/// experiments through this CLI's runner, and the `--shards` cache shards
/// and `--threads` executor threads where given, the builder's defaults
/// where not.
pub(crate) fn serving_engine(args: &Args, capacity: usize) -> Result<Engine, CliError> {
    let mut builder =
        Engine::builder().cache_capacity(capacity).experiment_runner(experiment::runner);
    if let Some(shards) = args.usize_opt("shards")? {
        builder = builder.cache_shards(shards);
    }
    if let Some(threads) = args.usize_opt("threads")? {
        builder = builder.threads(threads);
    }
    Ok(builder.build())
}

/// Routes a batch of queries through the process-wide engine; responses
/// come back in query order.
pub(crate) fn service_call(queries: Vec<Query>) -> Vec<Response> {
    crate::engine().run_batch(&queries).responses
}

/// One atomic query → its successful value; planner and model errors
/// become command errors carrying the engine's message verbatim.
pub(crate) fn eval_single(query: Query) -> Result<EvalValue, CliError> {
    match service_call(vec![query]).remove(0) {
        Response::Single(Ok(value)) => Ok(value),
        Response::Single(Err(e)) | Response::Invalid(e) => Err(err(e.to_string())),
        Response::Sweep(_) => Err(err("internal: unexpected multi-point response")),
    }
}

/// One macro-query (sweep, compare) → its expanded points.
pub(crate) fn eval_points(query: Query) -> Result<Vec<(PointLabel, EvalOutcome)>, CliError> {
    expanded_points(service_call(vec![query]).remove(0))
}

/// A macro-query's response → its expanded points.
pub(crate) fn expanded_points(
    response: Response,
) -> Result<Vec<(PointLabel, EvalOutcome)>, CliError> {
    match response {
        Response::Sweep(points) => Ok(points),
        Response::Invalid(e) => Err(err(e.to_string())),
        Response::Single(_) => Err(err("internal: unexpected single response")),
    }
}

/// Dispatches a full argument vector (without the program name).
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Ok(USAGE.to_string());
    };
    let rest = &argv[1..];
    // `optimize`, `sweep`, and `simulate` take the architecture through
    // --arch so every command reads uniformly.
    match command.as_str() {
        "help" | "--help" | "-h" => {
            let topic = rest.first().map(String::as_str).unwrap_or("");
            Ok(match topic {
                "optimize" => optimize::USAGE.into(),
                "batch" => batch::USAGE.into(),
                "serve" => serve::USAGE.into(),
                "route" => route::USAGE.into(),
                "metrics" => metrics::USAGE.into(),
                "compare" => compare::USAGE.into(),
                "sweep" => sweep::USAGE.into(),
                "isoeff" => isoeff::USAGE.into(),
                "minsize" => minsize::USAGE.into(),
                "table1" => table1::USAGE.into(),
                "simulate" => simulate::USAGE.into(),
                "solve" => solve::USAGE.into(),
                "threads" => threads::USAGE.into(),
                "experiment" => experiment::USAGE.into(),
                _ => USAGE.into(),
            })
        }
        "optimize" => {
            let (arch, tokens) = split_arch(rest)?;
            let args = Args::parse(&tokens, optimize::KEYS, optimize::SWITCHES)?;
            optimize::run(&arch, &args)
        }
        "sweep" => {
            let (arch, tokens) = split_arch(rest)?;
            let args = Args::parse(&tokens, sweep::KEYS, sweep::SWITCHES)?;
            sweep::run(&arch, &args)
        }
        "simulate" => {
            let (arch, tokens) = split_arch(rest)?;
            let args = Args::parse(&tokens, simulate::KEYS, simulate::SWITCHES)?;
            simulate::run(&arch, &args)
        }
        "isoeff" => {
            let (arch, tokens) = split_arch(rest)?;
            let args = Args::parse(&tokens, isoeff::KEYS, isoeff::SWITCHES)?;
            isoeff::run(&arch, &args)
        }
        "batch" => {
            let args = Args::parse(rest, batch::KEYS, batch::SWITCHES)?;
            batch::run(&args)
        }
        "serve" => {
            let args = Args::parse(rest, serve::KEYS, serve::SWITCHES)?;
            serve::run(&args)
        }
        "route" => {
            let args = Args::parse(rest, route::KEYS, route::SWITCHES)?;
            route::run(&args)
        }
        "metrics" => {
            let args = Args::parse(rest, metrics::KEYS, metrics::SWITCHES)?;
            metrics::run(&args)
        }
        "compare" => {
            let args = Args::parse(rest, compare::KEYS, compare::SWITCHES)?;
            compare::run(&args)
        }
        "minsize" => {
            let args = Args::parse(rest, minsize::KEYS, minsize::SWITCHES)?;
            minsize::run(&args)
        }
        "table1" => {
            let args = Args::parse(rest, table1::KEYS, table1::SWITCHES)?;
            table1::run(&args)
        }
        "solve" => {
            let args = Args::parse(rest, solve::KEYS, solve::SWITCHES)?;
            solve::run(&args)
        }
        "threads" => {
            let args = Args::parse(rest, threads::KEYS, threads::SWITCHES)?;
            threads::run(&args)
        }
        "experiment" => {
            let args = Args::parse(rest, experiment::KEYS, experiment::SWITCHES)?;
            experiment::run(&args)
        }
        other => Err(err(format!("unknown command `{other}`; try `parspeed help`"))),
    }
}

/// Extracts `--arch <name>` from the token stream (required for the
/// architecture-specific commands) and returns the remaining tokens.
fn split_arch(tokens: &[String]) -> Result<(String, Vec<String>), CliError> {
    let mut arch = None;
    let mut rest = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i] == "--arch" {
            let Some(v) = tokens.get(i + 1) else {
                return Err(err("flag `--arch` needs a value"));
            };
            if arch.replace(v.clone()).is_some() {
                return Err(err("flag `--arch` given twice"));
            }
            i += 2;
        } else {
            rest.push(tokens[i].clone());
            i += 1;
        }
    }
    let arch = arch.ok_or_else(|| {
        err(format!(
            "this command needs --arch <name>; one of: {}",
            parspeed_engine::ArchKind::all().map(parspeed_engine::ArchKind::name).join(", ")
        ))
    })?;
    Ok((arch, rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(tokens: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        dispatch(&argv)
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(d(&[]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn help_topics_resolve() {
        assert!(d(&["help"]).unwrap().contains("COMMANDS"));
        assert!(d(&["help", "sweep"]).unwrap().contains("n-from"));
        assert!(d(&["help", "nonsense"]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn arch_commands_require_arch() {
        let e = d(&["optimize"]).unwrap_err();
        assert!(e.0.contains("--arch"));
        assert!(e.0.contains("hypercube"));
    }

    #[test]
    fn end_to_end_optimize() {
        let out = d(&["optimize", "--arch", "sync-bus", "--n", "128", "--procs", "16"]).unwrap();
        assert!(out.contains("optimal processors"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(d(&["frobnicate"]).is_err());
    }

    #[test]
    fn route_predict_sizes_the_fleet_from_a_sweep() {
        let out = d(&[
            "route",
            "--predict",
            "--distinct",
            "144",
            "--capacity",
            "36",
            "--max-shards",
            "8",
            "--sweep",
            "4:10.5,6:9.2,8:9.6",
        ])
        .unwrap();
        assert!(out.contains("predicted shards  6"), "{out}");
        assert!(out.contains("memory floor      4"), "{out}");
        assert!(out.contains("fitted curve"), "{out}");
    }

    #[test]
    fn route_predict_without_a_sweep_answers_the_memory_floor() {
        let out = d(&["route", "--predict", "--distinct", "144", "--capacity", "36"]).unwrap();
        assert!(out.contains("predicted shards  4"), "{out}");
        assert!(out.contains("the memory floor decides"), "{out}");
    }

    #[test]
    fn route_predict_rejects_malformed_sweeps() {
        let e =
            d(&["route", "--predict", "--distinct", "64", "--capacity", "16", "--sweep", "4;1.0"])
                .unwrap_err();
        assert!(e.0.contains("shards:seconds"), "{}", e.0);
    }

    #[test]
    fn arch_flag_position_is_free() {
        let a = d(&["simulate", "--n", "64", "--arch", "mesh", "--procs", "4"]).unwrap();
        let b = d(&["simulate", "--arch", "mesh", "--n", "64", "--procs", "4"]).unwrap();
        assert_eq!(a, b);
    }
}

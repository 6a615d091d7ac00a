//! Subcommand dispatch, and the one road from commands to the models:
//! every model subcommand builds [`Query`] values and routes them through
//! the process-wide [`Engine`](parspeed_engine::Engine)'s
//! [`run_batch`](parspeed_engine::Engine::run_batch), so every entry point
//! is planned, deduplicated, and cached. `experiment` runs the harness
//! directly, since it alone writes files.

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
    match service_call(vec![query]).remove(0) {
        Response::Sweep(points) => Ok(points),
        Response::Invalid(e) => Err(err(e.to_string())),
        Response::Single(_) => Err(err("internal: unexpected single response")),
    }
}

/// How a command runs: the four model commands that take the
/// architecture through `--arch <name>` get it split off their flags first.
enum Runner {
    Arch(fn(&str, &Args) -> Result<String, CliError>),
    Plain(fn(&Args) -> Result<String, CliError>),
}

/// One subcommand: its name, its `help` text, its flags and its runner.
struct Command {
    name: &'static str,
    usage: &'static str,
    keys: &'static [&'static str],
    switches: &'static [&'static str],
    runner: Runner,
}

/// The [`Command`] of the module named like the command.
macro_rules! command {
    ($module:ident, $runner:ident) => {
        Command {
            name: stringify!($module),
            usage: $module::USAGE,
            keys: $module::KEYS,
            switches: $module::SWITCHES,
            runner: Runner::$runner($module::run),
        }
    };
}

/// Every command in [`USAGE`]'s order: the one table that both `help
/// <command>` and [`dispatch`] read.
const COMMANDS: &[Command] = &[
    command!(optimize, Arch),
    command!(batch, Plain),
    command!(serve, Plain),
    command!(route, Plain),
    command!(metrics, Plain),
    command!(compare, Plain),
    command!(sweep, Arch),
    command!(isoeff, Arch),
    command!(minsize, Plain),
    command!(table1, Plain),
    command!(simulate, Arch),
    command!(solve, Plain),
    command!(threads, Plain),
    command!(experiment, Plain),
];

/// Dispatches a full argument vector (without the program name).
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some(name) = argv.first() else {
        return Ok(USAGE.to_string());
    };
    let rest = &argv[1..];
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        let topic = rest.first().map(String::as_str).unwrap_or("");
        let command = COMMANDS.iter().find(|c| c.name == topic);
        return Ok(command.map_or(USAGE, |c| c.usage).to_string());
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(err(format!("unknown command `{name}`; try `parspeed help`")));
    };
    match command.runner {
        Runner::Arch(run) => {
            let (arch, tokens) = split_arch(rest)?;
            run(&arch, &Args::parse(&tokens, command.keys, command.switches)?)
        }
        Runner::Plain(run) => run(&Args::parse(rest, command.keys, command.switches)?),
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
    fn usage_lists_exactly_the_table_commands() {
        let listed: Vec<&str> = USAGE
            .split("COMMANDS:\n")
            .nth(1)
            .unwrap()
            .lines()
            .take_while(|l| l.starts_with("  "))
            .map(|l| l.split_whitespace().next().unwrap())
            .filter(|name| *name != "help")
            .collect();
        let table: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(listed, table);
        for c in COMMANDS {
            assert!(c.usage.starts_with(&format!("parspeed {} ", c.name)), "{}", c.name);
            let arch = matches!(c.runner, Runner::Arch(_));
            assert_eq!(c.usage.contains("--arch <name>"), arch, "{}", c.name);
        }
    }

    #[test]
    fn arch_commands_require_arch() {
        let e = d(&["optimize"]).unwrap_err();
        assert!(e.0.contains("--arch"));
        assert!(e.0.contains("hypercube"));
    }

    #[test]
    fn the_deleted_cache_knobs_are_unknown_flags() {
        let e = d(&["sweep", "--arch", "sync-bus", "--cache-capacity", "4"]).unwrap_err();
        assert!(e.0.starts_with("unknown flag `--cache-capacity`"), "{}", e.0);
        let e = d(&["batch", "--cache", "4"]).unwrap_err();
        assert!(e.0.starts_with("unknown flag `--cache`"), "{}", e.0);
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

    #[test]
    fn help_and_its_aliases_print_each_command_usage() {
        for c in COMMANDS {
            for help in ["help", "--help", "-h"] {
                assert_eq!(d(&[help, c.name]).unwrap(), c.usage, "{help} {}", c.name);
            }
        }
    }

    /// Each command parses against its own module's flags: an unknown
    /// flag is refused with exactly that command's flags listed.
    #[test]
    fn each_command_lists_its_own_flags() {
        for c in COMMANDS {
            let mut argv = vec![c.name];
            if matches!(c.runner, Runner::Arch(_)) {
                argv.extend(["--arch", "sync-bus"]);
            }
            argv.extend(["--no-such-flag", "1"]);
            let mut valid: Vec<&str> = c.keys.iter().chain(c.switches).copied().collect();
            valid.sort_unstable();
            let valid: Vec<String> = valid.iter().map(|f| format!("--{f}")).collect();
            let expected =
                format!("unknown flag `--no-such-flag`; valid flags: {}", valid.join(", "));
            assert_eq!(d(&argv).unwrap_err().0, expected, "{}", c.name);
        }
    }

    #[test]
    fn commands_without_an_architecture_refuse_arch() {
        for c in COMMANDS.iter().filter(|c| matches!(c.runner, Runner::Plain(_))) {
            let e = d(&[c.name, "--arch", "sync-bus"]).unwrap_err();
            assert!(e.0.starts_with("unknown flag `--arch`"), "{}: {}", c.name, e.0);
        }
    }

    #[test]
    fn arch_takes_exactly_one_value() {
        let e = d(&["optimize", "--n", "64", "--arch"]).unwrap_err();
        assert_eq!(e.0, "flag `--arch` needs a value");
        let e = d(&["sweep", "--arch", "mesh", "--arch", "hypercube"]).unwrap_err();
        assert_eq!(e.0, "flag `--arch` given twice");
    }
}

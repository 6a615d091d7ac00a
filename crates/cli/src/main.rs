//! `parspeed` — command-line interface to the models, simulators, and
//! solvers of the Nicol & Willard (1987) reproduction. Run `parspeed help`
//! for the command list.

mod args;
mod commands;
mod select;

use std::sync::OnceLock;

/// The process-wide query engine, the service surface the model commands
/// talk to: commands share one result cache, so repeated work within a
/// process (or a test run) short-circuits. No command sends it an
/// experiment (`parspeed experiment` runs the harness directly), so it
/// registers no experiment runner.
fn engine() -> &'static parspeed_engine::Engine {
    static ENGINE: OnceLock<parspeed_engine::Engine> = OnceLock::new();
    ENGINE.get_or_init(parspeed_engine::Engine::default)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

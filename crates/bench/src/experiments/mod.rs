//! One module per reproduced artifact, indexed by id (`e1`..`e17`) for
//! [`run`] and [`run_all`], which `parspeed experiment --id <id>` serves
//! through the engine; the artifact table in `EXPERIMENTS.md` maps each
//! id to its paper artifact.

pub mod ablations;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod sec4_convergence;
pub mod sec4_embedding;
pub mod sec4_hypercube;
pub mod sec5_fem;
pub mod sec61_leverage;
pub mod sec61_worked;
pub mod sec62_async;
pub mod sec7_switching;
pub mod sec8_scheduling;
pub mod table1;
pub mod table_k;
pub mod validate_desim;
pub mod validate_threads;

/// An experiment's harness: its report, with sweeps trimmed when `quick`.
type Runner = fn(quick: bool) -> String;

/// Every experiment in order: its id, its report title and its runner.
/// [`run_all`] iterates it and [`run`] looks ids up in it.
const ALL: &[(&str, &str, Runner)] = &[
    ("e1", "E1  k(P,S) table", table_k::run),
    ("e2", "E2  Fig 6 working rectangles", fig6::run),
    ("e3", "E3  Fig 7 minimal problem size", fig7::run),
    ("e4", "E4  Fig 8 optimal speedup", fig8::run),
    ("e5", "E5  Table I", table1::run),
    ("e6", "E6  §4 hypercube", sec4_hypercube::run),
    ("e7", "E7  §4 convergence checking", sec4_convergence::run),
    ("e8", "E8  §5 FEM counter-example", sec5_fem::run),
    ("e9", "E9  §6.1 worked example", sec61_worked::run),
    ("e10", "E10 §6.1 leverage", sec61_leverage::run),
    ("e11", "E11 §6.2 asynchronous bus", sec62_async::run),
    ("e12", "E12 §7 switching network", sec7_switching::run),
    ("e13", "E13 model vs discrete-event simulation", validate_desim::run),
    ("e14", "E14 model vs real threads", validate_threads::run),
    ("e15", "E15 §8 scheduled bus access", sec8_scheduling::run),
    ("e16", "E16 §4 Gray-code embeddings", sec4_embedding::run),
    ("e17", "E17 ablations (tolerance, contours, combine hardware)", ablations::run),
];

/// Runs every experiment and concatenates the reports (`parspeed
/// experiment --id all`). `quick` trims sweep sizes for CI.
pub fn run_all(quick: bool) -> String {
    let mut out = String::new();
    for (_, title, run) in ALL {
        out.push_str(&format!("\n═══ {title} ═══\n\n{}\n", run(quick)));
    }
    out
}

/// Runs experiment `id` (`e1`..`e17`), or every one for `all`; `None`
/// for an unknown id.
pub fn run(id: &str, quick: bool) -> Option<String> {
    if id == "all" {
        return Some(run_all(quick));
    }
    ALL.iter().find(|(key, ..)| *key == id).map(|(_, _, run)| run(quick))
}

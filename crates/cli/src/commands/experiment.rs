//! `parspeed experiment` — regenerate the paper's tables and figures.
//!
//! The experiment harness (`parspeed-bench`) returns each experiment's
//! report text and CSV series as data. This command runs it directly,
//! prints the text and writes the CSV series under `target/experiments/`
//! in the working directory: the one place in the workspace that writes
//! them.
//!
//! The harness sits *above* the engine in the dependency graph, so the
//! engine cannot call it; instead [`runner`] is registered on the engines
//! `batch`, `serve` and `route` build (dependency inversion), and serves
//! their `experiment` requests with the text alone, so a served request
//! writes nothing.

use crate::args::{err, Args, CliError};
use parspeed_bench::experiments;
use parspeed_bench::report::Report;
use std::path::Path;

pub const KEYS: &[&str] = &["id"];
pub const SWITCHES: &[&str] = &["quick"];

/// Usage shown by `parspeed help experiment`.
pub const USAGE: &str = "parspeed experiment [--id e1..e17|all] [--quick]

Regenerates a reproduction experiment (the artifact table in
EXPERIMENTS.md: e1 = the k-table, e2 = Fig 6, e3 = Fig 7, e4 = Fig 8,
e5 = Table I, e6–e12 the per-section analyses, e13/e14 validation,
e15 scheduling, e16 embeddings, e17 ablations) or all of them. --quick
trims the sweeps. Prints the report and writes its CSV series under
target/experiments/ in the working directory; if they cannot be
written, says so on stderr and still prints the report.";

/// Where this command writes the CSV series, relative to the working
/// directory.
const CSV_DIR: &str = "target/experiments";

/// Experiment `id`'s report, or the error for an unknown id.
fn report(id: &str, quick: bool) -> Result<Report, String> {
    experiments::run(id, quick).ok_or_else(|| format!("unknown experiment `{id}`; e1..e17 or all"))
}

/// The experiment runner registered on the serving engines: the report
/// text only, so serving an experiment touches no file.
pub fn runner(id: &str, quick: bool) -> Result<String, String> {
    report(id, quick).map(|r| r.text)
}

/// Writes each `(file name, CSV text)` series into `dir`, created first
/// along with any missing parents.
fn write_csv(dir: &Path, series: &[(String, String)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    for (file, csv) in series {
        let path = dir.join(file);
        std::fs::write(&path, csv)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs the subcommand. A CSV series that cannot be written costs only
/// the files, never the report.
pub fn run(args: &Args) -> Result<String, CliError> {
    let quick = args.switch("quick");
    let id = args.str_or("id", "all").to_lowercase();
    let report = report(&id, quick).map_err(err)?;
    if let Err(e) = write_csv(Path::new(CSV_DIR), &report.csv) {
        eprintln!("warning: CSV series not written: {e}");
    }
    Ok(report.text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_experiment_runs() {
        let out = runner("e1", true).unwrap();
        assert!(out.contains("k("), "{out}");
    }

    #[test]
    fn e17_returns_the_ablations_report() {
        let out = runner("e17", true).unwrap();
        assert_eq!(out, experiments::ablations::run(true).text);
    }

    #[test]
    fn unknown_id_is_an_error() {
        let toks: Vec<String> = ["--id", "e99"].iter().map(|t| t.to_string()).collect();
        let e = run(&Args::parse(&toks, KEYS, SWITCHES).unwrap()).unwrap_err();
        assert_eq!(e.0, "unknown experiment `e99`; e1..e17 or all");
    }

    #[test]
    fn the_runner_refuses_an_unknown_id_with_the_command_message() {
        assert_eq!(runner("e99", true).unwrap_err(), "unknown experiment `e99`; e1..e17 or all");
    }

    #[test]
    fn write_csv_creates_missing_parents_and_replaces_old_series() {
        let root = std::env::temp_dir().join(format!("parspeed-write-csv-{}", std::process::id()));
        let dir = root.join("target/experiments");
        let series = |csv: &str| vec![("e0_demo.csv".to_string(), csv.to_string())];
        write_csv(&dir, &series("a,b\n1,2\n")).unwrap();
        write_csv(&dir, &series("a,b\n3,4\n")).unwrap();
        let written = std::fs::read_to_string(dir.join("e0_demo.csv"));
        let entries = std::fs::read_dir(&dir).map(|d| d.count());
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(written.unwrap(), "a,b\n3,4\n");
        assert_eq!(entries.unwrap(), 1);
    }
}

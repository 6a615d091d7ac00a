//! One module per reproduced artifact, indexed by id (`e1`..`e17`) for
//! [`run`] and [`run_all`]; the artifact table in `EXPERIMENTS.md` maps
//! each id to its paper artifact. Every experiment is a pure function of
//! `quick` that returns a [`Report`]: its text and its CSV series.

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

use crate::report::Report;

/// An experiment's harness: its report, with sweeps trimmed when `quick`.
type Runner = fn(quick: bool) -> Report;

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

/// Runs every experiment and concatenates their texts, each under its
/// title, and their CSV series in order (`parspeed experiment --id all`).
/// `quick` trims sweep sizes for CI.
pub fn run_all(quick: bool) -> Report {
    let mut out = Report::default();
    for (_, title, run) in ALL {
        let report = run(quick);
        out.text.push_str(&format!("\n═══ {title} ═══\n\n{}\n", report.text));
        out.csv.extend(report.csv);
    }
    out
}

/// Runs experiment `id` (`e1`..`e17`), or every one for `all`; `None`
/// for an unknown id.
pub fn run(id: &str, quick: bool) -> Option<Report> {
    if id == "all" {
        return Some(run_all(quick));
    }
    ALL.iter().find(|(key, ..)| *key == id).map(|(_, _, run)| run(quick))
}

/// Reads a report's CSV series back as cells and numbers, for the tests
/// that check an experiment's data rather than its text.
#[cfg(test)]
pub(crate) mod csv {
    use crate::report::Report;

    /// One CSV series: its header cells and its data rows.
    pub(crate) struct Series {
        pub(crate) header: Vec<String>,
        pub(crate) rows: Vec<Vec<String>>,
    }

    impl Series {
        /// The cells of the first column headed `name`.
        pub(crate) fn column(&self, name: &str) -> Vec<&str> {
            let i = self.header.iter().position(|h| h == name).unwrap_or_else(|| {
                panic!("no column `{name}` in {:?}", self.header);
            });
            self.rows.iter().map(|row| row[i].as_str()).collect()
        }

        /// The cells of column `name` read by [`num`].
        pub(crate) fn numbers(&self, name: &str) -> Vec<f64> {
            self.column(name).into_iter().map(num).collect()
        }
    }

    /// Splits one CSV line into its cells, unquoting quoted ones.
    pub(crate) fn cells(line: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cell = String::new();
        let mut quoted = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    cell.push('"');
                    chars.next();
                }
                '"' => quoted = !quoted,
                ',' if !quoted => out.push(std::mem::take(&mut cell)),
                _ => cell.push(c),
            }
        }
        out.push(cell);
        out
    }

    /// The series of `report` written to `file`.
    pub(crate) fn series(report: &Report, file: &str) -> Series {
        let (_, text) = report.csv.iter().find(|(name, _)| name == file).unwrap_or_else(|| {
            panic!("no series {file} among {:?}", report.csv.iter().map(|(n, _)| n));
        });
        let mut lines = text.lines().map(cells);
        let header = lines.next().expect("a header line");
        Series { header, rows: lines.collect() }
    }

    /// The number a cell holds, in base units: `"7.837 ms"` reads 7.837e-3
    /// (seconds), `"20.62%"` reads 0.2062, and a trailing `*` marker is
    /// ignored.
    pub(crate) fn num(cell: &str) -> f64 {
        let text = cell.trim().trim_end_matches('*');
        let (value, scale) = match text.strip_suffix('%') {
            Some(value) => (value, 0.01),
            None => match text.split_once(' ') {
                None => (text, 1.0),
                Some((value, "s")) => (value, 1.0),
                Some((value, "ms")) => (value, 1e-3),
                Some((value, "µs")) => (value, 1e-6),
                Some((value, "ns")) => (value, 1e-9),
                Some(_) => panic!("`{cell}` has no known unit"),
            },
        };
        value.parse::<f64>().unwrap_or_else(|_| panic!("`{cell}` is not a number")) * scale
    }

    /// True when `a` and `b` differ by at most `rel` of `b`.
    pub(crate) fn near(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::csv::cells;
    use super::*;

    #[test]
    fn an_unknown_id_runs_nothing() {
        for id in ["", "e0", "e18", "E1", "all "] {
            assert!(run(id, true).is_none(), "{id:?}");
        }
    }

    #[test]
    fn every_series_is_named_after_its_experiment() {
        for (id, _, run) in ALL {
            let report = run(true);
            assert!(!report.csv.is_empty(), "{id} returns no series");
            for (file, _) in &report.csv {
                let stem = file.strip_suffix(".csv").unwrap_or_else(|| panic!("{file}"));
                assert!(stem.starts_with(&format!("{id}_")), "{id} names a series {file}");
            }
        }
    }

    /// `parspeed experiment --id all` writes every series into one
    /// directory, so a repeated name would overwrite another series.
    #[test]
    fn no_two_series_share_a_file_name() {
        let all = run_all(true);
        let mut names: Vec<&str> = all.csv.iter().map(|(name, _)| name.as_str()).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "{names:?}");
    }

    #[test]
    fn every_series_is_a_header_and_rows_of_its_width() {
        for (file, text) in run_all(true).csv {
            assert!(text.ends_with('\n'), "{file}");
            let mut lines = text.lines().map(cells);
            let header = lines.next().unwrap_or_else(|| panic!("{file} is empty"));
            let rows: Vec<Vec<String>> = lines.collect();
            assert!(!rows.is_empty(), "{file} has no rows");
            for row in &rows {
                assert_eq!(row.len(), header.len(), "{file}: {row:?}");
            }
        }
    }

    #[test]
    fn run_all_joins_every_report_in_table_order() {
        let all = run_all(true);
        let mut at = 0;
        let mut names = Vec::new();
        for (_, title, run) in ALL {
            let heading = format!("\n═══ {title} ═══\n\n");
            let found = all.text[at..].find(&heading).unwrap_or_else(|| panic!("{title}"));
            at += found + heading.len();
            names.extend(run(true).csv.into_iter().map(|(name, _)| name));
        }
        let all_names: Vec<String> = all.csv.into_iter().map(|(name, _)| name).collect();
        assert_eq!(all_names, names);
    }

    /// Every experiment but E14, which times real threads, is a function
    /// of `quick` alone: two runs return the same bytes.
    #[test]
    fn experiments_other_than_e14_repeat_byte_for_byte() {
        for (id, _, run) in ALL.iter().filter(|(id, ..)| *id != "e14") {
            let (first, second) = (run(true), run(true));
            assert_eq!(first.text, second.text, "{id}");
            assert_eq!(first.csv, second.csv, "{id}");
        }
    }
}

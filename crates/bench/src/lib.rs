//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each module under [`experiments`] reproduces one artifact (see the
//! artifact table in `EXPERIMENTS.md` for the experiment index and
//! paper-vs-measured results). Every experiment exposes
//! `run(quick: bool) -> String`: the returned report is printed by the
//! matching binary (`cargo run -p parspeed-bench --bin <name>`), and CSV
//! series are written under `target/experiments/`. `--bin run_all`
//! regenerates everything.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

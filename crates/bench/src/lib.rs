//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each module under [`experiments`] reproduces one artifact (see the
//! artifact table in `EXPERIMENTS.md` for the experiment index and
//! paper-vs-measured results). Every experiment exposes
//! `run(quick: bool) -> String`: `parspeed experiment --id e1..e17
//! [--quick]` prints the returned report through the engine, and CSV
//! series are written under `target/experiments/`. `--id all`
//! regenerates everything.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each module under [`experiments`] reproduces one artifact (see the
//! artifact table in `EXPERIMENTS.md` for the experiment index and
//! paper-vs-measured results). Every experiment exposes
//! `run(quick: bool) -> Report`: the report text and its CSV series, as
//! data (see [`report::Report`]). The harness writes no files: `parspeed
//! experiment --id e1..e17 [--quick]` prints the text and writes the CSV
//! series under `target/experiments/` in its working directory, while an
//! `experiment` request served by `batch`, `serve` or `route` answers the
//! text alone. `--id all` regenerates everything.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

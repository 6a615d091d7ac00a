//! `parspeed-obs` — the dependency-free observability core of the
//! workspace: latency histograms, pipeline stage attribution, and
//! ring-buffered request traces.
//!
//! The paper's entire argument is about *where time goes* — useful
//! computation vs the per-iteration overhead `k(P,S)` — and this crate
//! gives the running system the same decomposition. Every request
//! through the serving layer transits a fixed pipeline:
//!
//! ```text
//! accept → queue wait → window residency → plan → dedup → cache → execute → reply route
//! ```
//!
//! Each named [`Stage`] owns a lock-free log2-bucketed [`Histogram`]
//! (grouped in a [`StageSet`]), so the split between coordination time
//! (queue, window, plan, dedup, route) and computation time (exec) can
//! be read off a live server exactly like the paper reads `k(P,S)` off
//! its closed forms. See `EXPERIMENTS.md` for the mapping.
//!
//! Layers:
//!
//! * [`histogram`] — the core: fixed-bucket log2 [`Histogram`] with
//!   atomic counters, mergeable per-thread shards
//!   ([`ShardedHistogram`]), exact counts, p50/p90/p99/p999 estimation,
//!   and deterministic text rendering;
//! * [`stage`] — the pipeline vocabulary: [`Stage`], the [`Recorder`]
//!   trait instrumented code reports through (the engine holds none by
//!   default, so the library path costs nothing when disabled), and
//!   [`StageSet`] aggregating one histogram per stage;
//! * [`trace`] — [`TraceRing`], a bounded ring of per-request
//!   [`TraceEvent`]s rendered as JSONL;
//! * [`render`] — the shared Prometheus-style text exposition used by
//!   `parspeed serve --metrics-human`, `parspeed metrics --human`, and
//!   `parspeed batch --stats`.
//!
//! The crate depends on nothing (crates.io is unreachable here) and
//! knows nothing about the engine or the server: the engine reports
//! through [`Recorder`], the server owns the [`StageSet`] and the
//! [`TraceRing`], and neither needs the other.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod histogram;
pub mod render;
pub mod resilience;
pub mod stage;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, ShardedHistogram, BUCKETS};
pub use render::{render_exposition, render_exposition_labeled};
pub use resilience::{ResilienceCounters, ResilienceSnapshot};
pub use stage::{Recorder, Stage, StageSet, StageSummary};
pub use trace::{TraceEvent, TraceRing};

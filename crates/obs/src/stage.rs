//! The pipeline vocabulary: named [`Stage`]s, the [`Recorder`] trait
//! instrumented code reports through, and the [`StageSet`] aggregating
//! one histogram per stage.
//!
//! Stage semantics (who records, and over what unit):
//!
//! | stage    | unit        | interval                                         |
//! |----------|-------------|--------------------------------------------------|
//! | `queue`  | per request | submission → popped from the submission queue    |
//! | `window` | per batch   | micro-batch window opened → batch fired          |
//! | `plan`   | per batch   | macro-query expansion + canonicalization          |
//! | `dedup`  | per batch   | interning atoms into the unique evaluation set    |
//! | `cache`  | per batch   | result-cache probes + insertions                  |
//! | `exec`   | per batch   | parallel evaluation + sequential effects          |
//! | `route`  | per request | reply produced → released in per-connection order |
//!
//! `queue` and `window` overlap by construction — the window is the
//! batch-formation view of the same wait the first queued request
//! experiences — so end-to-end accounting sums `queue` (not `window`)
//! with the per-batch engine stages and `route`.

use crate::histogram::{HistogramSnapshot, ShardedHistogram};

/// One stage of the request pipeline. The order here is the canonical
/// reporting order everywhere (wire records, expositions, docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Admission → popped from the submission queue (per request).
    Queue,
    /// Micro-batch window open → batch fired (per batch).
    Window,
    /// Macro-query expansion and canonicalization (per batch).
    Plan,
    /// Interning atoms into the unique evaluation set (per batch).
    Dedup,
    /// Result-cache probes and insertions (per batch).
    Cache,
    /// Parallel evaluation plus sequential effects (per batch).
    Exec,
    /// Reply produced → released in per-connection order (per request).
    Route,
}

impl Stage {
    /// Every stage, in canonical pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Queue,
        Stage::Window,
        Stage::Plan,
        Stage::Dedup,
        Stage::Cache,
        Stage::Exec,
        Stage::Route,
    ];

    /// The stage's wire name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Window => "window",
            Stage::Plan => "plan",
            Stage::Dedup => "dedup",
            Stage::Cache => "cache",
            Stage::Exec => "exec",
            Stage::Route => "route",
        }
    }

    /// Index into [`Stage::ALL`] (and any per-stage array).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a wire name back into a stage.
    pub fn parse(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// What instrumented code reports through: one duration attributed to
/// one stage. Implementations must be cheap and non-blocking — the
/// callers sit on hot paths.
pub trait Recorder: Send + Sync {
    /// Attributes `nanos` of latency to `stage`.
    fn record(&self, stage: Stage, nanos: u64);
}

/// One sharded histogram per pipeline stage — the aggregation a server
/// (or a CLI batch run) owns. Implements [`Recorder`], so it can be
/// installed directly into the engine.
#[derive(Debug, Default)]
pub struct StageSet {
    stages: [ShardedHistogram; Stage::ALL.len()],
}

impl StageSet {
    /// An empty stage set.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const EMPTY: ShardedHistogram = ShardedHistogram::new();
        StageSet { stages: [EMPTY; Stage::ALL.len()] }
    }

    /// Attributes `nanos` to `stage`.
    #[inline]
    pub fn record(&self, stage: Stage, nanos: u64) {
        self.stages[stage.index()].record(nanos);
    }

    /// Point-in-time snapshot of one stage's histogram.
    pub fn snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage.index()].snapshot()
    }

    /// One summary per stage, in canonical order.
    pub fn summaries(&self) -> Vec<(Stage, StageSummary)> {
        Stage::ALL.into_iter().map(|s| (s, StageSummary::of(&self.snapshot(s)))).collect()
    }
}

impl Recorder for StageSet {
    fn record(&self, stage: Stage, nanos: u64) {
        StageSet::record(self, stage, nanos);
    }
}

/// The reduced form of one stage histogram that travels on the wire and
/// into benchmarks: exact count/total/max plus the quantile estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSummary {
    /// Exact number of recorded samples.
    pub count: u64,
    /// Exact sum of recorded nanoseconds.
    pub total_ns: u64,
    /// Largest recorded value.
    pub max_ns: u64,
    /// Median estimate (bucket upper bound).
    pub p50_ns: u64,
    /// 90th percentile estimate.
    pub p90_ns: u64,
    /// 99th percentile estimate.
    pub p99_ns: u64,
    /// 99.9th percentile estimate.
    pub p999_ns: u64,
}

impl StageSummary {
    /// Reduces a snapshot to its summary.
    pub fn of(snapshot: &HistogramSnapshot) -> StageSummary {
        StageSummary {
            count: snapshot.count(),
            total_ns: snapshot.total,
            max_ns: snapshot.max,
            p50_ns: snapshot.p50(),
            p90_ns: snapshot.p90(),
            p99_ns: snapshot.p99(),
            p999_ns: snapshot.p999(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse(stage.name()), Some(stage));
        }
        assert_eq!(Stage::parse("nonsense"), None);
        assert_eq!(Stage::ALL[Stage::Exec.index()], Stage::Exec);
    }

    #[test]
    fn stage_set_keeps_stages_apart() {
        let set = StageSet::new();
        set.record(Stage::Queue, 100);
        set.record(Stage::Queue, 200);
        set.record(Stage::Exec, 5000);
        let summaries = set.summaries();
        let get = |s: Stage| summaries.iter().find(|(x, _)| *x == s).unwrap().1;
        assert_eq!(get(Stage::Queue).count, 2);
        assert_eq!(get(Stage::Queue).total_ns, 300);
        assert_eq!(get(Stage::Exec).count, 1);
        assert_eq!(get(Stage::Plan).count, 0);
    }
}

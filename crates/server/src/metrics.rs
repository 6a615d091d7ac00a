//! The server's observability state and the `{"op":"metrics"}` /
//! `{"op":"trace"}` snapshot types.
//!
//! [`ServerObs`] owns what `parspeed-obs` provides generically: one
//! [`StageSet`] covering the full pipeline (the server records `queue`,
//! `window`, and `route`; the engine records `plan`, `dedup`, `cache`,
//! and `exec` through the same object via
//! [`Engine::set_recorder`](parspeed_engine::Engine::set_recorder)),
//! plus the [`TraceRing`] of recent requests and the batch-id counter
//! trace events reference.
//!
//! [`MetricsSnapshot`] is the full answer to `{"op":"metrics"}`: the
//! [`ServerStats`] counters (including the engine-time and dedup-factor
//! fields the byte-frozen `stats` op cannot carry) plus one
//! [`StageSummary`] per stage. It renders as wire-v2 JSON or as the
//! shared Prometheus-style text exposition.

use crate::stats::ServerStats;
use parspeed_engine::jsonl::Json;
use parspeed_engine::WIRE_VERSION;
use parspeed_obs::{
    render_exposition, Recorder, ResilienceSnapshot, ShardedHistogram, Stage, StageSet,
    StageSummary,
};
use parspeed_obs::{TraceEvent, TraceRing};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Saturating nanosecond span between two instants (0 if reversed).
pub(crate) fn ns_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// The server's observability state: per-stage histograms, the request
/// trace ring, and the batch-id counter. One per server; shared with
/// every connection and installed into the engine as its [`Recorder`].
#[derive(Debug)]
pub struct ServerObs {
    enabled: bool,
    epoch: Instant,
    stages: StageSet,
    /// End-to-end request latency (admission to reply routed) — the SLO
    /// histogram behind the `metrics` op's `latency` object. Every
    /// delivery funnel records here, so overloads and deadline answers
    /// count exactly like real results.
    latency: ShardedHistogram,
    trace: TraceRing,
    batch_ids: AtomicU64,
}

impl ServerObs {
    pub(crate) fn new(enabled: bool, trace_capacity: usize) -> Self {
        ServerObs {
            enabled,
            epoch: Instant::now(),
            stages: StageSet::new(),
            latency: ShardedHistogram::new(),
            trace: TraceRing::new(if enabled { trace_capacity } else { 0 }),
            batch_ids: AtomicU64::new(0),
        }
    }

    /// Whether stage recording is on (see
    /// [`ServerConfig::observe`](crate::ServerConfig::observe)).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// One summary per pipeline stage, in canonical order.
    pub fn stage_summaries(&self) -> Vec<(Stage, StageSummary)> {
        self.stages.summaries()
    }

    /// The kept trace events, oldest first (non-destructive, so a
    /// `{"op":"trace"}` probe does not erase the drain flush).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.events()
    }

    /// The trace ring capacity (0 = tracing off).
    pub fn trace_capacity(&self) -> usize {
        self.trace.capacity()
    }

    /// Seconds since the server started (the `health` op's uptime).
    /// Always live — the epoch is stamped even with observability off.
    pub fn uptime_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Attributes one latency sample (no-op when disabled).
    pub(crate) fn record(&self, stage: Stage, nanos: u64) {
        if self.enabled {
            self.stages.record(stage, nanos);
        }
    }

    /// Counts one end-to-end latency sample (no-op when disabled).
    pub(crate) fn record_latency(&self, nanos: u64) {
        if self.enabled {
            self.latency.record(nanos);
        }
    }

    /// The end-to-end latency summary (p50/p90/p99/p999 and friends).
    pub fn latency_summary(&self) -> StageSummary {
        StageSummary::of(&self.latency.snapshot())
    }

    /// Hands out the next engine-batch id (trace correlation).
    pub(crate) fn next_batch_id(&self) -> u64 {
        self.batch_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Monotonic nanoseconds of `at` since the server started.
    pub(crate) fn ns_since_epoch(&self, at: Instant) -> u64 {
        ns_between(self.epoch, at)
    }

    /// Appends a trace event (no-op when tracing is off).
    pub(crate) fn trace_push(&self, event: TraceEvent) {
        self.trace.push(event);
    }

    pub(crate) fn tracing(&self) -> bool {
        self.trace.enabled()
    }
}

impl Recorder for ServerObs {
    fn record(&self, stage: Stage, nanos: u64) {
        ServerObs::record(self, stage, nanos);
    }
}

/// The full observability snapshot: everything `{"op":"stats"}` says,
/// the engine-time fields it cannot carry, and one histogram summary
/// per pipeline stage.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// The counter snapshot (same consistency rules as the `stats` op).
    pub stats: ServerStats,
    /// One summary per stage, in canonical pipeline order.
    pub stages: Vec<(Stage, StageSummary)>,
    /// Recovery-action counters: deadline misses, shed requests,
    /// caught worker panics (and, on a router, retries/failovers/
    /// breaker transitions).
    pub resilience: ResilienceSnapshot,
    /// Whether cache-only brownout degradation is active right now.
    pub brownout: bool,
    /// End-to-end request latency (admission to reply routed): the SLO
    /// percentiles — p50/p99/p999 — operators alert on, one histogram
    /// across every connection and delivery path.
    pub latency: StageSummary,
}

impl MetricsSnapshot {
    /// The snapshot as one wire-v2 JSONL record (the reply to the
    /// `metrics` op): `{"version":2,"op":"metrics","stats":{…},
    /// "stages":{…}}`. The `stats` object carries every `stats`-op
    /// field plus `engine_seconds` and `dedup_factor` — new fields land
    /// here, never on the byte-frozen `stats` op.
    pub fn to_json(&self) -> Json {
        let mut stats = self.stats.counter_fields();
        stats.push(("engine_seconds".into(), Json::Num(self.stats.engine_seconds())));
        stats.push(("dedup_factor".into(), Json::Num(self.stats.dedup_factor())));
        let stages = self
            .stages
            .iter()
            .map(|(stage, s)| (stage.name().to_string(), summary_to_json(s)))
            .collect();
        // `latency` appends after the frozen prefix (additive-append
        // tail pattern): positional consumers of the original record
        // keep working, new consumers find the SLO percentiles by name.
        Json::Obj(vec![
            ("version".into(), Json::Num(WIRE_VERSION as f64)),
            ("op".into(), Json::Str("metrics".into())),
            ("stats".into(), Json::Obj(stats)),
            ("stages".into(), Json::Obj(stages)),
            ("resilience".into(), resilience_to_json(&self.resilience, self.brownout)),
            ("latency".into(), summary_to_json(&self.latency)),
        ])
    }

    /// The Prometheus-style text exposition (`parspeed serve
    /// --metrics-human`). Rendered through the wire shape so
    /// `parspeed metrics --human` — which only has the wire record —
    /// produces byte-identical text.
    pub fn render_human(&self) -> String {
        Self::render_human_wire(&self.to_json()).expect("own wire shape renders")
    }

    /// Renders a parsed `{"op":"metrics"}` wire record as the shared
    /// Prometheus-style text. `None` if the value is not such a record.
    pub fn render_human_wire(v: &Json) -> Option<String> {
        if v.get("op").and_then(Json::as_str) != Some("metrics") {
            return None;
        }
        let Json::Obj(stats) = v.get("stats")? else { return None };
        let mut out = String::from("# parspeed server metrics\n");
        for (name, value) in stats {
            let rendered = match value {
                Json::Bool(b) => if *b { "1" } else { "0" }.to_string(),
                other => other.render(),
            };
            out.push_str(&format!("parspeed_{name} {rendered}\n"));
        }
        // The resilience counters (absent on pre-resilience records).
        if let Some(Json::Obj(resilience)) = v.get("resilience") {
            for (name, value) in resilience {
                let rendered = match value {
                    Json::Bool(b) => if *b { "1" } else { "0" }.to_string(),
                    other => other.render(),
                };
                out.push_str(&format!("parspeed_resilience_{name} {rendered}\n"));
            }
        }
        let Json::Obj(stages) = v.get("stages")? else { return None };
        let mut summaries: Vec<(&str, StageSummary)> =
            stages.iter().map(|(name, s)| (name.as_str(), summary_from_json(s))).collect();
        // End-to-end latency renders as one more labeled series (absent
        // on pre-latency records).
        if let Some(latency) = v.get("latency") {
            summaries.push(("e2e", summary_from_json(latency)));
        }
        out.push_str(&render_exposition(&summaries));
        Some(out)
    }
}

/// One histogram summary as its wire object (shared by the per-stage
/// and end-to-end `latency` sections, so the shapes cannot drift).
fn summary_to_json(s: &StageSummary) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Num(s.count as f64)),
        ("total_ns".into(), Json::Num(s.total_ns as f64)),
        ("max_ns".into(), Json::Num(s.max_ns as f64)),
        ("p50_ns".into(), Json::Num(s.p50_ns as f64)),
        ("p90_ns".into(), Json::Num(s.p90_ns as f64)),
        ("p99_ns".into(), Json::Num(s.p99_ns as f64)),
        ("p999_ns".into(), Json::Num(s.p999_ns as f64)),
    ])
}

/// The inverse of [`summary_to_json`], tolerant of missing fields.
fn summary_from_json(s: &Json) -> StageSummary {
    let field = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    StageSummary {
        count: field("count"),
        total_ns: field("total_ns"),
        max_ns: field("max_ns"),
        p50_ns: field("p50_ns"),
        p90_ns: field("p90_ns"),
        p99_ns: field("p99_ns"),
        p999_ns: field("p999_ns"),
    }
}

/// The shared `resilience` wire object — one field per
/// [`ResilienceSnapshot`] counter (names and order from
/// [`ResilienceSnapshot::fields`], so the server's and the router's
/// `metrics` replies can never drift) plus the live `brownout` flag.
pub fn resilience_to_json(snap: &ResilienceSnapshot, brownout: bool) -> Json {
    let mut fields: Vec<(String, Json)> =
        snap.fields().iter().map(|(name, v)| (name.to_string(), Json::Num(*v as f64))).collect();
    fields.push(("brownout".into(), Json::Bool(brownout)));
    Json::Obj(fields)
}

/// The `{"op":"trace"}` wire reply: ring capacity, kept count, and the
/// events oldest-first.
pub(crate) fn trace_to_json(events: &[TraceEvent], capacity: usize) -> Json {
    let rendered = events
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("at_ns".into(), Json::Num(e.at_ns as f64)),
                ("client".into(), Json::Num(e.client as f64)),
                ("seq".into(), Json::Num(e.seq as f64)),
                ("query".into(), Json::Str(e.op.into())),
                ("batch".into(), Json::Num(e.batch as f64)),
                ("cache_hit".into(), Json::Bool(e.cache_hit)),
                ("queue_ns".into(), Json::Num(e.queue_ns as f64)),
                ("batch_ns".into(), Json::Num(e.batch_ns as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("version".into(), Json::Num(WIRE_VERSION as f64)),
        ("op".into(), Json::Str("trace".into())),
        ("capacity".into(), Json::Num(capacity as f64)),
        ("kept".into(), Json::Num(events.len() as f64)),
        ("events".into(), Json::Arr(rendered)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Counters;

    #[test]
    fn metrics_json_carries_stats_and_stages() {
        let obs = ServerObs::new(true, 4);
        obs.record(Stage::Queue, 1000);
        obs.record(Stage::Exec, 2_000_000);
        let resilience = ResilienceSnapshot { deadline_missed: 3, ..Default::default() };
        obs.record_latency(3_000_000);
        let snapshot = MetricsSnapshot {
            stats: Counters::default().snapshot(0, false),
            stages: obs.stage_summaries(),
            resilience,
            brownout: false,
            latency: obs.latency_summary(),
        };
        let rendered = snapshot.to_json().render();
        let back = parspeed_engine::jsonl::parse(&rendered).unwrap();
        assert_eq!(back.get("op").unwrap().as_str(), Some("metrics"));
        let stats = back.get("stats").unwrap();
        assert_eq!(stats.get("submitted").unwrap().as_usize(), Some(0));
        assert!(stats.get("engine_seconds").is_some());
        assert!(stats.get("dedup_factor").is_some());
        let stages = back.get("stages").unwrap();
        for stage in Stage::ALL {
            let s = stages.get(stage.name()).unwrap_or_else(|| panic!("missing {stage:?}"));
            assert!(s.get("p999_ns").is_some());
        }
        assert_eq!(stages.get("queue").unwrap().get("count").unwrap().as_usize(), Some(1));
        // The resilience section rides the metrics op, one field per
        // counter plus the brownout flag.
        let res = back.get("resilience").unwrap();
        assert_eq!(res.get("deadline_missed").unwrap().as_usize(), Some(3));
        assert_eq!(res.get("retries").unwrap().as_usize(), Some(0));
        assert_eq!(res.get("brownout"), Some(&Json::Bool(false)));
        // The end-to-end SLO section: appended after the frozen prefix,
        // same summary shape as a stage.
        let latency = back.get("latency").unwrap();
        assert_eq!(latency.get("count").unwrap().as_usize(), Some(1));
        assert!(latency.get("p999_ns").unwrap().as_f64().unwrap() >= 1.0);
    }

    #[test]
    fn human_rendering_is_shared_between_typed_and_wire_paths() {
        let obs = ServerObs::new(true, 0);
        obs.record(Stage::Plan, 500);
        obs.record_latency(2_500);
        let snapshot = MetricsSnapshot {
            stats: Counters::default().snapshot(2, true),
            stages: obs.stage_summaries(),
            resilience: ResilienceSnapshot::default(),
            brownout: true,
            latency: obs.latency_summary(),
        };
        let direct = snapshot.render_human();
        let wire = parspeed_engine::jsonl::parse(&snapshot.to_json().render()).unwrap();
        assert_eq!(MetricsSnapshot::render_human_wire(&wire).unwrap(), direct);
        assert!(direct.contains("parspeed_queue_depth 2"), "{direct}");
        assert!(direct.contains("parspeed_draining 1"), "{direct}");
        assert!(direct.contains("parspeed_resilience_retries 0"), "{direct}");
        assert!(direct.contains("parspeed_resilience_brownout 1"), "{direct}");
        assert!(direct.contains("parspeed_stage_latency_ns{stage=\"plan\",quantile=\"0.5\"}"));
        assert!(direct.contains("parspeed_stage_latency_ns{stage=\"e2e\",quantile=\"0.999\"}"));
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = ServerObs::new(false, 128);
        obs.record(Stage::Queue, 1000);
        assert!(!obs.tracing(), "trace ring forced off with observe=false");
        assert!(obs.stage_summaries().iter().all(|(_, s)| s.count == 0));
    }

    #[test]
    fn trace_reply_shape() {
        let events = vec![TraceEvent {
            at_ns: 5,
            client: 1,
            seq: 0,
            op: "solve",
            batch: 3,
            cache_hit: false,
            queue_ns: 10,
            batch_ns: 20,
        }];
        let v = trace_to_json(&events, 16);
        let back = parspeed_engine::jsonl::parse(&v.render()).unwrap();
        assert_eq!(back.get("op").unwrap().as_str(), Some("trace"));
        assert_eq!(back.get("kept").unwrap().as_usize(), Some(1));
        let Json::Arr(items) = back.get("events").unwrap() else { panic!("events array") };
        assert_eq!(items[0].get("query").unwrap().as_str(), Some("solve"));
    }
}

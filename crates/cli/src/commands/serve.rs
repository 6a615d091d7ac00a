//! `parspeed serve` — the concurrent serving frontend: many TCP clients,
//! wire-v2 JSONL framing, cross-client micro-batching into the engine.

use crate::args::{err, Args, CliError};
use parspeed_chaos::FaultPlan;
use parspeed_engine::Engine;
use parspeed_server::{BrownoutConfig, EventLoopConfig, Server, ServerConfig};
use std::io::{BufRead as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

pub const KEYS: &[&str] = &[
    "addr",
    "window-us",
    "max-batch",
    "workers",
    "queue-depth",
    "cache-capacity",
    "shards",
    "threads",
    "trace",
    "brownout-enter",
    "brownout-exit",
    "fault-plan",
    "fault-seed",
    "wbuf-shed-kib",
    "wbuf-stop-kib",
];
pub const SWITCHES: &[&str] = &["stats", "metrics-human", "no-observe"];

/// Usage shown by `parspeed help serve`.
pub const USAGE: &str = "parspeed serve [--addr HOST:PORT] [--window-us N] [--max-batch N]
               [--workers N] [--queue-depth N] [--cache-capacity N]
               [--shards N] [--threads N] [--trace N] [--stats]
               [--metrics-human] [--no-observe]
               [--brownout-enter N --brownout-exit N]
               [--fault-plan SPEC] [--fault-seed N]
               [--wbuf-shed-kib N] [--wbuf-stop-kib N]

Serves the wire-v2 JSONL request schema of `parspeed batch` over TCP to
many simultaneous clients: one JSON request per line in, one JSON
response per non-empty line out, in per-connection order. One
readiness-driven event-loop thread serves every connection, with
reusable per-connection buffers and write backpressure. In-flight
requests from all connections are coalesced by a micro-batching window
into single engine batches, so dedup and the result cache amortize
across clients. Serving-only ops: `{\"op\":\"stats\"}` answers a live
telemetry snapshot, `{\"op\":\"metrics\"}` adds per-stage latency
histograms plus the resilience counters (see `parspeed help metrics`),
`{\"op\":\"trace\"}` answers the recent-request trace ring.

Prints `listening on HOST:PORT` (so `--addr 127.0.0.1:0` works), then
serves until stdin reaches EOF (Ctrl-D), drains — every accepted request
is answered before connections close — and exits. Requests refused by
admission control (full submission queue, draining server, brownout
shedding) are answered in their own reply slot with
\"error_kind\":\"overloaded\", never by disconnecting the client. Any
request line may carry \"deadline_ms\": if the budget expires before the
result is produced the slot answers \"error_kind\":\"deadline_exceeded\"
(see crates/engine/src/README.md, Failure semantics).

  --addr HOST:PORT     listen address (default 127.0.0.1:0)
  --window-us N        micro-batch window in microseconds: how long the
                       first request of a quiet period waits for company
                       (default 200; 0 = dispatch immediately)
  --max-batch N        requests per engine batch; reaching it fires the
                       batch before the window closes (default 512)
  --workers N          batcher worker threads (default 2)
  --queue-depth N      submission-queue bound; beyond it requests answer
                       the overloaded error (default 4096)
  --cache-capacity N   engine result cache size (default 65536)
  --shards N           cache shards (default 16)
  --threads N          engine executor threads; 0 = sized per operation from its work
  --trace N            keep the last N request traces (default 0 = off);
                       served by `{\"op\":\"trace\"}` and flushed as
                       JSONL to stderr on drain
  --wbuf-shed-kib N    per-connection write-buffer KiB above which new
                       engine-bound requests answer the overloaded error
                       instead of being admitted — the client is not
                       reading replies (default 256)
  --wbuf-stop-kib N    write-buffer KiB above which the connection stops
                       being read entirely until it drains back below
                       the shed watermark (default 1024)
  --brownout-enter N   queue depth at which brownout degradation starts:
                       cold requests shed as overloaded, cached requests
                       still answer (default off)
  --brownout-exit N    queue depth at which full service resumes; must
                       be below --brownout-enter
  --fault-plan SPEC    install a deterministic fault plan, e.g.
                       `panic@3,delay:0:5@7` — ACTION@REQUEST pairs
                       (kill:S, delay:S:MS, drop:S, dup:S, wedge:S,
                       panic) firing at 1-based request indices
  --fault-seed N       seed for the fault plan's deterministic jitter
                       (default 0); the same seed replays the same trace
  --stats              print the final telemetry snapshot after draining
  --metrics-human      print the final per-stage latency histograms as a
                       Prometheus-style text exposition after draining
  --no-observe         disable stage-latency recording and tracing
                       (counters and the stats op stay on)";

/// Parses the event-loop watermark flags over the defaults, keeping the
/// shed-below-stop invariant.
pub(crate) fn event_loop_config(args: &Args) -> Result<EventLoopConfig, CliError> {
    let mut cfg = EventLoopConfig::default();
    if let Some(kib) = args.usize_opt("wbuf-shed-kib")? {
        cfg.shed_watermark = kib * 1024;
    }
    if let Some(kib) = args.usize_opt("wbuf-stop-kib")? {
        cfg.stop_watermark = kib * 1024;
    }
    if cfg.shed_watermark == 0 || cfg.stop_watermark < cfg.shed_watermark {
        return Err(err("--wbuf-stop-kib must be at least --wbuf-shed-kib (and shed at least 1)"));
    }
    Ok(cfg)
}

/// Parses the optional brownout watermark pair.
fn brownout_config(args: &Args) -> Result<Option<BrownoutConfig>, CliError> {
    match (args.usize_opt("brownout-enter")?, args.usize_opt("brownout-exit")?) {
        (None, None) => Ok(None),
        (Some(enter), Some(exit)) => {
            if enter == 0 || exit >= enter {
                return Err(err(
                    "--brownout-exit must be below --brownout-enter (and enter at least 1)",
                ));
            }
            Ok(Some(BrownoutConfig { enter, exit }))
        }
        _ => Err(err("brownout needs both --brownout-enter and --brownout-exit")),
    }
}

/// Parses the optional `--fault-plan SPEC` (+ `--fault-seed N`).
pub(crate) fn fault_plan(args: &Args) -> Result<Option<Arc<FaultPlan>>, CliError> {
    let Some(spec) = args.str_opt("fault-plan") else {
        if args.usize_opt("fault-seed")?.is_some() {
            return Err(err("--fault-seed needs --fault-plan"));
        }
        return Ok(None);
    };
    let seed = args.usize_or("fault-seed", 0)? as u64;
    let plan = FaultPlan::parse(spec, seed).map_err(|e| err(format!("--fault-plan: {e}")))?;
    Ok(Some(Arc::new(plan)))
}

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let config = ServerConfig {
        window: Duration::from_micros(args.usize_or("window-us", 200)? as u64),
        max_batch: args.usize_or("max-batch", 512)?,
        workers: args.usize_or("workers", 2)?,
        queue_depth: args.usize_or("queue-depth", 4096)?,
        observe: !args.switch("no-observe"),
        trace: args.usize_or("trace", 0)?,
        shard: None,
        brownout: brownout_config(args)?,
        event_loop: event_loop_config(args)?,
    };
    if args.switch("metrics-human") && !config.observe {
        return Err(err("--metrics-human needs stage recording; drop --no-observe"));
    }
    for (flag, value) in [
        ("max-batch", config.max_batch),
        ("workers", config.workers),
        ("queue-depth", config.queue_depth),
    ] {
        if value == 0 {
            return Err(err(format!("flag `--{flag}` must be at least 1")));
        }
    }
    let plan = fault_plan(args)?;
    let engine = Engine::builder()
        .cache_capacity(args.usize_or("cache-capacity", parspeed_engine::DEFAULT_CACHE_CAPACITY)?)
        .cache_shards(args.usize_or("shards", 16)?)
        .threads(args.usize_or("threads", 0)?)
        .experiment_runner(crate::commands::experiment::runner)
        .build();
    let mut server = Server::start(Arc::new(engine), config);
    if plan.is_some() {
        server.install_fault_plan(plan);
    }
    let addr = args.str_or("addr", "127.0.0.1:0");
    let local = server.listen(addr).map_err(|e| err(format!("cannot bind `{addr}`: {e}")))?;

    // Announce the bound address immediately (stdout may be a pipe).
    println!("listening on {local}");
    println!("serving; close stdin (Ctrl-D) to drain and exit");
    std::io::stdout().flush().map_err(|e| err(format!("cannot flush stdout: {e}")))?;

    // Serve until the operator closes stdin; everything interesting
    // happens on the server's own threads.
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
    }
    // The obs handle outlives shutdown; grab it first so the final
    // histograms and the trace ring survive the drain. Same for the
    // resilience counters.
    let obs = server.observability();
    let resilience = server.resilience();
    let stats = server.shutdown();
    if obs.trace_capacity() > 0 {
        // Flush the trace ring as JSONL on stderr, oldest first, so a
        // piped stdout stays pure reply lines.
        for event in obs.trace_events() {
            eprintln!("{}", event.to_jsonl());
        }
    }
    let mut out = if args.switch("stats") { format!("drained; {stats}") } else { "drained".into() };
    if args.switch("metrics-human") {
        let snapshot = parspeed_server::MetricsSnapshot {
            stats,
            stages: obs.stage_summaries(),
            resilience: resilience.snapshot(),
            // The server has drained: brownout is necessarily over.
            brownout: false,
            latency: obs.latency_summary(),
        };
        out.push('\n');
        out.push_str(snapshot.render_human().trim_end());
    }
    Ok(out)
}

//! End-to-end observability: the per-stage histograms account for the
//! time a client actually experiences, the `metrics` and `trace` ops
//! answer well-formed wire records, and turning observation off leaves
//! no residue (and costs no samples).

use parspeed_engine::{jsonl, Engine, Query, Response, SolverKind, StencilSpec};
use parspeed_obs::Stage;
use parspeed_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn heavy(i: usize) -> Query {
    // Distinct fixed-budget Jacobi solves: the tolerance is out of reach,
    // so each runs exactly its own iteration cap (no two share a cache
    // key). Some 500 sweeps of a 31² grid make engine exec dominate the
    // end-to-end time even across a scheduler stall of tens of ms.
    Query::Solve {
        n: 31,
        solver: SolverKind::Jacobi,
        tol: 1e-300,
        stencil: StencilSpec::FivePoint,
        partitions: 0,
        max_iters: 500 + i,
        check: None,
    }
}

fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for line in lines {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream).lines().map(|l| l.expect("read")).collect()
}

/// The deterministic accounting check: one sequential client, zero
/// window, so every stage total is attributable and their sum must
/// (within measurement slack) reproduce the measured end-to-end time.
/// `window` is excluded from the sum — it overlaps the tail of `queue`
/// by construction (both end when the batch fires).
#[test]
fn stage_sums_account_for_end_to_end_time() {
    let n = 12usize;
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig { window: Duration::ZERO, workers: 1, ..ServerConfig::default() },
    );
    let client = server.client();
    let start = Instant::now();
    for i in 0..n {
        match client.call(heavy(i)) {
            Response::Single(Ok(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let metrics = server.metrics();
    server.shutdown();

    let summary =
        |stage: Stage| metrics.stages.iter().find(|(s, _)| *s == stage).map(|(_, s)| *s).unwrap();
    // Per-request stages saw every request; per-batch stages saw every
    // batch (sequential submission: one request per batch).
    for stage in Stage::ALL {
        assert_eq!(summary(stage).count, n as u64, "{stage:?} sample count");
    }
    let accounted: u64 = [Stage::Queue, Stage::Plan, Stage::Dedup, Stage::Cache, Stage::Exec]
        .iter()
        .chain([Stage::Route].iter())
        .map(|&s| summary(s).total_ns)
        .sum();
    let frac = accounted as f64 / wall_ns;
    assert!(frac <= 1.05, "stages account for more time than passed: {frac:.3}");
    assert!(
        frac >= 0.5,
        "stages miss most of the end-to-end time: {frac:.3} \
         (queue {} plan {} dedup {} cache {} exec {} route {} wall {})",
        summary(Stage::Queue).total_ns,
        summary(Stage::Plan).total_ns,
        summary(Stage::Dedup).total_ns,
        summary(Stage::Cache).total_ns,
        summary(Stage::Exec).total_ns,
        summary(Stage::Route).total_ns,
        wall_ns,
    );
    // Exec dominates for this workload, and the counters agree with the
    // histograms about how much engine time was spent.
    assert!(summary(Stage::Exec).total_ns as f64 > 0.25 * wall_ns);
    let engine_ns = metrics.stats.engine_seconds() * 1e9;
    let exec_ns = summary(Stage::Exec).total_ns as f64;
    assert!(engine_ns >= exec_ns * 0.9, "engine_nanos {engine_ns} vs exec {exec_ns}");
}

#[test]
fn metrics_op_answers_stage_histograms_over_tcp() {
    let mut server = Server::start(Arc::new(Engine::default()), ServerConfig::default());
    let addr = server.listen(("127.0.0.1", 0)).expect("bind");
    // Complete the work on an in-process client first so the TCP probe
    // deterministically sees non-empty histograms.
    let client = server.client();
    for i in 0..5 {
        client.call(heavy(i));
    }
    let replies = roundtrip(addr, &[r#"{"op":"metrics"}"#]);
    assert_eq!(replies.len(), 1);
    let v = jsonl::parse(&replies[0]).unwrap();
    assert_eq!(v.get("op").unwrap().as_str(), Some("metrics"));
    assert_eq!(v.get("version").unwrap().as_usize(), Some(2));
    let stats = v.get("stats").unwrap();
    assert_eq!(stats.get("completed").unwrap().as_usize(), Some(5));
    assert!(stats.get("engine_seconds").unwrap().as_f64().unwrap() > 0.0);
    assert!(stats.get("dedup_factor").unwrap().as_f64().unwrap() >= 1.0);
    let stages = v.get("stages").unwrap();
    for stage in Stage::ALL {
        let s = stages.get(stage.name()).unwrap_or_else(|| panic!("missing {stage:?}"));
        for field in ["count", "total_ns", "max_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns"] {
            assert!(s.get(field).is_some(), "{stage:?} missing {field}");
        }
        // The TCP probe itself never enters the batcher, so only the
        // five in-process requests are visible.
        assert_eq!(s.get("count").unwrap().as_usize(), Some(5), "{stage:?}");
    }
    server.shutdown();
}

#[test]
fn trace_op_keeps_the_last_n_requests() {
    let mut server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig { trace: 3, ..ServerConfig::default() },
    );
    let addr = server.listen(("127.0.0.1", 0)).expect("bind");
    let client = server.client();
    for i in 0..7 {
        client.call(heavy(i));
    }
    let replies = roundtrip(addr, &[r#"{"op":"trace"}"#]);
    let v = jsonl::parse(&replies[0]).unwrap();
    assert_eq!(v.get("op").unwrap().as_str(), Some("trace"));
    assert_eq!(v.get("capacity").unwrap().as_usize(), Some(3));
    assert_eq!(v.get("kept").unwrap().as_usize(), Some(3));
    let jsonl::Json::Arr(events) = v.get("events").unwrap() else { panic!("events array") };
    // Ring evicted the oldest: the survivors are the last three
    // submissions, oldest first.
    let seqs: Vec<usize> =
        events.iter().map(|e| e.get("seq").unwrap().as_usize().unwrap()).collect();
    assert_eq!(seqs, [4, 5, 6]);
    let mut last_at = 0u64;
    for e in events {
        assert_eq!(e.get("query").unwrap().as_str(), Some("solve"));
        assert!(e.get("cache_hit").is_some());
        assert!(e.get("queue_ns").unwrap().as_f64().unwrap() >= 0.0);
        assert!(e.get("batch_ns").unwrap().as_f64().unwrap() > 0.0);
        let at = e.get("at_ns").unwrap().as_f64().unwrap() as u64;
        assert!(at >= last_at, "trace timestamps go backwards");
        last_at = at;
    }
    server.shutdown();
}

#[test]
fn observe_off_records_nothing_and_disables_tracing() {
    let mut server = Server::start(
        Arc::new(Engine::default()),
        // trace asked for, but observe=false wins: no ring either.
        ServerConfig { observe: false, trace: 64, ..ServerConfig::default() },
    );
    let addr = server.listen(("127.0.0.1", 0)).expect("bind");
    let client = server.client();
    for i in 0..3 {
        client.call(heavy(i));
    }
    let metrics = server.metrics();
    assert!(metrics.stages.iter().all(|(_, s)| s.count == 0), "observe=false recorded samples");
    // The ops still answer (counters are always on), just with empty
    // histograms / no events — and `stats` is untouched by any of this.
    let replies =
        roundtrip(addr, &[r#"{"op":"metrics"}"#, r#"{"op":"trace"}"#, r#"{"op":"stats"}"#]);
    let m = jsonl::parse(&replies[0]).unwrap();
    assert_eq!(m.get("stats").unwrap().get("completed").unwrap().as_usize(), Some(3));
    let t = jsonl::parse(&replies[1]).unwrap();
    assert_eq!(t.get("capacity").unwrap().as_usize(), Some(0));
    assert_eq!(t.get("kept").unwrap().as_usize(), Some(0));
    let s = jsonl::parse(&replies[2]).unwrap();
    assert_eq!(s.get("op").unwrap().as_str(), Some("stats"));
    assert!(s.get("engine_seconds").is_none(), "stats wire shape must stay frozen");
    server.shutdown();
}

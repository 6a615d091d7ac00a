//! Admission control and drain: queue-depth saturation answers the
//! documented `overloaded` error kind in the request's own reply slot,
//! the server recovers to full throughput after the burst (no stuck
//! permits), and drain-on-shutdown flushes every accepted request.

use parspeed_engine::{
    ArchKind, Engine, MachineSpec, PartitionShape, Query, Response, StencilSpec, WorkloadSpec,
};
use parspeed_server::{Server, ServerConfig};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn optimize(n: usize) -> Query {
    Query::Optimize {
        arch: ArchKind::SyncBus,
        machine: MachineSpec::default(),
        workload: WorkloadSpec {
            n,
            stencil: StencilSpec::FivePoint,
            shape: PartitionShape::Square,
        },
        procs: Some(32),
        memory_words: None,
    }
}

/// Deterministic saturation: the window is far longer than the test, so
/// nothing fires until drain — the queue provably fills to exactly
/// `queue_depth` and every request beyond it gets the overload answer,
/// held in sequence order behind the accepted requests' replies.
#[test]
fn saturation_answers_overloaded_in_slot_and_drain_flushes() {
    let started = Instant::now();
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig {
            window: Duration::from_secs(600),
            max_batch: 64,
            workers: 1,
            queue_depth: 3,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    for i in 0..6 {
        client.submit(optimize(64 + i));
    }
    let live = server.stats();
    assert_eq!(live.submitted, 6);
    assert_eq!(live.overloaded, 3, "requests 4..6 must be refused: {live}");
    assert_eq!(live.queue_high_watermark, 3);
    assert_eq!(live.completed, 0, "the 600s window must not have fired yet");

    // Drain must fire the pending batch immediately, not wait the window.
    let stats = server.shutdown();
    assert!(started.elapsed() < Duration::from_secs(60), "drain waited for the window");
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.overloaded, 3);

    for i in 0..6u64 {
        let (seq, response) = client.recv();
        assert_eq!(seq, i, "replies out of order");
        match (i, response) {
            (0..=2, Response::Single(Ok(_))) => {}
            (3..=5, Response::Invalid(e)) => {
                assert_eq!(e.kind(), "overloaded");
                assert!(e.to_string().contains("queue is full"), "{e}");
            }
            (i, other) => panic!("slot {i}: unexpected {other:?}"),
        }
    }
}

/// After a saturating burst the server must return to answering
/// everything — refused requests leave no stuck permits behind.
#[test]
fn server_recovers_full_throughput_after_a_burst() {
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig {
            window: Duration::from_micros(300),
            max_batch: 64,
            workers: 2,
            queue_depth: 2,
            ..ServerConfig::default()
        },
    );
    let threads = 4usize;
    let per_thread = 25usize;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let client = server.client();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    client.submit(optimize(64 + (t * per_thread + i) % 7));
                }
                let mut ok = 0usize;
                let mut overloaded = 0usize;
                for i in 0..per_thread {
                    let (seq, response) = client.recv();
                    assert_eq!(seq, i as u64, "thread {t} replies out of order");
                    match response {
                        Response::Single(Ok(_)) => ok += 1,
                        Response::Invalid(e) if e.kind() == "overloaded" => overloaded += 1,
                        other => panic!("thread {t}: unexpected {other:?}"),
                    }
                }
                (ok, overloaded)
            })
        })
        .collect();
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for handle in handles {
        let (o, v) = handle.join().expect("burst thread");
        ok += o;
        overloaded += v;
    }
    assert_eq!(ok + overloaded, threads * per_thread, "a reply went missing in the burst");

    // Recovery: paced traffic (one in flight at a time) can never see a
    // full queue again — every request must now succeed.
    let client = server.client();
    for i in 0..20 {
        match client.call(optimize(64 + i)) {
            Response::Single(Ok(_)) => {}
            other => panic!("post-burst request {i} failed: {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, (threads * per_thread + 20) as u64);
    assert_eq!(stats.completed, (ok + 20) as u64);
    assert_eq!(stats.overloaded, overloaded as u64);
}

/// Regression: drain-on-shutdown flushes all accepted requests, even
/// when their window would otherwise hold them far past the shutdown.
#[test]
fn drain_flushes_all_accepted_requests() {
    let started = Instant::now();
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig {
            window: Duration::from_secs(600),
            max_batch: 512,
            workers: 2,
            queue_depth: 4096,
            ..ServerConfig::default()
        },
    );
    let clients: Vec<_> = (0..3).map(|_| server.client()).collect();
    for (c, client) in clients.iter().enumerate() {
        for i in 0..10 {
            client.submit(optimize(64 + c * 10 + i));
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 30);
    assert_eq!(stats.completed, 30, "drain lost accepted requests: {stats}");
    assert_eq!(stats.overloaded, 0);
    for (c, client) in clients.iter().enumerate() {
        for i in 0..10u64 {
            let (seq, response) = client.recv();
            assert_eq!(seq, i);
            assert!(matches!(response, Response::Single(Ok(_))), "client {c} slot {i} not flushed");
        }
    }
    assert!(started.elapsed() < Duration::from_secs(60), "drain waited for the window");
}

//! Deterministic concurrency harness: a scripted multi-client driver.
//!
//! Each script is derived from a seed (client count, barrier-staged
//! submission waves, per-wave request counts, query parameters), so a
//! failure replays exactly. Every query is parameterized uniquely per
//! `(client, tag)` slot, and the expected answer for each slot is
//! computed serially on a reference engine up front — so the assertions
//! pin all three serving guarantees at once:
//!
//! * **complete** — every client receives exactly one reply per request;
//! * **per-connection ordered** — replies arrive in submission order
//!   (sequence numbers 0, 1, 2, … with no gap and no swap);
//! * **no cross-client slot leakage** — the reply in slot `(client,
//!   seq)` answers *that* slot's query; any routing mix-up surfaces as a
//!   value mismatch because no two slots share a query.

use parspeed_engine::{
    ArchKind, Engine, MachineSpec, PartitionShape, Query, Response, StencilSpec, WorkloadSpec,
};
use parspeed_server::{Server, ServerConfig};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Deterministic script randomness (splitmix-style LCG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The query for one `(client, tag)` slot. The grid side is unique per
/// slot (tags stay below 101), so two different slots can never share an
/// answer — a leaked or swapped reply is always a visible mismatch.
fn query_for(client: usize, tag: usize) -> Query {
    assert!(tag < 101);
    Query::Optimize {
        arch: ArchKind::SyncBus,
        machine: MachineSpec::default(),
        workload: WorkloadSpec {
            n: 64 + (client * 101 + tag),
            stencil: StencilSpec::FivePoint,
            shape: PartitionShape::Square,
        },
        procs: Some(32),
        memory_words: None,
    }
}

/// Runs one scripted schedule and checks every reply against the serial
/// reference.
fn run_script(seed: u64) {
    let mut lcg = Lcg(seed);
    let clients = 2 + lcg.below(4) as usize; // 2..=5
    let waves = 1 + lcg.below(3) as usize; // 1..=3
    let counts: Vec<Vec<usize>> =
        (0..clients).map(|_| (0..waves).map(|_| lcg.below(5) as usize).collect()).collect();

    // Serial reference: every slot's query through a plain engine batch.
    let mut slot_queries: Vec<(usize, usize)> = Vec::new();
    for (c, per_wave) in counts.iter().enumerate() {
        let total: usize = per_wave.iter().sum();
        for tag in 0..total {
            slot_queries.push((c, tag));
        }
    }
    let reference_engine = Engine::default();
    let queries: Vec<Query> = slot_queries.iter().map(|&(c, t)| query_for(c, t)).collect();
    let expected = reference_engine.run_batch(&queries).responses;
    let expect_for = |client: usize, tag: usize| -> &Response {
        let idx = slot_queries.iter().position(|&s| s == (client, tag)).unwrap();
        &expected[idx]
    };

    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig {
            window: Duration::from_micros(300),
            max_batch: 64,
            workers: 2,
            queue_depth: 4096,
            ..ServerConfig::default()
        },
    );
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let client = server.client();
            let barrier = Arc::clone(&barrier);
            let per_wave = counts[c].clone();
            std::thread::spawn(move || {
                let mut tag = 0usize;
                for &count in &per_wave {
                    // Barrier-staged: every client enters the wave
                    // together, so waves interleave across connections.
                    barrier.wait();
                    for _ in 0..count {
                        let seq = client.submit(query_for(c, tag));
                        assert_eq!(seq, tag as u64, "client {c}: seq allocation out of order");
                        tag += 1;
                    }
                }
                let replies: Vec<(u64, Response)> = (0..tag).map(|_| client.recv()).collect();
                (c, replies)
            })
        })
        .collect();

    for handle in handles {
        let (c, replies) = handle.join().expect("client thread");
        let total: usize = counts[c].iter().sum();
        assert_eq!(replies.len(), total, "client {c}: incomplete replies (seed {seed})");
        for (i, (seq, response)) in replies.iter().enumerate() {
            assert_eq!(*seq, i as u64, "client {c}: replies out of order (seed {seed})");
            assert_eq!(
                response,
                expect_for(c, i),
                "client {c} slot {i}: wrong answer — cross-client leakage (seed {seed})"
            );
        }
    }
    let stats = server.shutdown();
    let total: u64 = counts.iter().flatten().map(|&n| n as u64).sum();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.overloaded, 0);
}

#[test]
fn scripted_interleavings_stay_ordered_and_leak_free() {
    for seed in 0..12 {
        run_script(seed);
    }
}

/// High-contention path: many clients hammering a *shared* duplicated
/// pool inside one generous window, so the batcher provably coalesces
/// across connections and the dedup savings show up in the stats.
#[test]
fn shared_traffic_coalesces_across_clients() {
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig {
            window: Duration::from_millis(200),
            max_batch: 4096,
            workers: 2,
            queue_depth: 4096,
            ..ServerConfig::default()
        },
    );
    let clients = 8usize;
    let per_client = 50usize;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let client = server.client();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Every client cycles the same 5 queries: all duplication
                // here is cross-client by construction once batched.
                for i in 0..per_client {
                    client.submit(query_for(0, i % 5));
                }
                let replies: Vec<(u64, Response)> =
                    (0..per_client).map(|_| client.recv()).collect();
                (c, replies)
            })
        })
        .collect();
    let reference =
        Engine::default().run_batch(&(0..5).map(|i| query_for(0, i)).collect::<Vec<_>>());
    for handle in handles {
        let (c, replies) = handle.join().expect("client thread");
        for (i, (seq, response)) in replies.iter().enumerate() {
            assert_eq!(*seq, i as u64, "client {c} out of order");
            assert_eq!(response, &reference.responses[i % 5], "client {c} slot {i}");
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, (clients * per_client) as u64);
    assert!(stats.cross_client_batches >= 1, "a 200ms window never coalesced two clients: {stats}");
    assert!(stats.cross_client_dedup_hits > 0, "cross-client duplicates never deduped: {stats}");
}

/// One scripted disconnect schedule: ghost connections submit into an
/// open window and vanish before their replies route.
fn run_disconnect_script(seed: u64) {
    let mut lcg = Lcg(seed ^ 0xD15C);
    let ghosts = 1 + lcg.below(3) as usize; // 1..=3
    let per_ghost: Vec<usize> = (0..ghosts).map(|_| 1 + lcg.below(3) as usize).collect();

    let mut server = Server::start(
        Arc::new(Engine::default()),
        // A window long enough that a ghost provably disconnects while
        // its requests are still pending in the batcher.
        ServerConfig {
            window: Duration::from_millis(100),
            max_batch: 4096,
            ..ServerConfig::default()
        },
    );
    let addr = server.listen(("127.0.0.1", 0)).expect("bind");

    let mut admitted = 0u64;
    for (g, &count) in per_ghost.iter().enumerate() {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for tag in 0..count {
            let line = format!(
                r#"{{"op":"optimize","version":2,"arch":"sync-bus","n":{},"stencil":"5pt","shape":"square","procs":32}}"#,
                64 + (g * 101 + tag)
            );
            stream.write_all(line.as_bytes()).expect("write");
            stream.write_all(b"\n").expect("write");
        }
        admitted += count as u64;
        // Wait for admission (the submit counter), then vanish with the
        // window still open — the replies have nowhere to go.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().submitted < admitted {
            assert!(Instant::now() < deadline, "ghost {g}'s requests never admitted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = stream.shutdown(Shutdown::Both);
        drop(stream);
    }

    // A live in-process client shares the same windows as the ghosts
    // and must be completely unaffected by their disconnects.
    let live = server.client();
    let live_count = 1 + lcg.below(4) as usize;
    for tag in 0..live_count {
        live.submit(query_for(90, tag));
    }
    let reference =
        Engine::default().run_batch(&(0..live_count).map(|t| query_for(90, t)).collect::<Vec<_>>());
    for (tag, want) in reference.responses.iter().enumerate() {
        let (seq, got) = live.recv();
        assert_eq!(seq, tag as u64, "live client out of order (seed {seed})");
        assert_eq!(&got, want, "live client slot {tag} wrong (seed {seed})");
    }

    // The drain is the leak detector: a reorder-buffer slot that was
    // allocated but never routed would leave a writer waiting forever
    // and hang the join below.
    let stats = server.shutdown();
    let total = admitted + live_count as u64;
    assert_eq!(stats.submitted, total, "seed {seed}: {stats}");
    // No skew: every admitted request was batched, evaluated, and
    // counted complete, ghosts included — the batch-group counters
    // never learn the consumer died.
    assert_eq!(stats.completed, total, "seed {seed}: {stats}");
    assert_eq!(stats.batched_requests, total, "seed {seed}: {stats}");
    assert_eq!(stats.overloaded, 0, "seed {seed}: {stats}");
    assert_eq!(stats.connections, ghosts as u64 + 1, "seed {seed}: {stats}");
    assert_eq!(stats.queue_depth, 0, "seed {seed}: jobs left in the queue: {stats}");
}

/// Mid-window disconnects: a connection that submits and drops before
/// its reply routes must leak nothing — not a reorder-buffer slot (the
/// drain would hang), not a counter (completed/batched stay exact) —
/// and must never disturb a live client sharing its batches.
#[test]
fn mid_window_disconnect_leaks_no_slots_and_skews_no_counters() {
    for seed in 0..6 {
        run_disconnect_script(seed);
    }
}

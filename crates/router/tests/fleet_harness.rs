//! Deterministic fleet harness: the server's scripted multi-client
//! driver, pointed at a sharded router.
//!
//! The serving guarantees must survive the scatter: a reply stream that
//! was complete, per-connection ordered, and leak-free through one
//! server must stay so when requests fan out across shards and gather
//! back. Every script's expected answers come from a serial
//! [`Engine::run_batch`] on a reference engine — the serial-identity
//! property extended to the fleet.

use parspeed_engine::{
    jsonl, ArchKind, Engine, MachineSpec, PartitionShape, Query, Response, StencilSpec,
    WorkloadSpec, WIRE_VERSION,
};
use parspeed_router::{Router, RouterConfig};
use parspeed_server::ServerConfig;
use std::sync::{Arc, Barrier};
use std::time::Duration;

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

/// The query for one `(client, tag)` slot: unique grid side per slot,
/// so a leaked or swapped reply is always a visible value mismatch.
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

fn fleet(shards: usize, window: Duration) -> Router {
    Router::start(RouterConfig {
        shards,
        backend: ServerConfig { window, max_batch: 4096, ..ServerConfig::default() },
        ..RouterConfig::default()
    })
}

/// Runs one scripted schedule through a 3-shard fleet and checks every
/// reply against the serial reference.
fn run_script(seed: u64) {
    let mut lcg = Lcg(seed);
    let clients = 2 + lcg.below(4) as usize; // 2..=5
    let waves = 1 + lcg.below(3) as usize; // 1..=3
    let counts: Vec<Vec<usize>> =
        (0..clients).map(|_| (0..waves).map(|_| lcg.below(5) as usize).collect()).collect();

    let mut slot_queries: Vec<(usize, usize)> = Vec::new();
    for (c, per_wave) in counts.iter().enumerate() {
        let total: usize = per_wave.iter().sum();
        for tag in 0..total {
            slot_queries.push((c, tag));
        }
    }
    let queries: Vec<Query> = slot_queries.iter().map(|&(c, t)| query_for(c, t)).collect();
    let expected = Engine::default().run_batch(&queries).responses;
    let expect_for = |client: usize, tag: usize| -> &Response {
        let idx = slot_queries.iter().position(|&s| s == (client, tag)).unwrap();
        &expected[idx]
    };

    let router = fleet(3, Duration::from_micros(300));
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let client = router.client();
            let barrier = Arc::clone(&barrier);
            let per_wave = counts[c].clone();
            std::thread::spawn(move || {
                let mut tag = 0usize;
                for &count in &per_wave {
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
                "client {c} slot {i}: wrong answer through the fleet (seed {seed})"
            );
        }
    }
    let stats = router.shutdown();
    let total: u64 = counts.iter().flatten().map(|&n| n as u64).sum();
    let completed: u64 = stats.iter().map(|(_, s)| s.completed).sum();
    let overloaded: u64 = stats.iter().map(|(_, s)| s.overloaded).sum();
    assert_eq!(completed, total, "fleet lost work (seed {seed})");
    assert_eq!(overloaded, 0, "fleet refused work (seed {seed})");
}

#[test]
fn scripted_interleavings_stay_ordered_and_leak_free_through_the_fleet() {
    for seed in 0..12 {
        run_script(seed);
    }
}

/// The CI smoke: 8 clients hammer a shared 24-key duplicated pool —
/// 200 requests, 3 shards. Asserts the three fleet claims at once:
/// replies are wire-bit-identical to the serial engine, key affinity
/// keeps every distinct key cached on exactly one shard (the aggregate
/// fleet cache holds the whole pool with no double-caching), and the
/// drain is clean (every backend accounted for, nothing refused).
#[test]
fn duplicated_pool_smoke_affinity_and_identical_replies() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;
    const DISTINCT: usize = 24;

    let router = fleet(3, Duration::from_millis(5));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = router.client();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // Every client cycles the same pool, phase-shifted: all
                // duplication is cross-client by construction.
                let tags: Vec<usize> = (0..PER_CLIENT).map(|i| (c + i) % DISTINCT).collect();
                for &tag in &tags {
                    client.submit(query_for(0, tag));
                }
                let replies: Vec<(u64, Response)> =
                    (0..PER_CLIENT).map(|_| client.recv()).collect();
                (c, tags, replies)
            })
        })
        .collect();

    let pool: Vec<Query> = (0..DISTINCT).map(|tag| query_for(0, tag)).collect();
    let reference = Engine::default().run_batch(&pool).responses;
    for handle in handles {
        let (c, tags, replies) = handle.join().expect("client thread");
        for (i, ((seq, response), &tag)) in replies.iter().zip(&tags).enumerate() {
            assert_eq!(*seq, i as u64, "client {c} out of order");
            // Wire-level bit-identity: the rendered reply line through
            // the fleet equals the serial engine's rendered line.
            let got = jsonl::render_response(&pool[tag], response, WIRE_VERSION, i + 1);
            let want = jsonl::render_response(&pool[tag], &reference[tag], WIRE_VERSION, i + 1);
            assert_eq!(got, want, "client {c} slot {i}");
        }
    }

    // Key affinity: the fleet caches each distinct key exactly once.
    let resident = router.resident_keys();
    let total: usize = resident.iter().map(|(_, n)| n).sum();
    assert_eq!(total, DISTINCT, "affinity broken: {resident:?}");
    assert!(
        resident.iter().all(|&(_, n)| n > 0),
        "a shard owned no keys (24 keys over 3 shards): {resident:?}"
    );

    let stats = router.shutdown();
    assert_eq!(stats.len(), 3, "a backend vanished during drain");
    let completed: u64 = stats.iter().map(|(_, s)| s.completed).sum();
    assert_eq!(completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.iter().map(|(_, s)| s.overloaded).sum::<u64>(), 0);
    // Cross-client coalescing still happens on the far side of the
    // scatter: shards see micro-batches, not single requests.
    let batches: u64 = stats.iter().map(|(_, s)| s.batches).sum();
    assert!(batches < (CLIENTS * PER_CLIENT) as u64, "no shard ever coalesced");
}

//! Shard loss fails over, not disconnects.
//!
//! Killing a backend must (1) redispatch every retry-safe request in
//! flight on it to the key's ring successor, answering the *real*
//! result in the original reply slot, (2) leave requests in flight on
//! *other* shards untouched, (3) remap only the lost shard's keys
//! (consistent rebalance), and (4) keep every connection alive and
//! usable. Retry-unsafe requests (wall-clock measurements) instead
//! answer the documented `overloaded` refusal with a machine-readable
//! `retry_after_ms=` hint.

use parspeed_engine::{
    routing_hash, ArchKind, Engine, MachineSpec, PartitionShape, Query, Response, StencilSpec,
    WorkloadSpec,
};
use parspeed_router::ring::HashRing;
use parspeed_router::{Router, RouterConfig};
use parspeed_server::ServerConfig;
use std::time::Duration;

fn query(n: usize) -> Query {
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

/// A fleet whose backends hold requests in a long window, so the test
/// can race a kill against provably in-flight work.
fn slow_fleet(shards: usize) -> (Router, RouterConfig) {
    fleet(shards, Duration::from_millis(500))
}

/// A fleet that answers promptly (for tests that only need routing).
fn fast_fleet(shards: usize) -> (Router, RouterConfig) {
    fleet(shards, Duration::from_micros(200))
}

fn fleet(shards: usize, window: Duration) -> (Router, RouterConfig) {
    let config = RouterConfig {
        shards,
        backend: ServerConfig { window, max_batch: 4096, ..ServerConfig::default() },
        ..RouterConfig::default()
    };
    (Router::start(config), config)
}

/// Finds grid sides whose queries route to two different shards of a
/// 3-member ring, using the same pinned hash + ring the router uses.
fn two_shards_apart(config: &RouterConfig) -> ((usize, usize), (usize, usize)) {
    let ring = HashRing::with_shards(config.shards, config.replicas);
    let route = |n: usize| ring.route(routing_hash(&query(n))).unwrap();
    let a = 64;
    let b = (65..200).find(|&n| route(n) != route(a)).expect("some query routes elsewhere");
    ((a, route(a)), (b, route(b)))
}

#[test]
fn in_flight_requests_on_a_lost_shard_answer_in_slot() {
    let (router, config) = slow_fleet(3);
    let ((a, victim), (b, survivor)) = two_shards_apart(&config);
    assert_ne!(victim, survivor);

    let client = router.client();
    // Both in flight: a sits in the victim's window, b in the survivor's.
    for _ in 0..3 {
        client.submit(query(a));
    }
    client.submit(query(b));

    let stats = router.kill_shard(victim).expect("victim was live");
    assert!(stats.draining, "the lost backend was not drained");

    // Slots 0..3 fail over to the ring successor and answer the *real*
    // result — in order, in slot, bit-identical to a serial engine.
    let expect_a = Engine::default().run_batch(&[query(a)]).responses.remove(0);
    for i in 0..3u64 {
        let (seq, response) = client.recv();
        assert_eq!(seq, i);
        assert_eq!(response, expect_a, "slot {i}: failover must answer the real result");
    }
    // Slot 3 still gets its real answer from the surviving shard.
    let (seq, response) = client.recv();
    assert_eq!(seq, 3);
    assert_eq!(response, Engine::default().run_batch(&[query(b)]).responses.remove(0));

    // Every failover was counted.
    let snap = router.resilience().snapshot();
    assert_eq!(snap.retries, 3);
    assert_eq!(snap.failovers, 3);

    // No disconnect: the same connection reuses the lost key and the
    // ring re-routes it to a survivor.
    let retried = client.call(query(a));
    assert_eq!(retried, expect_a);

    // The rebalance removed exactly the victim.
    let members: Vec<usize> = router.resident_keys().iter().map(|&(s, _)| s).collect();
    assert_eq!(members.len(), 2);
    assert!(!members.contains(&victim));

    let final_stats = router.shutdown();
    assert_eq!(final_stats.len(), 2, "survivors drained: {final_stats:?}");
}

#[test]
fn only_the_lost_shards_keys_remap() {
    let (router, config) = fast_fleet(3);
    let ring = HashRing::with_shards(config.shards, config.replicas);
    // Warm the fleet with a key spread, remembering each key's shard.
    let sides: Vec<usize> = (64..96).collect();
    let client = router.client();
    for &n in &sides {
        client.call(query(n));
    }
    let owner =
        |n: usize, ring: &HashRing| ring.route(routing_hash(&query(n))).expect("nonempty ring");
    let before: Vec<usize> = sides.iter().map(|&n| owner(n, &ring)).collect();

    let victim = 1;
    router.kill_shard(victim);
    let mut rebalanced = ring.clone();
    rebalanced.remove(victim);
    // Keys that lived elsewhere keep their warm shard; the victim's
    // keys all land on survivors.
    for (&n, &was) in sides.iter().zip(&before) {
        let now = owner(n, &rebalanced);
        if was == victim {
            assert_ne!(now, victim, "n={n} still routes to the lost shard");
        } else {
            assert_eq!(now, was, "n={n} moved although its shard survived");
        }
        // And the router actually serves it post-loss.
        let response = client.call(query(n));
        assert!(matches!(response, Response::Single(Ok(_))), "n={n}: {response:?}");
    }
    router.shutdown();
}

#[test]
fn losing_every_shard_still_answers_in_slot() {
    let (router, _) = fast_fleet(2);
    let client = router.client();
    client.call(query(64));
    assert!(router.kill_shard(0).is_some());
    assert!(router.kill_shard(0).is_none(), "double kill reports already-gone");
    assert!(router.kill_shard(1).is_some());
    match client.call(query(64)) {
        Response::Invalid(e) => {
            assert_eq!(e.kind(), "overloaded");
            assert!(e.to_string().contains("no shard available"), "{e}");
        }
        other => panic!("unexpected {other:?}"),
    }
    let stats = router.shutdown();
    assert!(stats.is_empty(), "every backend was already drained by its kill");
}

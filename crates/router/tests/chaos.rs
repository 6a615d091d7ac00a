//! Deterministic fault injection against the fleet: a seeded
//! [`parspeed_chaos::FaultPlan`] kills shards, drops/duplicates/delays
//! replies, and wedges lanes at scripted request indices, and the
//! router's recovery machinery — failover with deterministic backoff,
//! deadlines answered in-slot, stall breakers with half-open probes —
//! must keep every reply slot answered and bit-identical where a real
//! result is possible. The same seed must replay the same event trace.
//! The breaker trips on stalls and on `internal` replies alike, and the
//! router's timer readmits a tripped shard at its probe time whether or
//! not traffic arrives.

use parspeed_chaos::FaultPlan;
use parspeed_engine::{
    jsonl, routing_hash, ArchKind, Engine, MachineSpec, PartitionShape, Query, Response,
    StencilSpec, WorkloadSpec,
};
use parspeed_router::ring::HashRing;
use parspeed_router::{BreakerPolicy, RetryPolicy, Router, RouterConfig};
use parspeed_server::ServerConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A wall-clock measurement: the one query class that must never be
/// silently retried.
fn threads_query(n: usize) -> Query {
    Query::Threads {
        n,
        stencil: StencilSpec::FivePoint,
        shape: PartitionShape::Strip,
        threads: vec![1],
        iters: 1,
        repeats: 1,
    }
}

fn fast_config(shards: usize) -> RouterConfig {
    RouterConfig {
        shards,
        backend: ServerConfig {
            window: Duration::from_micros(200),
            max_batch: 4096,
            ..ServerConfig::default()
        },
        ..RouterConfig::default()
    }
}

/// A grid side whose query routes to `shard` on the full ring.
fn side_on_shard(config: &RouterConfig, shard: usize) -> usize {
    let ring = HashRing::with_shards(config.shards, config.replicas);
    (64..4096)
        .find(|&n| ring.route(routing_hash(&query(n))) == Some(shard))
        .expect("some key routes to the shard")
}

/// Shard `shard`'s state word on the router-scoped `metrics` record.
fn breaker_state(router: &Router, shard: usize) -> String {
    let metrics = router.metrics();
    let Some(jsonl::Json::Arr(breakers)) = metrics.get("breakers") else {
        panic!("no breakers array")
    };
    breakers[shard].get("state").and_then(jsonl::Json::as_str).expect("state word").to_string()
}

/// Polls the `metrics` record until shard `shard` reports `want`.
fn wait_for_state(router: &Router, shard: usize, want: &str) {
    let start = Instant::now();
    while breaker_state(router, shard) != want {
        assert!(start.elapsed() < Duration::from_secs(10), "shard {shard} never went {want}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn scripted_kill_fails_over_and_stays_bit_identical() {
    let router = Router::start(fast_config(2));
    let plan = Arc::new(FaultPlan::parse("kill:0@3", 42).expect("plan parses"));
    router.install_fault_plan(Some(Arc::clone(&plan)));
    let client = router.client();
    let engine = Engine::default();
    // Closed loop across the kill: every reply must be the engine's own,
    // bit-for-bit — zero requests lost to the dying shard.
    for i in 0..6 {
        let q = query(64 + i);
        let expect = engine.run_batch(std::slice::from_ref(&q)).responses.remove(0);
        assert_eq!(client.call(q), expect, "request {i} diverged across the kill");
    }
    let events = plan.events();
    assert!(events.iter().any(|e| e.contains("shard 0 lost")), "{events:?}");
    let topo = router.topology().render();
    assert!(topo.contains(r#""lost":[0]"#), "{topo}");
    let stats = router.shutdown();
    assert_eq!(stats.len(), 1, "only the survivor drains at shutdown");
}

#[test]
fn expired_deadline_answers_in_slot_with_the_budget_kind() {
    let router = Router::start(fast_config(2));
    let client = router.client();
    match client.call_with_deadline(query(64), Instant::now()) {
        Response::Invalid(e) => {
            assert_eq!(e.kind(), "deadline_exceeded");
            assert!(e.to_string().contains("deadline"), "{e}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Nothing is poisoned: the same key without a deadline answers.
    assert!(matches!(client.call(query(64)), Response::Single(Ok(_))));
    assert_eq!(router.resilience().snapshot().deadline_missed, 1);
    router.shutdown();
}

#[test]
fn default_deadline_budget_applies_to_bare_submissions() {
    let config = RouterConfig { default_deadline: Some(Duration::ZERO), ..fast_config(2) };
    let router = Router::start(config);
    let client = router.client();
    match client.call(query(64)) {
        Response::Invalid(e) => assert_eq!(e.kind(), "deadline_exceeded"),
        other => panic!("unexpected {other:?}"),
    }
    router.shutdown();
}

#[test]
fn the_deadline_budget_travels_to_the_backend() {
    // One slow backend: the router dispatches instantly, the budget
    // expires inside the shard's batching window, and the *backend*
    // answers the deadline kind, which settles the router's slot.
    let config = RouterConfig {
        shards: 1,
        backend: ServerConfig {
            window: Duration::from_millis(150),
            workers: 1,
            ..ServerConfig::default()
        },
        ..RouterConfig::default()
    };
    let router = Router::start(config);
    let client = router.client();
    let response = client.call_with_deadline(query(64), Instant::now() + Duration::from_millis(20));
    match response {
        Response::Invalid(e) => assert_eq!(e.kind(), "deadline_exceeded"),
        other => panic!("unexpected {other:?}"),
    }
    router.shutdown();
}

#[test]
fn a_wedged_lane_trips_the_breaker_and_the_probe_recloses_it() {
    let mut config = fast_config(2);
    config.breaker = BreakerPolicy {
        failure_threshold: 3,
        probe_after: Duration::from_millis(100),
        stall_after: Duration::from_millis(40),
    };
    let victim = 0usize;
    let side = side_on_shard(&config, victim);
    let router = Router::start(config);
    let plan = Arc::new(FaultPlan::parse(&format!("wedge:{victim}@1"), 7).expect("plan parses"));
    router.install_fault_plan(Some(Arc::clone(&plan)));
    let client = router.client();
    let expect = Engine::default().run_batch(&[query(side)]).responses.remove(0);

    // Request 1 wedges its own lane: the stall breaker trips, the slot
    // fails over to the survivor, and the real result still answers.
    assert_eq!(client.call(query(side)), expect);
    let snap = router.resilience().snapshot();
    assert_eq!(snap.breaker_opened, 1);
    assert_eq!(snap.retries, 1);
    assert_eq!(snap.failovers, 1);

    // After the probe interval the shard is readmitted half-open; its
    // wedged-era reply was held back and its slot redispatched by the
    // trip, and the next healthy reply recloses the breaker.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(client.call(query(side)), expect);
    assert_eq!(router.resilience().snapshot().breaker_reclosed, 1);
    let events = plan.events();
    assert!(events.iter().any(|e| e.contains("breaker opened on shard 0")), "{events:?}");
    assert!(events.iter().any(|e| e.contains("readmitted half-open")), "{events:?}");
    assert!(events.iter().any(|e| e.contains("breaker reclosed on shard 0")), "{events:?}");
    router.shutdown();
}

#[test]
fn an_idle_router_readmits_a_tripped_shard_at_its_probe_time() {
    let mut config = fast_config(2);
    let (probe_after, stall_after) = (Duration::from_millis(100), Duration::from_millis(200));
    config.breaker = BreakerPolicy { failure_threshold: 3, probe_after, stall_after };
    let side = side_on_shard(&config, 0);
    let router = Router::start(config);
    let plan = FaultPlan::parse("wedge:0@1", 7).expect("plan parses");
    router.install_fault_plan(Some(Arc::new(plan)));
    let client = router.client();
    let expect = Engine::default().run_batch(&[query(side)]).responses.remove(0);

    // Request 1 wedges its own shard; the stall trips it, and the slot
    // answers from the survivor.
    assert_eq!(client.call(query(side)), expect);
    let tripped = Instant::now();
    assert_eq!(router.resilience().snapshot().breaker_opened, 1);
    assert_eq!(breaker_state(&router, 0), "open");

    // No request is sent from here on. The timer alone readmits the
    // shard, within one nap (`stall_after / 2`) of its probe time.
    let by = probe_after + stall_after / 2;
    while breaker_state(&router, 0) != "half-open" {
        let state = breaker_state(&router, 0);
        assert!(tripped.elapsed() < by, "still {state} {:?} after the trip", tripped.elapsed());
        std::thread::sleep(Duration::from_millis(1));
    }
    let topo = router.topology().render();
    assert!(topo.contains(r#""members":[0,1]"#), "{topo}");
    router.shutdown();
}

#[test]
fn internal_replies_trip_the_breaker_and_a_failed_probe_doubles_the_wait() {
    let mut config = fast_config(2);
    let probe_after = Duration::from_millis(100);
    config.breaker = BreakerPolicy {
        failure_threshold: 3,
        probe_after,
        stall_after: Duration::from_millis(200),
    };
    // Every shard's experiment runner panics, so the batcher's panic
    // shield answers every experiment with the `internal` kind.
    let router = Router::start_with(config, |_| {
        Arc::new(Engine::builder().experiment_runner(|_, _| panic!("experiment failed")).build())
    });
    let experiment = Query::Experiment { id: "e1".into(), quick: true };
    let ring = HashRing::with_shards(config.shards, config.replicas);
    let owner = ring.route(routing_hash(&experiment)).expect("nonempty ring");
    let client = router.client();
    let fails = |query: &Query| match client.call(query.clone()) {
        Response::Invalid(e) => assert_eq!(e.kind(), "internal", "{e}"),
        other => panic!("unexpected {other:?}"),
    };

    // Three `internal` replies in a row trip the owner.
    for _ in 0..3 {
        fails(&experiment);
    }
    assert_eq!(router.resilience().snapshot().breaker_opened, 1);
    assert_eq!(breaker_state(&router, owner), "open");

    // Readmitted half-open at its probe time, the owner fails its probe
    // and opens again, now for twice the interval.
    wait_for_state(&router, owner, "half-open");
    let probed = Instant::now();
    fails(&experiment);
    assert_eq!(router.resilience().snapshot().breaker_opened, 2);
    assert_eq!(breaker_state(&router, owner), "open");
    wait_for_state(&router, owner, "half-open");
    assert!(probed.elapsed() >= probe_after * 2, "reprobed after {:?}", probed.elapsed());

    // A healthy key on the owner recloses the breaker.
    let side = (64..4096)
        .find(|&n| ring.route(routing_hash(&query(n))) == Some(owner))
        .expect("some key routes to the owner");
    assert!(matches!(client.call(query(side)), Response::Single(Ok(_))));
    assert_eq!(router.resilience().snapshot().breaker_reclosed, 1);
    assert_eq!(breaker_state(&router, owner), "closed");
    router.shutdown();
}

#[test]
fn dropped_replies_retry_and_duplicates_are_suppressed() {
    let router = Router::start(fast_config(1));
    let plan = Arc::new(FaultPlan::parse("drop:0@1,dup:0@2", 3).expect("plan parses"));
    router.install_fault_plan(Some(Arc::clone(&plan)));
    let client = router.client();
    let expect = Engine::default().run_batch(&[query(64)]).responses.remove(0);
    assert_eq!(client.call(query(64)), expect, "a dropped reply must be retried");
    assert_eq!(client.call(query(64)), expect, "a duplicated reply must deliver exactly once");
    let snap = router.resilience().snapshot();
    assert_eq!(snap.replies_dropped, 1);
    assert_eq!(snap.duplicates_suppressed, 1);
    assert_eq!(snap.retries, 1);
    assert_eq!(snap.failovers, 0, "a same-shard retry is not a failover");
    router.shutdown();
}

#[test]
fn retry_unsafe_queries_refuse_with_a_retry_after_hint() {
    let mut config = fast_config(2);
    // A long window keeps the measurement provably in flight.
    config.backend.window = Duration::from_millis(300);
    let ring = HashRing::with_shards(config.shards, config.replicas);
    let tq = threads_query(32);
    let victim = ring.route(routing_hash(&tq)).expect("nonempty ring");
    let router = Router::start(config);
    let client = router.client();
    client.submit(tq);
    let stats = router.kill_shard(victim).expect("victim was live");
    assert!(stats.draining);
    let (_, response) = client.recv();
    match response {
        Response::Invalid(e) => {
            assert_eq!(e.kind(), "overloaded");
            let msg = e.to_string();
            assert!(msg.contains("not retry-safe"), "{msg}");
            let tail = msg.split("retry_after_ms=").nth(1).expect("machine-readable hint");
            let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
            assert!(digits.parse::<u64>().expect("numeric hint") >= 1, "{msg}");
        }
        other => panic!("unexpected {other:?}"),
    }
    router.shutdown();
}

#[test]
fn exhausted_attempts_refuse_with_the_rebalance_hint() {
    let mut config = fast_config(2);
    config.backend.window = Duration::from_millis(300);
    config.retry = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
    let side = side_on_shard(&config, 0);
    let router = Router::start(config);
    let client = router.client();
    client.submit(query(side));
    router.kill_shard(0).expect("victim was live");
    let (_, response) = client.recv();
    match response {
        Response::Invalid(e) => {
            assert_eq!(e.kind(), "overloaded");
            assert!(e.to_string().contains("attempts exhausted"), "{e}");
            assert!(e.to_string().contains("retry_after_ms="), "{e}");
        }
        other => panic!("unexpected {other:?}"),
    }
    router.shutdown();
}

#[test]
fn the_same_seed_replays_the_same_event_trace() {
    let run = || {
        let router = Router::start(fast_config(2));
        let plan =
            Arc::new(FaultPlan::parse("drop:0@2,dup:0@3,kill:1@5", 11).expect("plan parses"));
        router.install_fault_plan(Some(Arc::clone(&plan)));
        let client = router.client();
        for i in 0..6 {
            let _ = client.call(query(64 + i));
        }
        router.shutdown();
        plan.trace()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed + same traffic must replay identically");
    assert!(first.contains("shard 1 lost"), "{first}");
}

//! Everything that waits runs on the router's timer thread: a failover
//! backoff and a reply held by an injected `delay:S:MS` are deferred
//! there, never slept on a thread other requests wait on — neither the
//! event loop every connection shares nor the lane another shard's
//! replies cross. A shutdown still answers every slot the timer holds.

use parspeed_chaos::FaultPlan;
use parspeed_engine::{
    jsonl, routing_hash, ArchKind, Engine, MachineSpec, PartitionShape, Query, Response,
    StencilSpec, WorkloadSpec, WIRE_VERSION,
};
use parspeed_router::ring::HashRing;
use parspeed_router::{RetryPolicy, Router, RouterConfig};
use parspeed_server::ServerConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
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

fn line(n: usize) -> String {
    format!(
        r#"{{"op":"optimize","version":2,"arch":"sync-bus","n":{n},"stencil":"5pt","shape":"square","procs":32}}"#
    )
}

/// The reply line a serial engine renders for `query(n)` at `line_no`.
fn expected_line(n: usize, line_no: usize) -> String {
    let q = query(n);
    let response = Engine::default().run_batch(std::slice::from_ref(&q)).responses.remove(0);
    jsonl::render_response(&q, &response, WIRE_VERSION, line_no)
}

/// The first `query(n)` the ring routes to `shard`.
fn key_on(ring: &HashRing, shard: usize) -> usize {
    (64..4096)
        .find(|&n| ring.route(routing_hash(&query(n))) == Some(shard))
        .expect("some key routes to the shard")
}

/// Spins until the router's topology lists `shard` as lost.
fn wait_until_lost(router: &Router, shard: usize) {
    let start = Instant::now();
    loop {
        let topology = router.topology();
        let lost = match topology.get("lost") {
            Some(jsonl::Json::Arr(lost)) => lost.iter().any(|s| s.as_usize() == Some(shard)),
            _ => false,
        };
        if lost {
            return;
        }
        assert!(start.elapsed() < Duration::from_secs(10), "shard {shard} was never lost");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Reads one reply line.
fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    reply.trim_end().to_string()
}

#[test]
fn a_failover_backoff_never_blocks_another_connection() {
    let config = RouterConfig {
        shards: 3,
        // A window long enough that X provably sits in each shard's
        // batch when that shard dies.
        backend: ServerConfig {
            window: Duration::from_millis(100),
            max_batch: 4096,
            ..ServerConfig::default()
        },
        // The second failover backs off 200..=400 ms.
        retry: RetryPolicy { backoff_base_ms: 400, ..RetryPolicy::default() },
        ..RouterConfig::default()
    };
    let ring = HashRing::with_shards(config.shards, config.replicas);
    let x = 64;
    let owner = ring.route(routing_hash(&query(x))).expect("nonempty ring");
    let mut rebalanced = ring.clone();
    rebalanced.remove(owner);
    let successor = rebalanced.route(routing_hash(&query(x))).expect("two shards left");

    let mut router = Router::start(config);
    // Request 2 kills X's owner (X fails over at once); request 3 kills
    // the successor X failed over to (X backs off).
    let plan = FaultPlan::parse(&format!("kill:{owner}@2,kill:{successor}@3"), 5).expect("plan");
    router.install_fault_plan(Some(Arc::new(plan)));
    let addr = router.listen(("127.0.0.1", 0)).expect("bind");

    // Connection 1: X, then request 2 — one read, admitted in order.
    let mut first = TcpStream::connect(addr).expect("connect");
    first.write_all(format!("{}\n{}\n", line(x), line(65)).as_bytes()).expect("write");
    wait_until_lost(&router, owner);

    // Connection 2: request 3, whose admission fires the second kill.
    let mut second = TcpStream::connect(addr).expect("connect");
    second.write_all(format!("{}\n", line(66)).as_bytes()).expect("write");
    wait_until_lost(&router, successor);
    let killed = Instant::now();

    // Connection 3: a health probe answers at once, although X is
    // still waiting out its backoff.
    let start = Instant::now();
    let mut third = TcpStream::connect(addr).expect("connect");
    third.write_all(b"{\"op\":\"health\",\"version\":2}\n").expect("write");
    let health = read_reply(&mut BufReader::new(third));
    let took = start.elapsed();
    assert!(health.contains(r#""op":"health""#), "{health}");
    assert!(took < Duration::from_millis(50), "health waited {took:?} behind a backoff");

    // X answers bit-identical from the last shard, after its backoff.
    let mut reader = BufReader::new(first);
    assert_eq!(read_reply(&mut reader), expected_line(x, 1));
    assert!(killed.elapsed() >= Duration::from_millis(200), "X skipped its backoff");
    assert_eq!(read_reply(&mut reader), expected_line(65, 2));
    assert_eq!(read_reply(&mut BufReader::new(second)), expected_line(66, 1));
    let snap = router.resilience().snapshot();
    assert!(snap.failovers >= 2, "X failed over twice: {snap:?}");
    router.shutdown();
}

#[test]
fn a_delayed_reply_is_held_on_the_timer_alone() {
    let config = RouterConfig {
        shards: 2,
        backend: ServerConfig {
            window: Duration::from_micros(200),
            max_batch: 4096,
            ..ServerConfig::default()
        },
        ..RouterConfig::default()
    };
    let ring = HashRing::with_shards(config.shards, config.replicas);
    let (held, other) = (key_on(&ring, 0), key_on(&ring, 1));
    let router = Router::start(config);
    let plan = Arc::new(FaultPlan::parse("delay:0:200@1", 9).expect("plan parses"));
    router.install_fault_plan(Some(Arc::clone(&plan)));

    // Request 1 arms a 200 ms hold on lane 0 and is its next reply.
    let delayed = router.client();
    let start = Instant::now();
    delayed.submit(query(held));

    // A request to the other shard, submitted meanwhile, answers while
    // the held reply still waits.
    let engine = Engine::default();
    let bystander = router.client();
    let expect_other = engine.run_batch(&[query(other)]).responses.remove(0);
    assert_eq!(bystander.call(query(other)), expect_other);
    assert!(start.elapsed() < Duration::from_millis(200), "the bystander was held back");
    assert!(delayed.recv_timeout(Duration::ZERO).is_none(), "the delay was skipped");

    // The held reply answers bit-identical, and no earlier than 200 ms.
    let (_, response) = delayed.recv();
    assert!(start.elapsed() >= Duration::from_millis(200), "released after {:?}", start.elapsed());
    assert_eq!(response, engine.run_batch(&[query(held)]).responses.remove(0));
    let events = plan.events();
    assert!(events.iter().any(|e| e.contains("armed 200 ms reply delay on lane 0")), "{events:?}");
    router.shutdown();
}

#[test]
fn shutdown_answers_the_slots_the_timer_holds() {
    let config = RouterConfig {
        shards: 2,
        // The third attempt backs off 500..=1000 ms: the drain starts
        // well before it is due.
        retry: RetryPolicy { backoff_base_ms: 1000, ..RetryPolicy::default() },
        ..RouterConfig::default()
    };
    let ring = HashRing::with_shards(config.shards, config.replicas);
    let (held, retried) = (key_on(&ring, 0), key_on(&ring, 1));
    let router = Router::start(config);
    // Request 1's reply is held 600 ms; request 2's first two replies
    // are dropped, so its third attempt waits out a backoff.
    let plan = FaultPlan::parse("delay:0:600@1,drop:1@2,drop:1@2", 3).expect("plan parses");
    router.install_fault_plan(Some(Arc::new(plan)));
    let (a, b) = (router.client(), router.client());
    a.submit(query(held));
    b.submit(query(retried));
    // Shut down once both faults fired: the held reply is computed (its
    // key is cached) and the retry's second reply was dropped.
    let start = Instant::now();
    while router.resilience().snapshot().replies_dropped < 2
        || !router.resident_keys().iter().any(|&(shard, keys)| shard == 0 && keys > 0)
    {
        assert!(start.elapsed() < Duration::from_secs(10), "the faults never fired");
        std::thread::sleep(Duration::from_millis(1));
    }
    router.shutdown();
    // Every slot answers: the held reply bit-identical, the retry with
    // the drain's refusal.
    assert_eq!(a.recv().1, Engine::default().run_batch(&[query(held)]).responses.remove(0));
    match b.recv().1 {
        Response::Invalid(e) => assert!(e.to_string().contains("draining"), "{e}"),
        other => panic!("unexpected {other:?}"),
    }
}

//! The server's failure semantics: deadlines answered in-slot, the
//! worker panic shield, cache-only brownout degradation, and the
//! deterministic fault hook — all under the same contract as overload:
//! every admitted request is answered, in its own reply slot, and the
//! server survives.

use parspeed_chaos::FaultPlan;
use parspeed_engine::{
    ArchKind, Engine, MachineSpec, PartitionShape, Query, Response, StencilSpec, WorkloadSpec,
};
use parspeed_server::{BrownoutConfig, Server, ServerConfig};
use std::sync::Arc;
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

/// A request whose deadline expires while it queues answers the
/// `deadline_exceeded` kind in its own slot — the connection stays up
/// and the next request answers normally.
#[test]
fn expired_deadline_answers_in_slot_and_poisons_nothing() {
    // One worker, long window: the deadline provably expires in-queue.
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig { window: Duration::from_millis(120), workers: 1, ..ServerConfig::default() },
    );
    let client = server.client();
    let seq = client.submit_with_deadline(optimize(64), Some(Instant::now()));
    let (got, response) = client.recv();
    assert_eq!(got, seq);
    match response {
        Response::Invalid(e) => {
            assert_eq!(e.kind(), "deadline_exceeded");
            assert!(e.to_string().contains("deadline"), "{e}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Nothing is poisoned: an undeadlined request still answers.
    assert!(matches!(client.call(optimize(64)), Response::Single(Ok(_))));

    let missed = server.resilience().snapshot().deadline_missed;
    assert_eq!(missed, 1);
    let stats = server.shutdown();
    // Accounting holds: the missed slot still counts as answered.
    assert_eq!(stats.submitted, stats.completed + stats.overloaded);
}

/// A generous deadline never fires: the reply is the real result.
#[test]
fn generous_deadline_is_invisible() {
    let server = Server::start(Arc::new(Engine::default()), ServerConfig::default());
    let client = server.client();
    let response =
        client.call_with_deadline(optimize(256), Instant::now() + Duration::from_secs(60));
    assert!(matches!(response, Response::Single(Ok(_))), "{response:?}");
    assert_eq!(server.resilience().snapshot().deadline_missed, 0);
    server.shutdown();
}

/// An injected worker panic mid-batch is caught by the shield: every
/// slot of the doomed batch answers `internal`, the worker survives,
/// and the very next batch serves normally.
#[test]
fn worker_panic_answers_every_slot_and_the_worker_survives() {
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig { workers: 1, ..ServerConfig::default() },
    );
    let plan = Arc::new(FaultPlan::parse("panic@1", 7).expect("plan parses"));
    server.install_fault_plan(Some(Arc::clone(&plan)));

    let client = server.client();
    match client.call(optimize(64)) {
        Response::Invalid(e) => {
            assert_eq!(e.kind(), "internal");
            assert!(e.to_string().contains("panicked"), "{e}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The lone worker survived the panic: it still serves.
    assert!(matches!(client.call(optimize(128)), Response::Single(Ok(_))));

    assert_eq!(server.resilience().snapshot().worker_panics, 1);
    let events = plan.events();
    assert!(events.iter().any(|e| e.contains("worker panic caught")), "{events:?}");
    let stats = server.shutdown();
    assert_eq!(stats.submitted, stats.completed + stats.overloaded);
}

/// A shielded batch still counts as a batch: it posts the same batch
/// counters as a served one, and none of the engine's telemetry, since
/// the engine never reported any. The next served batch adds both.
#[test]
fn shielded_batch_posts_batch_counters_but_no_engine_telemetry() {
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig { workers: 1, ..ServerConfig::default() },
    );
    let plan = Arc::new(FaultPlan::parse("panic@1", 7).expect("plan parses"));
    server.install_fault_plan(Some(plan));
    let client = server.client();

    assert!(matches!(client.call(optimize(64)), Response::Invalid(_)));
    let shielded = server.stats();
    assert_eq!(
        (shielded.batches, shielded.batched_requests, shielded.max_batch_fill, shielded.completed),
        (1, 1, 1, 1)
    );
    assert_eq!((shielded.atoms, shielded.unique, shielded.engine_nanos), (0, 0, 0));

    assert!(matches!(client.call(optimize(128)), Response::Single(Ok(_))));
    let served = server.shutdown();
    assert_eq!((served.batches, served.batched_requests, served.completed), (2, 2, 2));
    assert_eq!((served.atoms, served.unique), (1, 1));
    assert!(served.engine_nanos > 0);
}

/// Under queue pressure past the enter watermark, brownout sheds cold
/// requests as `overloaded` while cached ones still answer; once the
/// queue falls to the exit watermark, full service resumes.
#[test]
fn brownout_serves_warm_keys_and_sheds_cold_ones() {
    let engine = Arc::new(Engine::default());
    // Warm one key through the engine directly.
    engine.run_batch(&[optimize(256)]);

    let server = Server::start(
        Arc::clone(&engine),
        ServerConfig {
            // A window long enough that submissions pile up in-queue.
            window: Duration::from_secs(600),
            workers: 1,
            brownout: Some(BrownoutConfig { enter: 2, exit: 0 }),
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    // Two cold-but-admitted requests reach the enter watermark.
    client.submit(optimize(300));
    client.submit(optimize(301));
    // The queue now sits at the watermark: the next submission flips
    // brownout on. A cold key sheds...
    client.submit(optimize(302));
    // ...while the warm key still answers (admitted through brownout).
    client.submit(optimize(256));

    let snap = server.resilience().snapshot();
    assert_eq!(snap.shed, 1, "exactly the cold request sheds");
    let metrics = server.metrics();
    assert!(metrics.brownout, "brownout flag rides the metrics snapshot");
    assert_eq!(metrics.resilience.shed, 1);

    let stats = server.shutdown();
    assert_eq!(stats.overloaded, 1);
    let mut kinds = Vec::new();
    for _ in 0..4 {
        let (_, response) = client.recv();
        kinds.push(match response {
            Response::Single(Ok(_)) => "ok",
            Response::Invalid(e) if e.kind() == "overloaded" => {
                assert!(e.to_string().contains("brownout"), "{e}");
                "shed"
            }
            other => panic!("unexpected {other:?}"),
        });
    }
    assert_eq!(kinds, ["ok", "ok", "shed", "ok"]);
}

/// The fault plan's event trace is deterministic: the same seed and the
/// same traffic produce the same trace, twice.
#[test]
fn fault_plan_trace_is_reproducible() {
    let run = || {
        let server = Server::start(
            Arc::new(Engine::default()),
            ServerConfig { workers: 1, ..ServerConfig::default() },
        );
        let plan = Arc::new(FaultPlan::parse("delay:0:1@2,panic@4", 99).expect("plan parses"));
        server.install_fault_plan(Some(Arc::clone(&plan)));
        let client = server.client();
        for i in 0..5 {
            let _ = client.call(optimize(64 + i));
        }
        server.shutdown();
        plan.trace()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed + same traffic must replay identically");
    assert!(first.contains("armed worker panic"), "{first}");
    assert!(first.contains("armed 1 ms delay"), "{first}");
}

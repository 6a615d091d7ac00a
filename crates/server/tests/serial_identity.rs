//! Property test: any concurrent submission schedule of N clients × M
//! requests is answer-bit-identical to the same requests run serially
//! through `Engine::run_batch`.
//!
//! This is the serving-layer extension of the engine's PR-2
//! shuffled-duplicated-batch property (`crates/engine/tests/
//! service_properties.rs`): instead of shuffling one batch, the schedule
//! shuffles *ownership* — the pool's queries are dealt across client
//! threads that submit concurrently through the micro-batcher, so the
//! engine sees nondeterministic coalescings of the same traffic. Every
//! reply must still be bit-for-bit the response a caller would get from
//! one serial `run_batch` over their own request list.
//!
//! The pool cycles every `Query` kind with a deterministic answer:
//! `Optimize`, `MinSize`, `Isoefficiency`, `Leverage`, `Sweep`,
//! `Table1`, `Compare`, `Simulate`, `Solve`, and `Experiment` (which
//! answers the `unsupported` error — the serving engine registers no
//! experiment runner — in its slot, deterministically). `Threads` is the
//! one exclusion: it is a wall-clock measurement, nondeterministic by
//! definition, so bit-identity is not a meaningful property for it.

use parspeed_engine::{jsonl, Engine, Query, Response};
use parspeed_server::{Server, ServerConfig};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Every deterministic query kind, smallest instances that still
/// exercise real code paths.
fn pool() -> Vec<Query> {
    [
        r#"{"op":"optimize","arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}"#,
        r#"{"op":"optimize","arch":"hypercube","n":512,"stencil":"5pt","shape":"square"}"#,
        r#"{"op":"minsize","variant":"sync-square","e":6.0,"k":1.0,"procs":14}"#,
        r#"{"op":"isoeff","arch":"sync-bus","stencil":"5pt","shape":"square","procs":16,"efficiency":0.5}"#,
        r#"{"op":"leverage","n":128,"stencil":"5pt","shape":"square","lever":"bus","factor":2.0}"#,
        r#"{"op":"sweep","arch":["sync-bus"],"stencil":"5pt","shape":["square"],"n_from":32,"n_to":128}"#,
        r#"{"op":"table1","n":128}"#,
        r#"{"op":"compare","n":64,"stencil":"5pt","shape":"square","procs":16}"#,
        r#"{"op":"simulate","arch":"sync-bus","n":32,"stencil":"5pt","shape":"strip","procs":2}"#,
        r#"{"op":"solve","n":15,"solver":"cg","tol":1e-6,"max_iters":10000}"#,
        r#"{"op":"experiment","id":"e1","quick":true}"#,
    ]
    .iter()
    .map(|line| jsonl::parse_query(line).expect("pool lines parse").query)
    .collect()
}

proptest! {
    #[test]
    fn concurrent_schedules_are_bit_identical_to_serial_run_batch(
        seed in 0u64..1_000_000,
        clients in 1usize..5,
        per_client in 1usize..8,
    ) {
        // Deal each client a request list from the pool (seeded LCG, so
        // schedules duplicate queries across clients).
        let pool = pool();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let lists: Vec<Vec<Query>> = (0..clients)
            .map(|_| (0..per_client).map(|_| pool[next() % pool.len()].clone()).collect())
            .collect();

        // The serial reference: each client's list through a plain
        // engine, no server anywhere near it.
        let reference = Engine::default();
        let expected: Vec<Vec<Response>> =
            lists.iter().map(|list| reference.run_batch(list).responses).collect();

        // The concurrent schedule: one thread per client, barrier-
        // released, pipelining its whole list through the micro-batcher.
        let server = Server::start(
            Arc::new(Engine::default()),
            ServerConfig {
                window: Duration::from_micros(200),
                max_batch: 32,
                workers: 3,
                queue_depth: 4096,
                ..ServerConfig::default()
            },
        );
        let barrier = Arc::new(Barrier::new(clients));
        let handles: Vec<_> = lists
            .iter()
            .map(|list| {
                let client = server.client();
                let list = list.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for query in &list {
                        client.submit(query.clone());
                    }
                    (0..list.len()).map(|_| client.recv()).collect::<Vec<_>>()
                })
            })
            .collect();
        for (c, handle) in handles.into_iter().enumerate() {
            let replies = handle.join().expect("client thread");
            prop_assert_eq!(replies.len(), expected[c].len());
            for (i, (seq, response)) in replies.iter().enumerate() {
                prop_assert_eq!(*seq, i as u64, "client {} replies out of order", c);
                prop_assert_eq!(
                    response,
                    &expected[c][i],
                    "client {} slot {} differs from serial run_batch (seed {})",
                    c, i, seed
                );
            }
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.completed as usize, clients * per_client);
        prop_assert_eq!(stats.overloaded, 0);
    }
}

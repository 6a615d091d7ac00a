//! Wire robustness over real TCP: malformed JSONL mid-stream answers an
//! error slot on *that* connection only and never poisons the batcher or
//! other clients; v1-versioned lines get the same deprecation path as
//! file mode (accepted, answered in legacy shape, counted); the
//! serving-only `stats` op answers a live telemetry snapshot.

use parspeed_engine::jsonl;
use parspeed_engine::Engine;
use parspeed_server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start_tcp_server() -> (Server, SocketAddr) {
    let mut server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig {
            window: Duration::from_micros(300),
            max_batch: 64,
            workers: 2,
            queue_depth: 4096,
            ..ServerConfig::default()
        },
    );
    let addr = server.listen(("127.0.0.1", 0)).expect("bind");
    (server, addr)
}

/// Writes `lines`, half-closes, and reads every reply line until the
/// server closes its side — i.e. the full, ordered reply stream.
fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for line in lines {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream).lines().map(|l| l.expect("read")).collect()
}

const GOOD_V2: &str = r#"{"op":"table1","version":2,"n":64,"stencil":"5pt"}"#;
const GOOD_V1: &str = r#"{"op":"minsize","variant":"sync-square","e":6.0,"k":1.0,"procs":14}"#;

#[test]
fn malformed_line_mid_stream_poisons_nothing() {
    let (server, addr) = start_tcp_server();

    // Client A interleaves garbage between good lines — including a
    // 1 MB line nested past the parser's depth cap, and the router-only
    // ops, which a server must answer as unknown; client B sends only
    // good lines, concurrently.
    let a = std::thread::spawn(move || {
        let deep = format!("{}{}", "[".repeat(500_000), "]".repeat(500_000));
        roundtrip(
            addr,
            &[
                GOOD_V2,
                "this is not json",
                GOOD_V2,
                r#"{"op":"frobnicate","version":2}"#,
                GOOD_V2,
                &deep,
                GOOD_V2,
                r#"{"op":"topology","version":2}"#,
                r#"{"op":"warmup","version":2}"#,
                GOOD_V2,
            ],
        )
    });
    let b = std::thread::spawn(move || roundtrip(addr, &[GOOD_V2; 5]));
    let a = a.join().unwrap();
    let b = b.join().unwrap();

    assert_eq!(a.len(), 10, "connection A lost replies: {a:?}");
    for (i, line) in a.iter().enumerate() {
        let v = jsonl::parse(line).expect("reply is JSON");
        match i {
            1 => {
                // Raw garbage: not JSON at all, so there is no version
                // field to honor — the reply answers in the *current*
                // wire shape (version + machine-readable error_kind),
                // carrying this connection's 1-based line number. It
                // used to answer in the legacy v1 shape, which stranded
                // v2 clients without the error_kind machinery.
                assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(false)), "{line}");
                assert_eq!(v.get("version").unwrap().as_usize(), Some(2), "{line}");
                assert_eq!(v.get("error_kind").unwrap().as_str(), Some("parse"), "{line}");
                assert_eq!(v.get("line").unwrap().as_usize(), Some(2), "{line}");
            }
            3 | 7 | 8 => {
                // Well-formed JSON, unknown op, declared v2 → v2 error
                // shape with the machine-readable kind. `topology` and
                // `warmup` are router ops: a server does not know them.
                assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(false)), "{line}");
                assert_eq!(v.get("error_kind").unwrap().as_str(), Some("parse"), "{line}");
                assert_eq!(v.get("line").unwrap().as_usize(), Some(i + 1), "{line}");
                assert!(line.contains("unknown op"), "{line}");
            }
            5 => {
                // Nested past the depth cap: not parseable JSON, so the
                // current wire shape, with an error that names the cap.
                assert_eq!(v.get("version").unwrap().as_usize(), Some(2), "{line}");
                assert_eq!(v.get("error_kind").unwrap().as_str(), Some("parse"), "{line}");
                assert_eq!(v.get("line").unwrap().as_usize(), Some(6), "{line}");
                assert!(line.contains("-level limit"), "{line}");
            }
            _ => {
                assert_eq!(
                    v.get("ok"),
                    Some(&jsonl::Json::Bool(true)),
                    "slot {i} poisoned: {line}"
                );
                assert_eq!(v.get("op").unwrap().as_str(), Some("table1"));
            }
        }
    }
    assert_eq!(b.len(), 5, "connection B lost replies: {b:?}");
    for line in &b {
        let v = jsonl::parse(line).expect("reply is JSON");
        assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(true)), "connection B poisoned: {line}");
    }

    let stats = server.shutdown();
    // 10 good queries answered; A's five bad lines answered outside the
    // batcher and never counted as admitted work.
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.submitted, 10);
}

#[test]
fn v1_lines_over_tcp_get_the_file_mode_deprecation_path() {
    let (server, addr) = start_tcp_server();
    let replies = roundtrip(addr, &[GOOD_V1, GOOD_V2, GOOD_V1]);
    assert_eq!(replies.len(), 3);

    // v1 requests answer in the legacy v1 shape: no version field, no
    // error_kind machinery — exactly what `parspeed batch` renders.
    for line in [&replies[0], &replies[2]] {
        let v = jsonl::parse(line).unwrap();
        assert_eq!(v.get("version"), None, "v1 reply grew a version field: {line}");
        assert_eq!(v.get("op").unwrap().as_str(), Some("minsize"));
        assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(true)));
    }
    // The v2 line on the same connection still answers in v2 shape.
    let v = jsonl::parse(&replies[1]).unwrap();
    assert_eq!(v.get("version").unwrap().as_usize(), Some(2));

    let stats = server.shutdown();
    assert_eq!(stats.v1_lines, 2, "deprecated lines not counted: {stats}");
}

#[test]
fn stats_op_answers_a_live_snapshot_without_entering_the_batcher() {
    let (server, addr) = start_tcp_server();
    let replies = roundtrip(addr, &[GOOD_V2, r#"{"op":"stats"}"#]);
    assert_eq!(replies.len(), 2);
    let v = jsonl::parse(&replies[1]).unwrap();
    assert_eq!(v.get("op").unwrap().as_str(), Some("stats"));
    assert_eq!(v.get("version").unwrap().as_usize(), Some(2));
    // The stats line reflects this connection's own earlier request.
    assert_eq!(v.get("submitted").unwrap().as_usize(), Some(1));
    assert_eq!(v.get("connections").unwrap().as_usize(), Some(1));
    assert!(v.get("avg_batch_fill").unwrap().as_f64().is_some());
    assert_eq!(v.get("draining"), Some(&jsonl::Json::Bool(false)));
    server.shutdown();
}

#[test]
fn unsupported_future_version_answers_in_its_slot_only() {
    let (server, addr) = start_tcp_server();
    let replies =
        roundtrip(addr, &[r#"{"op":"table1","version":7,"n":64,"stencil":"5pt"}"#, GOOD_V2]);
    assert_eq!(replies.len(), 2);
    let v = jsonl::parse(&replies[0]).unwrap();
    assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(false)));
    assert!(replies[0].contains("version"), "{}", replies[0]);
    let v = jsonl::parse(&replies[1]).unwrap();
    assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(true)));
    server.shutdown();
}

#[test]
fn huge_deadline_budget_saturates_instead_of_killing_the_connection() {
    let (server, addr) = start_tcp_server();
    // `Instant + u64::MAX ms` overflows; before the `checked_add` clamp
    // this panicked the whole event loop, silently dropping the
    // connection — and every connection after it. Now an unrepresentable budget means "no
    // deadline": the request evaluates, and later lines still answer.
    let huge = format!(
        r#"{{"op":"table1","version":2,"n":64,"stencil":"5pt","deadline_ms":{}}}"#,
        u64::MAX
    );
    let almost = format!(
        r#"{{"op":"table1","version":2,"n":64,"stencil":"5pt","deadline_ms":{}}}"#,
        u64::MAX - 1
    );
    let replies = roundtrip(addr, &[&huge, &almost, GOOD_V2]);
    assert_eq!(replies.len(), 3, "connection died on the huge deadline: {replies:?}");
    for line in &replies {
        let v = jsonl::parse(line).expect("reply is JSON");
        assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(true)), "{line}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
}

#[test]
fn an_oversized_sweep_answers_in_its_slot_and_the_server_keeps_serving() {
    let (server, addr) = start_tcp_server();
    // Four 30-long axes and seven doubling sides: 30⁴ × 7 = 5.67 M points
    // from a 961-byte line. Expanded, they are gigabytes, so the planner
    // counts them first and refuses the line in its slot.
    let axis = |item: &str| vec![item; 30].join(",");
    let sweep = format!(
        r#"{{"op":"sweep","version":2,"arch":[{}],"stencil":[{}],"shape":[{}],"procs":[{}],"n_from":64,"n_to":4096}}"#,
        axis(r#""sync-bus""#),
        axis(r#""5pt""#),
        axis(r#""square""#),
        axis("16"),
    );
    assert_eq!(sweep.len(), 961);
    let replies = roundtrip(addr, &[&sweep, GOOD_V2]);
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].contains(r#""error_kind":"invalid_request""#), "{}", replies[0]);
    let v = jsonl::parse(&replies[1]).unwrap();
    assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(true)), "{}", replies[1]);
    // A new connection is still served.
    let again = roundtrip(addr, &[GOOD_V2]);
    assert_eq!(again, replies[1..]);
    server.shutdown();
}

#[test]
fn health_keeps_the_frozen_prefix_and_appends_brownout() {
    let (server, addr) = start_tcp_server();
    let replies = roundtrip(addr, &[r#"{"op":"health","version":2}"#]);
    assert_eq!(replies.len(), 1, "{replies:?}");
    let jsonl::Json::Obj(fields) = jsonl::parse(&replies[0]).unwrap() else {
        panic!("health is not an object: {}", replies[0]);
    };
    // The original six fields stay first, in order — positional probes
    // of the pre-brownout record keep working; new fields only append.
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["version", "op", "ok", "uptime_seconds", "draining", "shard", "brownout"],
        "{}",
        replies[0]
    );
    assert!(replies[0].contains(r#""brownout":false"#), "{}", replies[0]);
    server.shutdown();
}

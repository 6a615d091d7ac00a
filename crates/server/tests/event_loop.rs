//! The event-loop frontend under load, over real TCP: one loop thread
//! holds a thousand concurrent connections at flat memory, a stalled
//! reader is shed with in-slot `overloaded` answers instead of stalling
//! the loop or its neighbours, and lines trickled in over many reads
//! frame exactly as whole ones.

use parspeed_engine::jsonl;
use parspeed_engine::{
    jsonl::render_response, ArchKind, Engine, MachineSpec, PartitionShape, Query, StencilSpec,
    WorkloadSpec, WIRE_VERSION,
};
use parspeed_server::{EventLoopConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(cfg: ServerConfig) -> (Server, SocketAddr) {
    let mut server = Server::start(Arc::new(Engine::default()), cfg);
    let addr = server.listen(("127.0.0.1", 0)).expect("bind");
    (server, addr)
}

fn base_config() -> ServerConfig {
    ServerConfig {
        window: Duration::from_micros(300),
        max_batch: 128,
        workers: 2,
        queue_depth: 65_536,
        ..ServerConfig::default()
    }
}

/// Reads a `/proc/self/status` field (kB for the Vm* lines).
fn proc_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// The three distinct queries every soak connection sends, in order —
/// distinct so that reply *content* proves per-connection ordering, not
/// just reply *count*.
fn soak_queries() -> Vec<Query> {
    [64usize, 128, 256]
        .iter()
        .map(|&n| Query::Optimize {
            arch: ArchKind::SyncBus,
            machine: MachineSpec::default(),
            workload: WorkloadSpec {
                n,
                stencil: StencilSpec::FivePoint,
                shape: PartitionShape::Square,
            },
            procs: Some(64),
            memory_words: None,
        })
        .collect()
}

fn soak_lines() -> Vec<String> {
    [64usize, 128, 256]
        .iter()
        .map(|&n| {
            format!(
                r#"{{"op":"optimize","version":2,"arch":"sync-bus","n":{n},"stencil":"5pt","shape":"square","procs":64}}"#
            )
        })
        .collect()
}

/// One loop thread, a thousand live connections, zero dropped replies,
/// byte-exact per-connection ordering, and flat memory while the tail
/// 900 connections are served. Quick mode: small requests, heavy dedup,
/// so the soak is load on the *frontend*, not the engine.
#[test]
fn soak_one_thousand_connections_flat_memory_no_drops() {
    const CONNS: usize = 1000;
    let (server, addr) = start_server(base_config());

    // The serial engine renders the reference replies: the soak must be
    // bit-identical to it, per connection, in order.
    let engine = Engine::default();
    let queries = soak_queries();
    let expected: Vec<String> = queries
        .iter()
        .map(|q| {
            let response = engine.run_batch(std::slice::from_ref(q)).responses.remove(0);
            render_response(q, &response, WIRE_VERSION, 1)
        })
        .collect();
    let lines = soak_lines();

    // Phase 1: open every connection and write its full request stream.
    // Requests are small (three ~100-byte lines per connection) so the
    // writes never fill a socket buffer and never deadlock against the
    // unread replies.
    let mut streams = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        for line in &lines {
            stream.write_all(line.as_bytes()).expect("write");
            stream.write_all(b"\n").expect("write");
        }
        stream.shutdown(Shutdown::Write).expect("half-close");
        streams.push(stream);
    }

    // A thousand concurrent connections on the default frontend must
    // not mean two thousand frontend threads. The whole process —
    // harness, workers, and every *other* test running in this binary —
    // stays far below what thread-per-connection would need.
    let threads = proc_status("Threads");
    assert!(
        threads < 300,
        "{threads} threads while {CONNS} connections are open — \
         thread-per-connection is back"
    );

    // Phase 2: drain the first 100 connections, then measure RSS, then
    // drain the remaining 900. Serving those 900 reuses per-connection
    // buffers already sized by the first wave: memory stays flat.
    let drain = |stream: &mut TcpStream, i: usize| {
        let replies: Vec<String> =
            BufReader::new(stream).lines().map(|l| l.expect("read")).collect();
        assert_eq!(replies.len(), lines.len(), "connection {i} dropped replies: {replies:?}");
        for (j, (got, want)) in replies.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "connection {i}, reply {j} out of order or corrupted");
        }
    };
    for (i, stream) in streams.iter_mut().take(100).enumerate() {
        drain(stream, i);
    }
    let rss_after_first_wave = proc_status("VmRSS");
    for (i, stream) in streams.iter_mut().enumerate().skip(100) {
        drain(stream, i);
    }
    let rss_after_soak = proc_status("VmRSS");
    let growth_kib = rss_after_soak.saturating_sub(rss_after_first_wave);
    assert!(
        growth_kib < 64 * 1024,
        "RSS grew {growth_kib} KiB while serving the tail 900 connections \
         ({rss_after_first_wave} -> {rss_after_soak} KiB) — per-connection state is not flat"
    );
    drop(streams);

    let stats = server.shutdown();
    assert_eq!(stats.completed, (CONNS * lines.len()) as u64, "dropped work: {stats}");
    assert_eq!(stats.overloaded, 0, "soak shed requests: {stats}");
}

/// A client that stops reading its replies gets *shed*, not serviced
/// into an unbounded buffer and not stalled into a dead loop: once its
/// write backlog crosses the shed watermark, new engine-bound lines
/// answer `overloaded` in their own slots, a neighbouring connection
/// keeps full round-trip service, and when the stalled client finally
/// reads, every reply — real and shed alike — arrives in input order.
#[test]
fn slow_reader_is_shed_as_overloaded_without_stalling_others() {
    // Watermarks far apart: reads never pause (stop is above the whole
    // backlog this test can build), so every line is *parsed* and the
    // shed path — not the read-pause path — is what answers.
    let (server, addr) = start_server(ServerConfig {
        event_loop: EventLoopConfig {
            shed_watermark: 64 * 1024,
            stop_watermark: 64 * 1024 * 1024,
            ..EventLoopConfig::default()
        },
        ..base_config()
    });

    // Loopback TCP absorbs ~4 MiB in kernel buffers before the server's
    // own write buffer backs up; ~16k table1 replies (~550 bytes each,
    // one engine evaluation thanks to dedup) build ~9 MiB — the backlog
    // lands well past the shed watermark no matter how the kernel
    // autotunes.
    const BURST1: usize = 16_000;
    const BURST2: usize = 5;
    let request = r#"{"op":"table1","version":2,"n":64,"stencil":"5pt"}"#;

    let mut slow = TcpStream::connect(addr).expect("connect slow");
    let mut burst = String::new();
    for _ in 0..BURST1 {
        burst.push_str(request);
        burst.push('\n');
    }
    slow.write_all(burst.as_bytes()).expect("write burst 1");

    // A healthy neighbour polls `stats` round-trips the whole time the
    // slow client's backlog grows — the loop never stalls on the
    // blocked socket. Poll until every burst-1 line is answered:
    // `completed` counts engine answers, `overloaded` counts lines the
    // backlog shed mid-flood once it crossed the watermark (shedding
    // *during* the burst is the mechanism working, not a failure).
    let mut healthy = TcpStream::connect(addr).expect("connect healthy");
    let mut healthy_reader = BufReader::new(healthy.try_clone().expect("clone"));
    let poll_stats = |w: &mut TcpStream, r: &mut BufReader<TcpStream>| -> jsonl::Json {
        w.write_all(b"{\"op\":\"stats\"}\n").expect("write stats");
        let mut line = String::new();
        r.read_line(&mut line).expect("read stats");
        jsonl::parse(&line).expect("stats is JSON")
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = poll_stats(&mut healthy, &mut healthy_reader);
        let completed = stats.get("completed").unwrap().as_usize().unwrap();
        let overloaded = stats.get("overloaded").unwrap().as_usize().unwrap();
        if completed + overloaded == BURST1 {
            break;
        }
        assert!(Instant::now() < deadline, "burst 1 never fully answered: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The wake that delivered the last reply also pumps it into the
    // connection's write buffer; one tick of margin makes sure the
    // backlog accounting the shed verdict reads is settled.
    std::thread::sleep(Duration::from_millis(100));

    // Burst 2 on the stalled connection: every line must be refused
    // in-slot with the machine-readable `overloaded` kind — the reply
    // names the unread backlog, not a queue, as the reason.
    let mut burst2 = String::new();
    for _ in 0..BURST2 {
        burst2.push_str(request);
        burst2.push('\n');
    }
    slow.write_all(burst2.as_bytes()).expect("write burst 2");
    slow.shutdown(Shutdown::Write).expect("half-close");

    // The neighbour still has full service while the slow client is
    // backed up — shedding is per-connection, not global.
    let stats = poll_stats(&mut healthy, &mut healthy_reader);
    assert_eq!(stats.get("op").unwrap().as_str(), Some("stats"));
    healthy.shutdown(Shutdown::Write).expect("half-close healthy");

    // The slow client finally reads: one reply per line, in input
    // order, none lost. Burst 1 is a mix — real answers until the
    // backlog crossed the watermark, in-slot sheds after — and burst 2
    // is shed entirely (the backlog was still unread when it arrived).
    let replies: Vec<String> = BufReader::new(slow).lines().map(|l| l.expect("read")).collect();
    assert_eq!(replies.len(), BURST1 + BURST2, "lost replies: got {}", replies.len());
    let mut real = 0usize;
    let mut shed = 0usize;
    for (i, line) in replies.iter().enumerate() {
        // Real answers and sheds may interleave mid-flood (the verdict
        // tracks the live backlog, which breathes as the socket drains)
        // — the slot numbers below are what pin the ordering.
        if line.contains(r#""ok":true"#) {
            real += 1;
            continue;
        }
        let v = jsonl::parse(line).expect("reply is JSON");
        assert_eq!(
            v.get("error_kind").unwrap().as_str(),
            Some("overloaded"),
            "reply {i} has the wrong kind: {line}"
        );
        // Slot numbers prove the shed answers sit exactly where their
        // requests were.
        assert_eq!(v.get("line").unwrap().as_usize(), Some(i + 1), "reply {i}: {line}");
        let msg = v.get("error").unwrap().as_str().unwrap_or_default();
        assert!(msg.contains("write buffer full"), "shed reason does not name the backlog: {line}");
        shed += 1;
    }
    assert!(real > 0, "nothing was served before the backlog built");
    assert!(shed >= BURST2, "burst 2 was admitted despite the unread backlog");
    assert_eq!(real + shed, BURST1 + BURST2);
    // Burst 2 specifically — sent after the backlog was known unread —
    // must have been shed to the last line.
    for (i, line) in replies.iter().skip(BURST1).enumerate() {
        assert!(
            line.contains(r#""error_kind":"overloaded""#),
            "burst-2 line {i} was admitted despite the backlog: {line}"
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, real as u64, "{stats}");
    assert_eq!(stats.overloaded, shed as u64, "{stats}");
}

/// An oversize request line answers a parse error in its slot and the
/// connection keeps working — the loop discards to the next newline
/// instead of buffering without bound or killing the stream.
#[test]
fn oversize_line_answers_in_slot_and_connection_survives() {
    let (server, addr) = start_server(ServerConfig {
        event_loop: EventLoopConfig { max_line: 4096, ..EventLoopConfig::default() },
        ..base_config()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let huge = format!("{{\"op\":\"table1\",\"pad\":\"{}\"\n", "x".repeat(64 * 1024));
    stream.write_all(huge.as_bytes()).expect("write oversize");
    stream
        .write_all(b"{\"op\":\"table1\",\"version\":2,\"n\":64,\"stencil\":\"5pt\"}\n")
        .expect("write good");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let replies: Vec<String> = BufReader::new(stream).lines().map(|l| l.expect("read")).collect();
    assert_eq!(replies.len(), 2, "{replies:?}");
    let v = jsonl::parse(&replies[0]).expect("reply is JSON");
    assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(false)), "{}", replies[0]);
    assert_eq!(v.get("error_kind").unwrap().as_str(), Some("parse"), "{}", replies[0]);
    assert_eq!(v.get("line").unwrap().as_usize(), Some(1), "{}", replies[0]);
    assert!(replies[0].contains("4096-byte limit"), "{}", replies[0]);
    let v = jsonl::parse(&replies[1]).expect("reply is JSON");
    assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(true)), "{}", replies[1]);
    server.shutdown();
}

/// Writes `bytes` in `piece`-sized writes, pausing after each so the
/// loop sees them in separate reads.
fn trickle(stream: &mut TcpStream, bytes: &[u8], piece: usize) {
    for chunk in bytes.chunks(piece) {
        stream.write_all(chunk).expect("write piece");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Lines trickled in over many small reads frame exactly as whole
/// ones: a line sent a byte at a time and one sent in odd-sized pieces
/// each answer once, bit-identical to the serial engine, and a line
/// trickled past `max_line` answers the oversize error in its own slot
/// while the connection keeps serving.
#[test]
fn trickled_lines_answer_once_and_oversize_still_answers_in_slot() {
    let (server, addr) = start_server(ServerConfig {
        event_loop: EventLoopConfig { max_line: 4096, ..EventLoopConfig::default() },
        ..base_config()
    });
    let engine = Engine::default();
    let expected: Vec<String> = soak_queries()
        .iter()
        .map(|q| {
            let response = engine.run_batch(std::slice::from_ref(q)).responses.remove(0);
            render_response(q, &response, WIRE_VERSION, 1)
        })
        .collect();
    let lines = soak_lines();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    trickle(&mut stream, format!("{}\n", lines[0]).as_bytes(), 1);
    trickle(&mut stream, format!("{}\n", lines[1]).as_bytes(), 7);
    let oversize = format!("{{\"op\":\"table1\",\"pad\":\"{}\"}}\n", "x".repeat(5000));
    trickle(&mut stream, oversize.as_bytes(), 97);
    stream.write_all(format!("{}\n", lines[2]).as_bytes()).expect("write whole");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let replies: Vec<String> = BufReader::new(stream).lines().map(|l| l.expect("read")).collect();

    assert_eq!(replies.len(), 4, "{replies:?}");
    assert_eq!(replies[0], expected[0], "line sent a byte at a time");
    assert_eq!(replies[1], expected[1], "line sent in 7-byte pieces");
    let v = jsonl::parse(&replies[2]).expect("reply is JSON");
    assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(false)), "{}", replies[2]);
    assert_eq!(v.get("error_kind").unwrap().as_str(), Some("parse"), "{}", replies[2]);
    assert_eq!(v.get("line").unwrap().as_usize(), Some(3), "{}", replies[2]);
    assert!(replies[2].contains("4096-byte limit"), "{}", replies[2]);
    assert_eq!(replies[3], expected[2], "the line after the oversize one");
    server.shutdown();
}

/// Pipelined lines cut at arbitrary points, so that one read ends a
/// line and starts the next, frame exactly: the resumed newline search
/// neither skips a boundary nor merges two lines, including where an
/// oversize line is being discarded and the next line begins in the
/// same read.
#[test]
fn pipelined_lines_cut_across_reads_frame_exactly() {
    let (server, addr) = start_server(ServerConfig {
        event_loop: EventLoopConfig { max_line: 4096, ..EventLoopConfig::default() },
        ..base_config()
    });
    let engine = Engine::default();
    let expected: Vec<String> = soak_queries()
        .iter()
        .map(|q| {
            let response = engine.run_batch(std::slice::from_ref(q)).responses.remove(0);
            render_response(q, &response, WIRE_VERSION, 1)
        })
        .collect();
    let lines = soak_lines();
    let oversize = format!("{{\"op\":\"table1\",\"pad\":\"{}\"}}", "x".repeat(5000));
    let stream_bytes = format!("{}\n{oversize}\n{}\n{}\n", lines[0], lines[1], lines[2]);

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    trickle(&mut stream, stream_bytes.as_bytes(), 13);
    stream.shutdown(Shutdown::Write).expect("half-close");
    let replies: Vec<String> = BufReader::new(stream).lines().map(|l| l.expect("read")).collect();

    assert_eq!(replies.len(), 4, "{replies:?}");
    assert_eq!(replies[0], expected[0]);
    let v = jsonl::parse(&replies[1]).expect("reply is JSON");
    assert_eq!(v.get("error_kind").unwrap().as_str(), Some("parse"), "{}", replies[1]);
    assert_eq!(v.get("line").unwrap().as_usize(), Some(2), "{}", replies[1]);
    assert_eq!(replies[2], expected[1], "the line starting in the discard's last read");
    assert_eq!(replies[3], expected[2]);
    server.shutdown();
}

/// A line past `max_line` whose newline arrives in the same read as the
/// bytes that cross the limit answers the oversize error too, so the
/// bound does not depend on how the client's writes were split.
#[test]
fn an_oversize_line_read_whole_answers_the_limit() {
    let (server, addr) = start_server(ServerConfig {
        event_loop: EventLoopConfig { max_line: 4096, ..EventLoopConfig::default() },
        ..base_config()
    });
    let oversize = format!("{{\"op\":\"table1\",\"pad\":\"{}\"}}", "x".repeat(5000));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(format!("{oversize}\n{}\n", soak_lines()[0]).as_bytes()).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let replies: Vec<String> = BufReader::new(stream).lines().map(|l| l.expect("read")).collect();
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(replies[0].contains("4096-byte limit"), "{}", replies[0]);
    assert!(replies[0].contains(r#""line":1"#), "{}", replies[0]);
    assert!(replies[1].contains(r#""ok":true"#), "{}", replies[1]);
    server.shutdown();
}

/// Draining with a half-written reply stream flushes and closes clean
/// (EOF), never a mid-line reset.
#[test]
fn shutdown_flushes_open_event_loop_connections() {
    let (server, addr) = start_server(base_config());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"{\"op\":\"table1\",\"version\":2,\"n\":64,\"stencil\":\"5pt\"}\n")
        .expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("first reply");
    assert!(first.contains(r#""ok":true"#), "{first}");

    let done = std::thread::spawn(move || server.shutdown());
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    // Whatever arrived after the drain began is whole lines, not a
    // torn reply.
    if !rest.is_empty() {
        assert_eq!(rest[rest.len() - 1], b'\n', "torn reply at drain: {rest:?}");
    }
    done.join().expect("shutdown");
}

//! The event loop's thread budget, read from `/proc/self/task`: one loop
//! thread multiplexes every connection, so holding 500 live connections
//! starts no thread of the server's own — at most a few of the shared
//! pool's `rayon-worker-*` helpers. Its own test binary, so no other
//! test's server can perturb the count.
#![cfg(target_os = "linux")]

use parspeed_engine::Engine;
use parspeed_server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LINES: [&str; 3] = [
    r#"{"op":"optimize","version":2,"arch":"sync-bus","n":64,"stencil":"5pt","shape":"square","procs":64}"#,
    r#"{"op":"optimize","version":2,"arch":"sync-bus","n":128,"stencil":"5pt","shape":"square","procs":64}"#,
    r#"{"op":"table1","version":2,"n":64,"stencil":"5pt"}"#,
];

/// Every live thread of this process: task id → name (`comm`, which
/// the kernel truncates to 15 bytes).
fn threads() -> BTreeMap<u64, String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let tid = path.file_name()?.to_str()?.parse().ok()?;
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            Some((tid, comm.trim_end().to_string()))
        })
        .collect()
}

/// Names of the threads started since `before`, read once each has
/// named itself: a new thread carries its spawner's name until then.
fn started_since(before: &BTreeMap<u64, String>) -> Vec<String> {
    let me = std::fs::read_to_string("/proc/thread-self/comm").expect("procfs");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let started: Vec<String> = threads()
            .into_iter()
            .filter(|(tid, _)| !before.contains_key(tid))
            .map(|(_, name)| name)
            .collect();
        if !started.contains(&me.trim_end().to_string()) || Instant::now() > deadline {
            return started;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Opens a connection and writes every line of [`LINES`] on it.
fn connect_and_send(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for line in LINES {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
    }
    stream
}

/// Half-closes `stream` and reads every reply it gets.
fn replies(stream: TcpStream) -> Vec<String> {
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream).lines().map(|l| l.expect("read")).collect()
}

#[test]
fn five_hundred_connections_start_no_thread_beyond_the_pool() {
    const CONNS: usize = 500;
    let mut server = Server::start(Arc::new(Engine::default()), ServerConfig::default());
    let addr = server.listen(("127.0.0.1", 0)).expect("bind");

    // One connection's worth of the same traffic first: the engine's
    // first evaluations size the shared pool (which spawns its workers
    // lazily), so what starts below is the frontend's bill alone.
    assert_eq!(replies(connect_and_send(addr)).len(), LINES.len(), "warm-up lost replies");
    let accepted = server.stats().connections;
    let before = threads();

    let streams: Vec<TcpStream> = (0..CONNS).map(|_| connect_and_send(addr)).collect();
    // The kernel completes handshakes into the backlog long before the
    // loop accepts them: count once the loop holds every connection.
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.stats().connections < accepted + CONNS as u64 {
        assert!(Instant::now() < deadline, "the loop never accepted all {CONNS} connections");
        std::thread::sleep(Duration::from_millis(1));
    }
    let started = started_since(&before);
    assert!(
        started.iter().all(|name| name.starts_with("rayon-worker")),
        "{CONNS} connections started threads beyond the shared pool: {started:?}"
    );
    assert!(started.len() <= 8, "{} threads for {CONNS} connections: {started:?}", started.len());

    // Every connection still gets every reply.
    for (i, stream) in streams.into_iter().enumerate() {
        let got = replies(stream);
        assert_eq!(got.len(), LINES.len(), "connection {i} dropped replies: {got:?}");
        assert!(got.iter().all(|r| r.contains(r#""ok":true"#)), "connection {i}: {got:?}");
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, ((CONNS + 1) * LINES.len()) as u64, "dropped work: {stats}");
    assert_eq!(stats.overloaded, 0, "shed requests: {stats}");
}

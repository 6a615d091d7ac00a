//! End-to-end `parspeed serve`: spawn the real binary, talk wire-v2
//! JSONL over a real socket, close stdin, and watch it drain.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Spawns `parspeed serve` on an ephemeral port; returns the child, its
/// stdout past the announce and info lines, and the bound address.
fn spawn_serve() -> (Child, BufReader<ChildStdout>, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parspeed"))
        .args(["serve", "--addr", "127.0.0.1:0", "--window-us", "300", "--stats"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parspeed serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read announce line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line {line:?}"))
        .parse()
        .expect("bound address");
    line.clear();
    stdout.read_line(&mut line).expect("read info line");
    (child, stdout, addr)
}

#[test]
fn serve_round_trips_drains_and_reports_stats() {
    let (mut child, mut stdout, addr) = spawn_serve();

    // One connection exercising the whole wire: v2, garbage, v1, stats.
    let mut stream = TcpStream::connect(addr).expect("connect");
    for request in [
        r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}"#,
        "definitely not json",
        r#"{"op":"minsize","variant":"sync-square","e":6.0,"k":1.0,"procs":14}"#,
        r#"{"op":"stats"}"#,
    ] {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    let replies: Vec<String> =
        BufReader::new(stream).lines().map(|l| l.expect("reply line")).collect();
    assert_eq!(replies.len(), 4, "{replies:?}");
    assert!(replies[0].contains("\"version\":2") && replies[0].contains("\"processors\":14"));
    assert!(replies[1].contains("\"ok\":false") && replies[1].contains("\"line\":2"));
    assert!(replies[2].contains("\"op\":\"minsize\"") && !replies[2].contains("\"version\""));
    assert!(replies[3].contains("\"op\":\"stats\"") && replies[3].contains("\"v1_lines\":1"));

    // Closing stdin asks the server to drain and exit.
    drop(child.stdin.take());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read final output");
    assert!(rest.contains("drained;"), "{rest}");
    assert!(rest.contains("submitted"), "--stats must print the snapshot: {rest}");
    let status = child.wait().expect("child exit");
    assert!(status.success(), "{status:?}");
}

#[test]
fn oversized_grid_sides_answer_in_their_slot_and_the_connection_lives() {
    let (mut child, mut stdout, addr) = spawn_serve();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut replies = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut ask = |request: &str| {
        (&stream).write_all(format!("{request}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).expect("reply line");
        reply
    };
    // Each oversized line would have asked for a 320 GB grid.
    for oversized in [
        r#"{"op":"solve","version":2,"n":200000,"solver":"jacobi","max_iters":1}"#,
        r#"{"op":"threads","version":2,"n":200000,"threads":[1],"iters":1,"repeats":1}"#,
    ] {
        let reply = ask(oversized);
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains("\"error_kind\":\"invalid_request\""), "{reply}");
        assert!(reply.contains("maximum of 4095"), "{reply}");
        let next = ask(r#"{"op":"solve","version":2,"n":15,"solver":"multigrid"}"#);
        assert!(next.contains("\"ok\":true") && next.contains("\"converged\":true"), "{next}");
    }
    stream.shutdown(Shutdown::Write).unwrap();
    drop(child.stdin.take());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read final output");
    assert!(rest.contains("drained;"), "{rest}");
    assert!(child.wait().expect("child exit").success());
}

#[test]
fn serve_and_route_refuse_the_removed_frontend_flags() {
    // One frontend only: the frontend selector and its accept-poll knob
    // are unknown flags at both tiers, refused before anything binds —
    // and so is the router's old reply-poll knob, now that replies
    // settle their own slots.
    for command in ["serve", "route"] {
        for (flag, value) in [("--io", "threads"), ("--accept-poll-us", "50"), ("--poll-ms", "5")] {
            let out = Command::new(env!("CARGO_BIN_EXE_parspeed"))
                .args([command, flag, value])
                .stdin(Stdio::null())
                .output()
                .expect("run parspeed");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} {flag}: {stderr}");
            assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{command}: {stderr}");
            assert!(out.stdout.is_empty(), "{command} {flag} must not start serving");
        }
    }
}

//! Load generation over TCP: at most two connections, one thread each.

use crate::check::Tally;
use parspeed_netio::{Interest, Poller};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One JSONL connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::with_capacity(1 << 16, stream.try_clone()?), writer: stream })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// The next reply line, without its newline.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        line.truncate(line.trim_end_matches(['\n', '\r']).len());
        Ok(line)
    }

    /// True when a whole reply line is already buffered (no syscall).
    fn line_buffered(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }

    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(format!("{line}\n").as_bytes())?;
        self.recv()
    }
}

/// What one phase of traffic measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-request latency in nanoseconds: one vector per connection, in
    /// send order.
    pub latencies: Vec<Vec<u64>>,
    /// How late each open-loop send left against its schedule (ns).
    pub lateness: Vec<u64>,
    pub sent: u64,
    pub replies: u64,
    /// When each reply arrived, in microseconds since the phase started.
    pub done_us: Vec<u32>,
    /// First send to last reply.
    pub elapsed: f64,
    pub tally: Tally,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        self.lateness.extend(other.lateness);
        self.sent += other.sent;
        self.replies += other.replies;
        self.done_us.extend(other.done_us);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.tally.add(&other.tally);
    }
}

/// Closed loop over a pool of lines whose replies are known up front:
/// each of `conns` connections keeps `window` requests in flight, drawing
/// pool indices from `pick(conn)` until it returns `None` (or `until`
/// passes), and checks every reply as it arrives.
pub fn closed_pool(
    addr: SocketAddr,
    conns: usize,
    window: usize,
    pool: &[String],
    refs: &[String],
    until: Option<Instant>,
    pick: impl Fn(usize) -> Box<dyn FnMut() -> Option<usize> + Send> + Sync,
) -> io::Result<Phase> {
    let start = Instant::now();
    let results: Vec<io::Result<Phase>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let next = pick(c);
                s.spawn(move || pool_conn(addr, window, pool, refs, until, next, start))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut phase = Phase::default();
    for r in results {
        phase.merge(r?);
    }
    Ok(phase)
}

fn pool_conn(
    addr: SocketAddr,
    window: usize,
    pool: &[String],
    refs: &[String],
    until: Option<Instant>,
    mut next: Box<dyn FnMut() -> Option<usize> + Send>,
    start: Instant,
) -> io::Result<Phase> {
    let mut conn = Conn::connect(addr)?;
    let mut phase = Phase { latencies: vec![Vec::new()], ..Phase::default() };
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let mut wbuf: Vec<u8> = Vec::with_capacity(window * 256);
    let mut done = false;
    let mut refill =
        |inflight: &mut VecDeque<(usize, Instant)>, wbuf: &mut Vec<u8>, now: Instant| {
            while !done && inflight.len() < window {
                match next() {
                    Some(i) if until.is_none_or(|end| now < end) => {
                        wbuf.extend_from_slice(pool[i].as_bytes());
                        wbuf.push(b'\n');
                        inflight.push_back((i, now));
                    }
                    _ => done = true,
                }
            }
        };
    refill(&mut inflight, &mut wbuf, Instant::now());
    let mut last = start;
    while !inflight.is_empty() {
        if !wbuf.is_empty() {
            conn.send(&wbuf)?;
            wbuf.clear();
        }
        // Drain every reply already buffered before writing again, so
        // one write carries all the replacements.
        loop {
            let reply = conn.recv()?;
            let now = Instant::now();
            let (i, sent_at) = inflight.pop_front().expect("reply without a request");
            phase.latencies[0].push(now.duration_since(sent_at).as_nanos() as u64);
            phase.done_us.push(now.duration_since(start).as_micros() as u32);
            phase.replies += 1;
            phase.tally.check(&reply, &refs[i]);
            last = now;
            refill(&mut inflight, &mut wbuf, now);
            if !conn.line_buffered() || inflight.is_empty() {
                break;
            }
        }
    }
    phase.sent = phase.replies;
    phase.elapsed = last.duration_since(start).as_secs_f64();
    Ok(phase)
}

/// Open loop: request `i` of `lines` is due at `i / rate` seconds after
/// the start and goes out on connection `i % conns`, whatever the replies
/// do. One thread sends on schedule (sleeping, never spinning, so the
/// driver leaves the cores to the server); the calling thread waits for
/// replies on every connection at once and stamps them on arrival.
/// Latency runs from the due time, so a stall also charges the requests
/// queued behind it. Every reply is checked against `refs` on arrival.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    lines: &[String],
    refs: &[String],
) -> io::Result<Phase> {
    let streams = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<io::Result<Vec<TcpStream>>>()?;
    let writers = streams.iter().map(TcpStream::try_clone).collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let sender_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let sent = send_on_schedule(writers, lines, due);
            sender_done.store(true, Ordering::SeqCst);
            sent
        });
        let received = receive(&streams, refs, due, &sender_done);
        let lateness = sender.join().expect("sender thread panicked")?;
        let mut phase = received?;
        phase.lateness = lateness;
        phase.sent = lines.len() as u64;
        phase.tally.missing = phase.sent - phase.replies;
        Ok(phase)
    })
}

/// Writes every line at its due time; returns each send's lateness (ns).
fn send_on_schedule(
    mut writers: Vec<TcpStream>,
    lines: &[String],
    due: impl Fn(usize) -> Instant,
) -> io::Result<Vec<u64>> {
    let conns = writers.len();
    let mut bufs = vec![Vec::new(); conns];
    let mut lateness = Vec::with_capacity(lines.len());
    let mut i = 0;
    while i < lines.len() {
        let now = Instant::now();
        if due(i) > now {
            std::thread::sleep(due(i) - now);
            continue;
        }
        while i < lines.len() && due(i) <= now {
            let buf = &mut bufs[i % conns];
            buf.extend_from_slice(lines[i].as_bytes());
            buf.push(b'\n');
            lateness.push(now.duration_since(due(i)).as_nanos() as u64);
            i += 1;
        }
        for (w, buf) in writers.iter_mut().zip(&mut bufs) {
            if !buf.is_empty() {
                w.write_all(buf)?;
                buf.clear();
            }
        }
    }
    Ok(lateness)
}

/// Collects and checks replies from every connection until all arrived,
/// or the sender is done and nothing arrived for thirty seconds (the rest
/// count missing). Reply `k` on connection `c` answers request `c + k·conns`.
fn receive(
    streams: &[TcpStream],
    refs: &[String],
    due: impl Fn(usize) -> Instant,
    sender_done: &AtomicBool,
) -> io::Result<Phase> {
    let n = refs.len();
    let conns = streams.len();
    let poller = Poller::new()?;
    for (c, s) in streams.iter().enumerate() {
        poller.add(s.as_raw_fd(), c as u64, Interest::READ)?;
    }
    let mut phase = Phase { latencies: vec![Vec::new(); conns], ..Phase::default() };
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns];
    let mut next = vec![0usize; conns];
    let mut chunk = vec![0u8; 1 << 16];
    let mut events = Vec::new();
    let mut remaining = n;
    let mut progress = Instant::now();
    let start = due(0);
    while remaining > 0 {
        poller.wait(&mut events, Some(Duration::from_millis(100)))?;
        if events.is_empty() {
            if sender_done.load(Ordering::SeqCst) && progress.elapsed() > Duration::from_secs(30) {
                break;
            }
            continue;
        }
        for ev in &events {
            let c = ev.token as usize;
            let mut stream = &streams[c];
            let got = stream.read(&mut chunk)?;
            if got == 0 {
                poller.delete(stream.as_raw_fd())?;
                continue;
            }
            let now = Instant::now();
            progress = now;
            let buf = &mut bufs[c];
            buf.extend_from_slice(&chunk[..got]);
            let mut consumed = 0;
            while let Some(pos) = buf[consumed..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&buf[consumed..consumed + pos]);
                let i = c + next[c] * conns;
                if i >= n {
                    return Err(io::Error::other("reply without a request"));
                }
                next[c] += 1;
                phase.latencies[c].push(now.saturating_duration_since(due(i)).as_nanos() as u64);
                phase.replies += 1;
                phase.elapsed = now.duration_since(start).as_secs_f64();
                phase.done_us.push((phase.elapsed * 1e6) as u32);
                phase.tally.check(&line, &refs[i]);
                consumed += pos + 1;
                remaining -= 1;
            }
            buf.drain(..consumed);
        }
    }
    Ok(phase)
}

/// Closed loop with one request in flight on one connection, in order,
/// checking each reply against `refs`.
pub fn one_at_a_time(addr: SocketAddr, lines: &[String], refs: &[String]) -> io::Result<Phase> {
    let mut conn = Conn::connect(addr)?;
    let mut phase = Phase { latencies: vec![Vec::new()], ..Phase::default() };
    let start = Instant::now();
    for (line, want) in lines.iter().zip(refs) {
        let t = Instant::now();
        let reply = conn.call(line)?;
        phase.latencies[0].push(t.elapsed().as_nanos() as u64);
        phase.sent += 1;
        phase.replies += 1;
        phase.done_us.push(start.elapsed().as_micros() as u32);
        phase.tally.check(&reply, want);
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    Ok(phase)
}

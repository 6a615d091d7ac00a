//! The served binary as a child process, and what `/proc` says about it.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `parspeed serve` or `parspeed route`. It serves until its
/// stdin closes; dropping the handle closes stdin and reaps the child.
pub struct Served {
    child: Child,
    stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Served {
    /// Spawns `bin args…`, waits for the announced address, and times
    /// spawn → first `{"op":"health"}` reply (the `setup_s` metric).
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<(Served, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = match read_addr(&mut stdout) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let served = Served { child, stdin, _stdout: stdout, addr };
        let mut probe = crate::wire::Conn::connect(addr)?;
        let reply = probe.call("{\"op\":\"health\"}")?;
        let setup = t0.elapsed().as_secs_f64();
        if !reply.contains("\"op\":\"health\"") || !reply.contains("\"ok\":true") {
            return Err(io::Error::other(format!("unexpected health reply: {reply}")));
        }
        Ok((served, setup))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes stdin (the drain signal) and waits for exit; kills the
    /// child if it has not drained within ten seconds.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(io::Error::other("served binary did not drain within 10 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn read_addr(stdout: &mut BufReader<ChildStdout>) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("served binary exited before announcing its address"));
        }
        // `listening on HOST:PORT` (serve) or `routing on HOST:PORT (N shards)`.
        for prefix in ["listening on ", "routing on "] {
            if let Some(rest) = line.trim().strip_prefix(prefix) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                return addr
                    .parse()
                    .map_err(|e| io::Error::other(format!("bad address {addr}: {e}")));
            }
        }
    }
}

/// User+system CPU seconds of a process, all threads (`/proc/<pid>/stat`,
/// in clock ticks of 1/100 s — Linux's fixed `USER_HZ`).
pub fn cpu_seconds(pid: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_counters_read() {
        assert!(cpu_seconds("self").expect("stat") >= 0.0);
        assert!(peak_rss_mib("self").expect("status") > 0.0);
    }
}

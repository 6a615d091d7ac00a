//! `perfbench` — drives seeded wire-v2 traffic at the real `parspeed
//! serve` / `parspeed route` binaries, checks every reply against the
//! serial engine, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced in-process replay (`--trace 1`). The
//! last stdout line is the result object; see README.md for the design.
//!
//! Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  --parspeed PATH [--out-dir DIR]

mod calib;
mod check;
mod proc;
mod stats;
mod trace;
mod wire;
mod workload;

use calib::Calibration;
use check::{references, Tally};
use parspeed_engine::jsonl::{self, Json};
use proc::{cpu_seconds, peak_rss_mib, Served};
use stats::{median, percentile, tail_percentile, Rng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wire::{closed_pool, one_at_a_time, open_loop, Conn, Phase};
use workload::{Traffic, Workload};

/// Spawns per run; `setup_s` reports their median.
const SETUP_SPAWNS: usize = 5;
/// Untimed traffic before the timed phase, after the cache warm pass.
const WARMUP: Duration = Duration::from_secs(1);
/// Requests the traced pass replays for the high-rate workloads.
const REPLAY_REQUESTS: usize = 20_000;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("frontend.self_us_per_req", "us"),
    ("frontend.bytes_in_per_req", "B"),
    ("frontend.bytes_out_per_req", "B"),
    ("jsonl.parse_us_per_req", "us"),
    ("jsonl.render_us_per_req", "us"),
    ("batcher.batches", "count"),
    ("batcher.avg_fill", "count"),
    ("batcher.cross_client_dedup_hits", "count"),
    ("batcher.queue_p50_us", "us"),
    ("batcher.window_p50_us", "us"),
    ("plan.us_per_batch", "us"),
    ("plan.dedup_us_per_batch", "us"),
    ("plan.dedup_factor", "ratio"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("exec.evaluated", "count"),
    ("exec.model_us_per_eval", "us"),
    ("exec.solve_ms_per_eval", "ms"),
    ("exec.batch_fanout_us", "us"),
    ("router.hop_us_per_req", "us"),
    ("router.ring_ns_per_req", "ns"),
    ("router.shard_imbalance", "ratio"),
    ("router.retries", "count"),
    ("router.failovers", "count"),
    ("router.reorder_drops", "count"),
    ("solver.iterations", "count"),
    ("solver.mpts", "Mpts/s"),
    ("solver.par_over_serial", "ratio"),
    ("kernel.fused_mpts", "Mpts/s"),
    ("kernel.par_mpts", "Mpts/s"),
    ("kernel.gflops", "GFLOP/s"),
    ("kernel.bytes_per_pt", "B"),
    ("pool.fanout_us", "us"),
    ("halo.exchanges", "count"),
    ("obs.overhead_frac", "ratio"),
    ("driver.late_p99_ms", "ms"),
    ("driver.cpu_frac", "ratio"),
    ("driver.warmup_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("box.nproc", "count"),
    ("box.memcpy_gbps", "GB/s"),
    ("box.fused_mpts_1023", "Mpts/s"),
    ("failed_frac", "ratio"),
    ("latency_tail_pct", "pct"),
];

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    parspeed: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = Workload::parse(need("--workload")?).ok_or_else(|| {
        format!("unknown workload; one of {:?}", Workload::ALL.map(Workload::name))
    })?;
    let seed = need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        parspeed: PathBuf::from(need("--parspeed")?),
        out_dir: PathBuf::from(get("--out-dir").unwrap_or("perfbench/out")),
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// What the wire pass produced.
struct WireRun {
    timed: Phase,
    /// Every checked reply, warm-up included.
    tally: Tally,
    attempted: u64,
    warmup_s: f64,
    server_cpu_s: f64,
    driver_cpu_s: f64,
    rss_mib: f64,
    server_metrics: Option<Json>,
    router_metrics: Option<Json>,
}

/// Request lines and their reference replies.
type Lines = (Vec<String>, Vec<String>);

fn run(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    let calib = Calibration::measure();
    let w = opts.workload;
    // The traced run's wire pass only feeds the driver and batcher
    // figures; a third of the time leaves room for the replay.
    let seconds = if opts.trace { opts.seconds / 3.0 } else { opts.seconds };
    let inputs = Inputs::build(w, opts.seed, seconds);

    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut served = None;
    for _ in 0..SETUP_SPAWNS {
        let (s, t) = Served::spawn(&opts.parspeed, &w.command())?;
        setups.push(t);
        if let Some(previous) = served.replace(s) {
            Served::stop(previous)?;
        }
    }
    let served = served.expect("at least one spawn");
    let wire = drive(w, opts.seed, seconds, &inputs, &served)?;
    served.stop()?;

    let mut sorted: Vec<f64> =
        wire.timed.latencies.iter().flatten().map(|&ns| ns as f64 / 1e6).collect();
    sorted.sort_by(f64::total_cmp);
    let (tail_p, tail_ms) = tail_latency(&wire.timed.latencies, w.windows());
    let replies = wire.timed.replies.max(1) as f64;
    let failed = wire.tally.failed();
    let failed_frac = failed as f64 / wire.attempted.max(1) as f64;
    let router = wire.router_metrics.as_ref().map(|m| {
        let field =
            |k| m.get("resilience").and_then(|r| r.get(k)).and_then(Json::as_f64).unwrap_or(-1.0);
        format!(
            "{{\"retries\":{},\"failovers\":{},\"reorder_drops\":{}}}",
            field("retries"),
            field("failovers"),
            field("reorder_drops")
        )
    });
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        let driver_cpu_frac =
            wire.driver_cpu_s / (wire.timed.elapsed.max(1e-9) * calib.nproc as f64);
        let view = trace::WireView {
            lateness: &wire.timed.lateness,
            server_metrics: wire.server_metrics.as_ref(),
            router_metrics: wire.router_metrics.as_ref(),
            driver_cpu_frac,
            warmup_s: wire.warmup_s,
        };
        let (conns, window) = match w.traffic() {
            Traffic::Closed { conns, window } => (conns, window),
            Traffic::Open { conns, .. } => (conns, 32),
        };
        let (warm, lines) = replay_inputs(w, opts.seed, &inputs);
        let replayed = trace::Replayed {
            w,
            conns,
            window,
            warm: (&warm.0, &warm.1),
            lines: (&lines.0, &lines.1),
        };
        let spans = opts.out_dir.join(format!("spans-{}-{}.jsonl", w.name(), opts.seed));
        let (mut layers, replay_tally) = trace::layers(&replayed, &view, &calib, &spans)?;
        if replay_tally.failed() > 0 {
            return Err(format!(
                "traced replay disagreed with the reference: {}",
                replay_tally.to_json()
            )
            .into());
        }
        layers.insert("failed_frac", failed_frac);
        layers.insert("latency_tail_pct", tail_p);
        for (name, unit) in PER_LAYER {
            metrics.push((name, layers[name], unit));
        }
        eprintln!("perfbench: spans written to {}", spans.display());
    } else {
        let values: BTreeMap<&str, f64> = [
            ("throughput_rps", throughput(w, &wire.timed)),
            ("latency_p50_ms", percentile(&sorted, 50.0)),
            ("latency_tail_ms", tail_ms),
            ("cpu_ms_per_req", wire.server_cpu_s * 1e3 / replies),
            ("peak_rss_mib", wire.rss_mib),
            ("setup_s", median(&setups)),
        ]
        .into_iter()
        .collect();
        for (name, unit) in END_TO_END {
            metrics.push((name, values[name], unit));
        }
    }

    // The run record, then the result object as the last line.
    let spread: Vec<String> = [50.0, 90.0, 99.0, 99.9]
        .iter()
        .filter(|_| !sorted.is_empty())
        .map(|&p| format!("\"p{p}\":{:?}", percentile(&sorted, p)))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"samples\":{},\"latency_ms\":{{{}}},\"tail_percentile\":{:?},\"failed_frac\":{:?},\"failures\":{},\"router\":{},\"setup_s_runs\":{:?},\"calibration\":{}}}",
        w.name(),
        opts.seed,
        opts.trace,
        sorted.len(),
        spread.join(","),
        tail_p,
        failed_frac,
        wire.tally.to_json(),
        router.as_deref().unwrap_or("null"),
        setups,
        calib.to_json()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        wire.attempted,
        failed,
        body.join(",")
    );
    Ok(())
}

/// The run's throughput: the median of per-span reply rates. Time-bound
/// workloads cut the phase into `windows` equal spans of time; solve runs
/// into their mix passes (each span then holds the same work).
fn throughput(w: Workload, phase: &Phase) -> f64 {
    let mut done: Vec<f64> = phase.done_us.iter().map(|&t| t as f64 / 1e6).collect();
    done.sort_by(f64::total_cmp);
    let rates: Vec<f64> = match w.cycle_seconds() {
        Some(_) => {
            let pass = workload::solve_cycle(w, &mut Rng::new(0)).len();
            let ends: Vec<f64> = done.chunks_exact(pass).map(|c| c[pass - 1]).collect();
            let mut start = 0.0;
            ends.iter()
                .map(|&end| {
                    let rate = pass as f64 / (end - start).max(1e-9);
                    start = end;
                    rate
                })
                .collect()
        }
        None => {
            let windows = w.windows();
            let span = phase.elapsed.max(1e-9) / windows as f64;
            let mut counts = vec![0u64; windows];
            for t in done {
                counts[((t / span) as usize).min(windows - 1)] += 1;
            }
            counts.iter().map(|&c| c as f64 / span).collect()
        }
    };
    if rates.is_empty() {
        phase.replies as f64 / phase.elapsed.max(1e-9)
    } else {
        median(&rates)
    }
}

/// The tail latency (ms) and the percentile it reports: the timed phase
/// is cut into `windows` equal spans of each connection's requests, the
/// ladder percentile is taken in each span, and the median span wins, so
/// one bad second on a shared box does not set the run's tail.
fn tail_latency(per_conn: &[Vec<u64>], windows: usize) -> (f64, f64) {
    let n: usize = per_conn.iter().map(Vec::len).sum();
    let windows = windows.clamp(1, n.max(1));
    let p = tail_percentile(n / windows);
    let spans: Vec<f64> = (0..windows)
        .filter_map(|k| {
            let mut v: Vec<f64> = per_conn
                .iter()
                .flat_map(|c| &c[k * c.len() / windows..(k + 1) * c.len() / windows])
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            v.sort_by(f64::total_cmp);
            (!v.is_empty()).then(|| percentile(&v, p))
        })
        .collect();
    (p, if spans.is_empty() { 0.0 } else { median(&spans) })
}

/// The seeded inputs of one run and their references, built before the
/// binary is spawned so that reference work never overlaps a timed phase.
struct Inputs {
    /// The untimed warm-up (`serve-hot`: one pass over its pool).
    warm: Lines,
    /// The timed lines (`serve-hot`: the pool its streams draw from).
    timed: Lines,
}

impl Inputs {
    fn build(w: Workload, seed: u64, seconds: f64) -> Inputs {
        let with_refs = |lines: Vec<String>| {
            let refs = references(&lines);
            (lines, refs)
        };
        match w {
            Workload::ServeHot => {
                // The first HOT_POOL distinct candidates that answer ok.
                let (mut pool, mut refs) = (Vec::new(), Vec::new());
                let mut candidates = workload::hot_candidates(seed);
                while pool.len() < workload::HOT_POOL {
                    let batch: Vec<String> = candidates
                        .by_ref()
                        .filter(|c| !pool.contains(c))
                        .take(workload::HOT_POOL - pool.len())
                        .collect();
                    for (line, reply) in batch.iter().zip(references(&batch)) {
                        if check::is_ok(&reply) && !pool.contains(line) {
                            pool.push(line.clone());
                            refs.push(reply);
                        }
                    }
                }
                Inputs { warm: (pool.clone(), refs.clone()), timed: (pool, refs) }
            }
            Workload::RouteCold => {
                let Traffic::Open { rate, .. } = w.traffic() else {
                    unreachable!("route-cold is open-loop")
                };
                Inputs {
                    warm: with_refs(workload::route_lines(
                        seed,
                        1,
                        (rate * WARMUP.as_secs_f64()) as usize,
                    )),
                    timed: with_refs(workload::route_lines(seed, 0, (rate * seconds) as usize)),
                }
            }
            Workload::SolveSmall | Workload::SolveLarge => {
                let cycle = w.cycle_seconds().expect("solve workloads have a cycle");
                let cycles = ((seconds / cycle).round() as usize).max(1);
                let mut rng = Rng::new(seed);
                let timed = (0..cycles).flat_map(|_| workload::solve_cycle(w, &mut rng)).collect();
                let mut warm_rng = Rng::new(seed ^ 0x3A3A_0000_0000_0001);
                let warm = workload::solve_cycle(w, &mut warm_rng).into_iter().take(2).collect();
                Inputs { warm: with_refs(warm), timed: with_refs(timed) }
            }
        }
    }
}

/// The connection-`c` index stream of `serve-hot`.
fn hot_stream(seed: u64, c: usize, len: usize) -> Box<dyn FnMut() -> Option<usize> + Send> {
    let mut rng = Rng::new(seed ^ ((c as u64 + 1) << 40));
    Box::new(move || Some(rng.below(len)))
}

/// One phase of `w`'s traffic over `lines`, bounded by `until` where the
/// workload runs for a time (`serve-hot`) rather than through its lines.
fn traffic(
    w: Workload,
    addr: std::net::SocketAddr,
    (lines, refs): &Lines,
    until: Instant,
    seed: u64,
) -> std::io::Result<Phase> {
    match w.traffic() {
        Traffic::Closed { conns, window } if w == Workload::ServeHot => {
            closed_pool(addr, conns, window, lines, refs, Some(until), |c| {
                hot_stream(seed, c, lines.len())
            })
        }
        Traffic::Open { conns, rate } => open_loop(addr, conns, rate, lines, refs),
        Traffic::Closed { .. } => one_at_a_time(addr, lines, refs),
    }
}

fn drive(
    w: Workload,
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    served: &Served,
) -> Result<WireRun, Box<dyn std::error::Error>> {
    let pid = served.pid().to_string();
    let addr = served.addr;
    let warm_start = Instant::now();
    let mut warm = Phase::default();
    if w == Workload::ServeHot {
        // One pass over the pool fills the cache, then untimed traffic.
        let (pool, refs) = &inputs.warm;
        let len = pool.len();
        let Traffic::Closed { window, .. } = w.traffic() else {
            unreachable!("serve-hot is closed-loop")
        };
        let fill = closed_pool(addr, 1, window, pool, refs, None, |_| {
            let mut i = 0;
            Box::new(move || {
                i += 1;
                (i <= len).then_some(i - 1)
            })
        })?;
        warm.sent += fill.sent;
        warm.tally.add(&fill.tally);
    }
    let warm_traffic = traffic(w, addr, &inputs.warm, Instant::now() + WARMUP, seed ^ 0xFFFF)?;
    warm.sent += warm_traffic.sent;
    warm.tally.add(&warm_traffic.tally);
    let warmup_s = warm_start.elapsed().as_secs_f64();

    let cpu0 = (cpu_seconds(&pid)?, cpu_seconds("self")?);
    let timed =
        traffic(w, addr, &inputs.timed, Instant::now() + Duration::from_secs_f64(seconds), seed)?;
    let server_cpu_s = cpu_seconds(&pid)? - cpu0.0;
    let driver_cpu_s = cpu_seconds("self")? - cpu0.1;
    let mut tally = warm.tally;
    tally.add(&timed.tally);

    let rss_mib = peak_rss_mib(&pid)?;
    let mut conn = Conn::connect(addr)?;
    let metrics = jsonl::parse(&conn.call("{\"op\":\"metrics\"}")?)
        .map_err(|e| format!("metrics reply: {e}"))?;
    let (server_metrics, router_metrics) =
        if w == Workload::RouteCold { (None, Some(metrics)) } else { (Some(metrics), None) };
    Ok(WireRun {
        attempted: warm.sent + timed.sent,
        timed,
        tally,
        warmup_s,
        server_cpu_s,
        driver_cpu_s,
        rss_mib,
        server_metrics,
        router_metrics,
    })
}

/// What the traced pass replays, with references: the lines that warm its
/// cache first, then the timed inputs from their start — the first
/// requests of each `serve-hot` stream, `route-cold`'s first lines, or one
/// solve pass.
fn replay_inputs(w: Workload, seed: u64, inputs: &Inputs) -> (Lines, Lines) {
    let (lines, refs) = &inputs.timed;
    match w.traffic() {
        Traffic::Closed { conns, .. } if w == Workload::ServeHot => {
            let mut streams: Vec<_> =
                (0..conns).map(|c| hot_stream(seed, c, lines.len())).collect();
            let idx: Vec<usize> = (0..REPLAY_REQUESTS / conns)
                .flat_map(|_| {
                    streams.iter_mut().map(|s| s().expect("endless stream")).collect::<Vec<_>>()
                })
                .collect();
            let replay = (
                idx.iter().map(|&i| lines[i].clone()).collect(),
                idx.iter().map(|&i| refs[i].clone()).collect(),
            );
            (inputs.warm.clone(), replay)
        }
        Traffic::Open { .. } => {
            let keep = REPLAY_REQUESTS.min(lines.len());
            (inputs.warm.clone(), (lines[..keep].to_vec(), refs[..keep].to_vec()))
        }
        Traffic::Closed { .. } => {
            let cycle = workload::solve_cycle(w, &mut Rng::new(0)).len();
            ((Vec::new(), Vec::new()), (lines[..cycle].to_vec(), refs[..cycle].to_vec()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names this binary prints are exactly the ones
    /// BENCHMARK.json declares, with the same units.
    #[test]
    fn benchmark_json_declares_every_printed_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = jsonl::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()).to_vec());
    }
}

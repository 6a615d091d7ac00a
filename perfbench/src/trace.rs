//! The traced pass: the workload's inputs replayed in-process through each
//! layer's public functions, with a span around every call, plus the
//! probes that price the layers a replay cannot separate (frontend,
//! router hop, stage recording, solver, kernels, pool). It never feeds
//! the end-to-end numbers.

use crate::calib::{pool_fanout_us, sweep_mpts, Calibration};
use crate::check::Tally;
use crate::stats::median;
use crate::wire::closed_pool;
use crate::workload::{Workload, ROUTE_CACHE};
use parspeed_engine::cache::ShardedLru;
use parspeed_engine::jsonl::{self, Json};
use parspeed_engine::plan::{Plan, Slot};
use parspeed_engine::{
    exec, routing_hash, Engine, EvalKey, EvalOutcome, Query, Response, SolverKind,
    DEFAULT_CACHE_CAPACITY,
};
use parspeed_exec::PartitionedJacobi;
use parspeed_grid::StripDecomposition;
use parspeed_router::ring::HashRing;
use parspeed_router::{Router, RouterClient, RouterConfig};
use parspeed_server::{Client, Server, ServerConfig};
use parspeed_solver::{
    JacobiSolver, Manufactured, MultigridSolver, PoissonProblem, RedBlackSolver, SorSolver,
};
use parspeed_stencil::Stencil;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests each probe pass sends at least.
const PROBE_REQUESTS: usize = 600;

/// One timed call: name, start and end (ns since the tracer's epoch), the
/// enclosing span, and the request (or batch) it served.
#[derive(Debug)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder. Disabled, it reads no clock at all.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, req: u64) {
        if self.on {
            let span =
                Span { name, start: self.now(), end: 0, parent: self.stack.last().copied(), req };
            self.stack.push(self.spans.len());
            self.spans.push(span);
        }
    }

    pub fn exit(&mut self) {
        if self.on {
            let id = self.stack.pop().expect("exit without enter");
            self.spans[id].end = self.now();
        }
    }

    /// Per span name: (count, total ns, self ns), where self time is the
    /// span minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child[i]);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Counters one replay accumulates.
#[derive(Debug, Default)]
struct ReplayCounts {
    requests: u64,
    batches: u64,
    atoms: u64,
    unique: u64,
    dedup_ns: u64,
    model_misses: Vec<EvalKey>,
    solve_evals: u64,
    mismatches: u64,
}

/// The engine pipeline, rebuilt from its public pieces so every layer is
/// its own span: `jsonl::parse_query` → `Plan::build_timed` → cache
/// probes → `exec::evaluate_all` → cache inserts → `render_response`.
/// Batches hold `fill` lines, the fill the batcher achieved on the wire.
fn replay_batches(
    cache: &ShardedLru<EvalKey, EvalOutcome>,
    lines: &[String],
    refs: &[String],
    fill: usize,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) {
    for (b, (chunk, chunk_refs)) in lines.chunks(fill).zip(refs.chunks(fill)).enumerate() {
        let base = counts.requests;
        tracer.enter("batch", b as u64);
        let mut queries = Vec::with_capacity(chunk.len());
        for (j, line) in chunk.iter().enumerate() {
            tracer.enter("jsonl.parse", base + j as u64);
            let parsed = jsonl::parse_query(line).expect("workload lines parse");
            tracer.exit();
            queries.push(parsed);
        }
        let qs: Vec<Query> = queries.iter().map(|p| p.query.clone()).collect();
        tracer.enter("plan", b as u64);
        let (plan, timing) = Plan::build_timed(&qs);
        tracer.exit();

        tracer.enter("cache", b as u64);
        let mut outcomes: Vec<Option<EvalOutcome>> =
            plan.unique.iter().map(|k| cache.get(k)).collect();
        tracer.exit();
        let miss_idx: Vec<usize> = (0..outcomes.len()).filter(|&i| outcomes[i].is_none()).collect();
        let miss_keys: Vec<EvalKey> = miss_idx.iter().map(|&i| plan.unique[i]).collect();

        tracer.enter("exec", b as u64);
        let fresh = exec::evaluate_all(&miss_keys, None);
        tracer.exit();

        tracer.enter("cache", b as u64);
        for (&i, outcome) in miss_idx.iter().zip(fresh) {
            cache.insert(plan.unique[i], outcome.clone());
            outcomes[i] = Some(outcome);
        }
        tracer.exit();

        for key in &miss_keys {
            match key {
                EvalKey::Solve { .. } => counts.solve_evals += 1,
                _ => counts.model_misses.push(*key),
            }
        }
        let resolve = |i: usize| outcomes[i].clone().expect("every unique key resolved");
        for (j, (slot, parsed)) in plan.slots.iter().zip(&queries).enumerate() {
            let response = match slot {
                Slot::Single(i) => Response::Single(resolve(*i)),
                Slot::Sweep(points) => {
                    Response::Sweep(points.iter().map(|(l, i)| (l.clone(), resolve(*i))).collect())
                }
                Slot::Effect(i) => Response::Single(exec::run_effect(&plan.effects[*i], None)),
                Slot::Invalid(e) => Response::Invalid(e.clone()),
            };
            tracer.enter("jsonl.render", base + j as u64);
            let reply = jsonl::render_response(&parsed.query, &response, parsed.version, j + 1);
            tracer.exit();
            if reply != chunk_refs[j] {
                counts.mismatches += 1;
            }
        }
        tracer.exit();
        counts.requests += chunk.len() as u64;
        counts.batches += 1;
        counts.atoms += plan.atoms as u64;
        counts.unique += plan.unique.len() as u64;
        counts.dedup_ns += timing.dedup_nanos;
    }
}

/// One full replay from a cold cache: an untraced warm pass over `warm`,
/// then `lines` under `tracer`. Returns wall seconds of the measured part.
fn replay(
    w: Workload,
    warm: (&[String], &[String]),
    lines: (&[String], &[String]),
    fill: usize,
    tracer: &mut Tracer,
) -> (f64, ReplayCounts, ShardedLru<EvalKey, EvalOutcome>) {
    let cache = ShardedLru::new(cache_capacity(w), 16);
    let mut warm_counts = ReplayCounts::default();
    replay_batches(&cache, warm.0, warm.1, fill, &mut Tracer::new(false), &mut warm_counts);
    let mut counts = ReplayCounts::default();
    let t = Instant::now();
    tracer.enter("replay", 0);
    replay_batches(&cache, lines.0, lines.1, fill, tracer, &mut counts);
    tracer.exit();
    let wall = t.elapsed().as_secs_f64();
    counts.model_misses.extend(warm_counts.model_misses);
    counts.mismatches += warm_counts.mismatches;
    (wall, counts, cache)
}

/// The engine cache a workload's served binary runs with (route-cold: one
/// shard's worth times the fleet's four shards).
fn cache_capacity(w: Workload) -> usize {
    match w {
        Workload::RouteCold => ROUTE_CACHE * 4,
        _ => DEFAULT_CACHE_CAPACITY,
    }
}

/// The in-process client surface shared by a server and a router.
trait InProc: Send {
    fn submit(&self, q: Query) -> u64;
    fn recv(&self) -> (u64, Response);
}

impl InProc for Client {
    fn submit(&self, q: Query) -> u64 {
        Client::submit(self, q)
    }
    fn recv(&self) -> (u64, Response) {
        Client::recv(self)
    }
}

impl InProc for RouterClient {
    fn submit(&self, q: Query) -> u64 {
        RouterClient::submit(self, q)
    }
    fn recv(&self) -> (u64, Response) {
        RouterClient::recv(self)
    }
}

/// Closed loop over in-process clients (one thread each, `window` in
/// flight, queries dealt round-robin); wall seconds.
fn drive<C: InProc>(clients: Vec<C>, queries: &[Query], window: usize) -> f64 {
    let n = clients.len();
    let t = Instant::now();
    std::thread::scope(|s| {
        for (c, client) in clients.into_iter().enumerate() {
            s.spawn(move || {
                let mut mine = queries.iter().skip(c).step_by(n);
                let mut inflight = 0;
                for q in mine.by_ref().take(window) {
                    client.submit(q.clone());
                    inflight += 1;
                }
                while inflight > 0 {
                    client.recv();
                    inflight -= 1;
                    if let Some(q) = mine.next() {
                        client.submit(q.clone());
                        inflight += 1;
                    }
                }
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// What the wire pass of the traced run measured, for the layers it owns.
pub struct WireView<'a> {
    /// How late each open-loop send left (ns); empty for closed loops.
    pub lateness: &'a [u64],
    /// The served server's `metrics` op reply (serve workloads).
    pub server_metrics: Option<&'a Json>,
    /// The router's `metrics` op reply (route-cold).
    pub router_metrics: Option<&'a Json>,
    pub driver_cpu_frac: f64,
    pub warmup_s: f64,
}

/// Inputs of the traced pass.
pub struct Replayed<'a> {
    pub w: Workload,
    pub conns: usize,
    pub window: usize,
    /// Lines that warm the replay's cache first (the hot pool), and refs.
    pub warm: (&'a [String], &'a [String]),
    /// The replayed lines and their reference replies.
    pub lines: (&'a [String], &'a [String]),
}

/// Runs every probe and returns each per-layer metric by name, plus the
/// tally of replies the replays checked.
pub fn layers(
    r: &Replayed,
    wire: &WireView,
    calib: &Calibration,
    spans_path: &Path,
) -> io::Result<(BTreeMap<&'static str, f64>, Tally)> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut tally = Tally::default();
    let parse = |lines: &[String]| -> Vec<Query> {
        lines.iter().map(|l| jsonl::parse_query(l).expect("workload lines parse").query).collect()
    };
    // The probes time whole passes, so a short replay (one solve mix) is
    // cycled to at least PROBE_REQUESTS; after the first pass it is served
    // from cache, which is what the probes want to price.
    let reps = PROBE_REQUESTS.div_ceil(r.lines.0.len().max(1));
    let probe_lines: Vec<String> =
        r.lines.0.iter().cycle().take(r.lines.0.len() * reps).cloned().collect();
    let probe_refs: Vec<String> =
        r.lines.1.iter().cycle().take(r.lines.1.len() * reps).cloned().collect();
    let specs = parse(r.lines.0);
    let queries = parse(&probe_lines);
    let warm_queries = parse(r.warm.0);
    let n = queries.len() as f64;

    // Every probe serves from one engine, configured like the served
    // binary's and warmed once: the probes time served passes, not first
    // evaluations (route-cold's small cache still misses on most lines).
    let capacity = if r.w == Workload::RouteCold { ROUTE_CACHE } else { DEFAULT_CACHE_CAPACITY };
    let shared = Arc::new(Engine::builder().cache_capacity(capacity).build());
    shared.run_batch(&warm_queries);
    shared.run_batch(&queries);

    // Frontend: the same lines over TCP into an in-process server, and
    // through its in-process client.
    let (tcp_s, inproc_s, tcp_tally) =
        frontend_probe(r, &shared, (&probe_lines, &probe_refs), &queries)?;
    tally.add(&tcp_tally);
    m.insert("frontend.self_us_per_req", (tcp_s - inproc_s) / n * 1e6);
    let bytes = |v: &[String]| v.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / v.len() as f64;
    m.insert("frontend.bytes_in_per_req", bytes(r.lines.0));
    m.insert("frontend.bytes_out_per_req", bytes(r.lines.1));

    // Router hop: a 1-shard router against a bare server, same engine
    // configuration, same lines; the second pass of each is timed.
    let server = Server::start(shared.clone(), ServerConfig::default());
    drive((0..r.conns).map(|_| server.client()).collect(), &queries, r.window);
    let server_s = drive((0..r.conns).map(|_| server.client()).collect(), &queries, r.window);
    let bare_metrics = server.metrics().to_json();
    server.shutdown();
    let backend = shared.clone();
    let router =
        Router::start_with(RouterConfig { shards: 1, ..RouterConfig::default() }, move |_| {
            backend.clone()
        });
    drive((0..r.conns).map(|_| router.client()).collect(), &queries, r.window);
    let router_s = drive((0..r.conns).map(|_| router.client()).collect(), &queries, r.window);
    let probe_router_metrics = router.metrics();
    router.shutdown();
    m.insert("router.hop_us_per_req", (router_s - server_s) / n * 1e6);
    let resilience = wire.router_metrics.unwrap_or(&probe_router_metrics);
    for (name, field) in [
        ("router.retries", "retries"),
        ("router.failovers", "failovers"),
        ("router.reorder_drops", "reorder_drops"),
    ] {
        m.insert(name, num(resilience, &["resilience", field]));
    }

    // Ring placement: canonical-key hash plus ring lookup, per request,
    // over the production fleet shape (4 shards × 64 points).
    let ring = HashRing::with_shards(4, 64);
    let mut per_shard = [0u64; 4];
    let t = Instant::now();
    for q in &queries {
        if let Some(s) = ring.route(routing_hash(std::hint::black_box(q))) {
            per_shard[s] += 1;
        }
    }
    m.insert("router.ring_ns_per_req", t.elapsed().as_nanos() as f64 / n);
    let mean = per_shard.iter().sum::<u64>() as f64 / 4.0;
    m.insert(
        "router.shard_imbalance",
        *per_shard.iter().max().unwrap_or(&0) as f64 / mean.max(1.0),
    );

    // Batcher: the served server's own `metrics` op, or (route-cold, whose
    // router refuses per-shard ops) the bare server of the hop probe.
    let batcher = wire.server_metrics.unwrap_or(&bare_metrics);
    let batches = num(batcher, &["stats", "batches"]);
    let fill = num(batcher, &["stats", "avg_batch_fill"]);
    m.insert("batcher.batches", batches);
    m.insert("batcher.avg_fill", fill);
    m.insert(
        "batcher.cross_client_dedup_hits",
        num(batcher, &["stats", "cross_client_dedup_hits"]),
    );
    // Log2 bucket edges, not precise times (see README).
    m.insert("batcher.queue_p50_us", num(batcher, &["stages", "queue", "p50_ns"]) / 1e3);
    m.insert("batcher.window_p50_us", num(batcher, &["stages", "window", "p50_ns"]) / 1e3);

    // Stage recording: an in-process server with `observe` on against one
    // with it off; three alternations, medians, second pass timed.
    let mut on = Vec::new();
    let mut off = Vec::new();
    for _ in 0..3 {
        for observe in [true, false] {
            let server =
                Server::start(shared.clone(), ServerConfig { observe, ..ServerConfig::default() });
            drive((0..r.conns).map(|_| server.client()).collect(), &queries, r.window);
            let s = drive((0..r.conns).map(|_| server.client()).collect(), &queries, r.window);
            server.shutdown();
            if observe {
                on.push(s)
            } else {
                off.push(s)
            }
        }
    }
    m.insert("obs.overhead_frac", median(&on) / median(&off) - 1.0);

    // The pipeline replay, untraced then traced, from identical cold caches.
    let fill = (fill.round() as usize).max(1);
    let (plain_s, _, _) = replay(r.w, r.warm, r.lines, fill, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let (traced_s, counts, cache) = replay(r.w, r.warm, r.lines, fill, &mut tracer);
    tracer.write_jsonl(spans_path)?;
    tally.mismatch += counts.mismatches;
    tally.checked += counts.requests;
    let st = tracer.self_times();
    let total = |name: &str| st.get(name).map_or(0.0, |e| e.1 as f64);
    let own = |name: &str| st.get(name).map_or(0.0, |e| e.2 as f64);
    let reqs = counts.requests.max(1) as f64;
    let nb = counts.batches.max(1) as f64;
    m.insert("trace.overhead_frac", traced_s / plain_s - 1.0);
    m.insert("trace.unattributed_frac", (own("replay") + own("batch")) / total("replay").max(1.0));
    m.insert("jsonl.parse_us_per_req", total("jsonl.parse") / reqs / 1e3);
    m.insert("jsonl.render_us_per_req", total("jsonl.render") / reqs / 1e3);
    m.insert("plan.us_per_batch", total("plan") / nb / 1e3);
    m.insert("plan.dedup_us_per_batch", counts.dedup_ns as f64 / nb / 1e3);
    m.insert("plan.dedup_factor", counts.atoms as f64 / counts.unique.max(1) as f64);
    let cs = cache.stats();
    m.insert("cache.hit_rate", cs.hit_rate());
    m.insert("cache.evictions", cs.evictions as f64);

    // Exec: every miss of the replay (warm pass included); model keys
    // re-timed serially and fanned out, solves from their exec spans.
    let misses = counts.model_misses.len() as u64 + counts.solve_evals;
    m.insert("exec.evaluated", misses as f64);
    let serial = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let (mut serial_s, mut par_s, mut groups, mut keys) = (0.0, 0.0, 0usize, 0usize);
    for group in counts.model_misses.chunks(fill.max(2)).filter(|g| g.len() >= 2) {
        keys += group.len();
        let t = Instant::now();
        std::hint::black_box(exec::evaluate_all(group, Some(&serial)));
        serial_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(exec::evaluate_all(group, None));
        par_s += t.elapsed().as_secs_f64();
        groups += 1;
    }
    let threads = rayon::current_num_threads() as f64;
    m.insert("exec.model_us_per_eval", if keys == 0 { 0.0 } else { serial_s / keys as f64 * 1e6 });
    m.insert(
        "exec.batch_fanout_us",
        if groups == 0 { 0.0 } else { (par_s - serial_s / threads) / groups as f64 * 1e6 },
    );
    m.insert(
        "exec.solve_ms_per_eval",
        if counts.solve_evals == 0 { 0.0 } else { total("exec") / counts.solve_evals as f64 / 1e6 },
    );

    solver_probe(&specs, &mut m);
    kernel_probe(&specs, &mut m);
    m.insert("pool.fanout_us", pool_fanout_us());

    let late = {
        let mut v: Vec<f64> = wire.lateness.iter().map(|&ns| ns as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            crate::stats::percentile(&v, 99.0)
        }
    };
    m.insert("driver.late_p99_ms", late);
    m.insert("driver.cpu_frac", wire.driver_cpu_frac);
    m.insert("driver.warmup_s", wire.warmup_s);
    m.insert("box.nproc", calib.nproc as f64);
    m.insert("box.memcpy_gbps", calib.memcpy_gbps);
    m.insert("box.fused_mpts_1023", calib.fused_mpts_1023);
    Ok((m, tally))
}

/// TCP closed loop into an in-process server against the same lines
/// through its in-process clients, both cache-warm: (tcp s, in-process s).
fn frontend_probe(
    r: &Replayed,
    engine: &Arc<Engine>,
    (lines, refs): (&[String], &[String]),
    queries: &[Query],
) -> io::Result<(f64, f64, Tally)> {
    let mut server = Server::start(engine.clone(), ServerConfig::default());
    let addr = server.listen("127.0.0.1:0")?;
    drive((0..r.conns).map(|_| server.client()).collect(), queries, r.window);
    let conns = r.conns;
    let len = lines.len();
    let tcp = closed_pool(addr, conns, r.window, lines, refs, None, |c| {
        let mut i = c;
        Box::new(move || {
            let out = (i < len).then_some(i);
            i += conns;
            out
        })
    })?;
    let inproc = drive((0..r.conns).map(|_| server.client()).collect(), queries, r.window);
    server.shutdown();
    Ok((tcp.elapsed, inproc, tcp.tally))
}

fn num(v: &Json, path: &[&str]) -> f64 {
    path.iter().try_fold(v, |v, k| v.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The distinct solves of the workload, or — for model workloads, which
/// never reach the solver — a fixed n = 63 probe set, so the metric
/// exists and its prediction ("no change") can be checked.
fn solve_specs(queries: &[Query]) -> Vec<Query> {
    let specs: Vec<Query> =
        queries.iter().filter(|q| matches!(q, Query::Solve { .. })).cloned().collect();
    if !specs.is_empty() {
        return specs;
    }
    ["sor", "rbsor", "jacobi", "parallel"]
        .iter()
        .map(|s| {
            let line = format!(
                "{{\"op\":\"solve\",\"version\":2,\"n\":63,\"solver\":\"{s}\",\"tol\":1e-6,\"partitions\":2}}"
            );
            jsonl::parse_query(&line).expect("probe line parses").query
        })
        .collect()
}

/// Direct solver calls at each solve spec, serial and (where the solver
/// has a switch) parallel: exact iteration counts, serial rate, and the
/// parallel/serial time ratio; plus the partitioned executor's exchanges.
fn solver_probe(queries: &[Query], m: &mut BTreeMap<&'static str, f64>) {
    let (mut iters, mut points, mut serial_s) = (0u64, 0f64, 0f64);
    let (mut paired_serial, mut paired_par, mut exchanges) = (0f64, 0f64, 0u64);
    for q in solve_specs(queries) {
        let Query::Solve { n, solver, tol, stencil, partitions, max_iters, check } = q else {
            continue;
        };
        let problem = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let stencil = stencil.to_stencil().unwrap_or_else(Stencil::five_point);
        let policy = check.unwrap_or_else(|| solver.default_check()).to_policy();
        let timed = |f: &mut dyn FnMut() -> usize| {
            let t = Instant::now();
            let it = f();
            (it, t.elapsed().as_secs_f64())
        };
        let (it, s, par) = match solver {
            SolverKind::Jacobi | SolverKind::Parallel => {
                let jac = JacobiSolver { tol, max_iters, check: policy, ..JacobiSolver::default() };
                let (it, s) = timed(&mut || jac.solve(&problem, &stencil).1.iterations);
                let par = if solver == SolverKind::Parallel {
                    let d = StripDecomposition::new(n, partitions.clamp(1, n));
                    let depth = 4.min(policy.first_check()).max(1);
                    let mut pj = PartitionedJacobi::with_depth(&problem, &stencil, &d, depth);
                    let (_, ps) = timed(&mut || pj.solve(tol, max_iters, policy).iterations);
                    exchanges += pj.exchanges() as u64;
                    ps
                } else {
                    timed(&mut || jac.parallel().solve(&problem, &stencil).1.iterations).1
                };
                (it, s, Some(par))
            }
            SolverKind::RedBlack => {
                let rb = RedBlackSolver { max_iters, ..RedBlackSolver::optimal(n, tol) };
                let (it, s) = timed(&mut || rb.sequential().solve(&problem).1.iterations);
                let (_, ps) = timed(&mut || rb.solve(&problem).1.iterations);
                (it, s, Some(ps))
            }
            SolverKind::Sor => {
                let sor = SorSolver { max_iters, check: policy, ..SorSolver::optimal(n, tol) };
                let (it, s) = timed(&mut || sor.solve(&problem, &stencil).1.iterations);
                (it, s, None)
            }
            SolverKind::Multigrid => {
                let mg = MultigridSolver {
                    tol,
                    max_cycles: max_iters.min(1000),
                    ..MultigridSolver::default()
                };
                let (it, s) = timed(&mut || mg.solve(&problem).1.iterations);
                (it, s, None)
            }
            SolverKind::Cg => continue,
        };
        iters += it as u64;
        points += (n * n * it) as f64;
        serial_s += s;
        if let Some(p) = par {
            paired_serial += s;
            paired_par += p;
        }
    }
    m.insert("solver.iterations", iters as f64);
    m.insert("solver.mpts", points / serial_s.max(1e-12) / 1e6);
    m.insert(
        "solver.par_over_serial",
        if paired_serial > 0.0 { paired_par / paired_serial } else { 0.0 },
    );
    m.insert("halo.exchanges", exchanges as f64);
}

/// Fused single-thread and row-parallel sweep rates at the workload's grid
/// sides and stencils (the probe set's for model workloads).
fn kernel_probe(queries: &[Query], m: &mut BTreeMap<&'static str, f64>) {
    let mut cases: Vec<(usize, Stencil)> = Vec::new();
    for q in solve_specs(queries) {
        if let Query::Solve { n, stencil, .. } = q {
            let s = stencil.to_stencil().unwrap_or_else(Stencil::five_point);
            if !cases.iter().any(|(cn, cs)| *cn == n && cs.name() == s.name()) {
                cases.push((n, s));
            }
        }
    }
    let (mut pts, mut fused_s, mut par_s, mut flops, mut bytes) = (0f64, 0f64, 0f64, 0f64, 0f64);
    for (n, stencil) in &cases {
        let p = (n * n) as f64;
        let fused = sweep_mpts(*n, stencil, false);
        let par = sweep_mpts(*n, stencil, true);
        pts += p;
        fused_s += p / fused;
        par_s += p / par;
        flops += p * stencil.flops_per_point();
        // Computed, not measured: one read of the padded source and the
        // forcing, one write of the destination, per interior point.
        let padded = ((n + 2 * stencil.reach()) * (n + 2 * stencil.reach())) as f64;
        bytes += 8.0 * (2.0 * padded + p);
    }
    m.insert("kernel.fused_mpts", pts / fused_s);
    m.insert("kernel.par_mpts", pts / par_s);
    m.insert("kernel.gflops", flops / fused_s / 1e3);
    m.insert("kernel.bytes_per_pt", bytes / pts);
}

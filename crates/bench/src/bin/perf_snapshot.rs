//! Machine-readable performance snapshot → `target/perf_snapshot.json`.
//!
//! Sections, each a paper-relevant hot path:
//!
//! * **kernels** (PR 3): for each catalogue stencil, the full-interior
//!   Jacobi sweep — generic tap-driven vs fused row-slice vs fused rayon
//!   row-parallel — in million point updates per second (`mpts`) and
//!   derived MFLOP/s;
//! * **solver_loop** (PR 4): the end-to-end weighted-Jacobi iteration at
//!   n = 1024, single thread — the historical three-pass loop (sweep,
//!   ω-blend, convergence-diff, each streaming the whole grid) against
//!   the fused single-pass loop, and against the temporally tiled
//!   block-of-k loop under a sparse (geometric) check schedule;
//! * **deep_halo** (PR 4): the partitioned executor at equal iterates —
//!   exchange rounds with depth-1 halos vs depth-4 halos (one exchange
//!   funding a block of local sub-iterations), the paper's per-iteration
//!   communication-overhead knob;
//! * **server** (PR 5): the serving layer's problem-size tradeoff — a
//!   10 000-request duplicated workload dispatched one request at a time
//!   (every dispatch pays the whole per-batch coordination cost for a
//!   problem of size 1) vs the same requests pipelined by concurrent
//!   clients through the cross-client micro-batcher (≥ 2× required);
//! * **observability** (PR 6): the same micro-batched workload with
//!   per-stage latency recording off vs on — the instrumentation
//!   overhead (≤ 5% required at full size) — plus the per-stage p50s of
//!   the observed run, the paper's `k(P,S)` overhead term measured
//!   instead of modeled;
//! * **sharding** (PR 7): the paper's optimal-`P` argument replayed on
//!   the serving fleet — a duplicated workload over `D` distinct cache
//!   keys against `C`-entry shard caches, swept across fleet sizes
//!   through the consistent-hash router. Small fleets thrash (the
//!   aggregate cache cannot hold the working set: the per-processor
//!   memory constraint of §3), large fleets fragment the same traffic
//!   into more, smaller micro-batches (per-batch coordination paid more
//!   often: `k(P,S)` rising with `P` — Gunther's retrograde region), and
//!   `parspeed route --predict`'s `Query::Optimize` pipeline must land
//!   within ±1 of the empirically best fleet size (≥ 2× single-server
//!   throughput at 4 shards required);
//! * **robustness** (PR 8): the resilience layer under a scripted fault
//!   — a 4-shard fleet loses one shard to a seeded
//!   [`parspeed_chaos::FaultPlan`] kill halfway through the duplicated
//!   workload, and every reply slot must still answer, bit-identical to
//!   the serial engine, with the fault run's goodput at least 0.7× a
//!   clean 3-shard fleet's (the post-kill steady state); a serial
//!   closed-loop replay of the same seeded plan must produce the same
//!   event trace twice;
//! * **self_healing** (PR 9): the supervised fleet — a 4-shard fleet
//!   with the shard supervisor enabled loses shard 0 to a seeded kill
//!   halfway through the workload; the supervisor respawns it, replays
//!   its hot keys into the replacement's cache, and readmits it to the
//!   ring, and the *healed* fleet must then serve the same workload at
//!   ≥ 0.95× the throughput of a fleet that never faulted (≥ 0.8×
//!   under --quick noise), with zero dropped requests, bit-identical
//!   replies, and a reproducible kill → respawn → warmup → rejoin
//!   event trace;
//! * **server_io**: the event loop's own connection-scaling curve over
//!   real sockets — the same per-connection workload at 10, 100, and
//!   1000 concurrent connections. Every rung must be *served* (every
//!   reply delivered) on a flat thread budget: process thread-count
//!   growth while the connections are open stays at most 8, because one
//!   loop thread multiplexes them all. Throughput per rung is recorded,
//!   not gated;
//! * **pool**: the worker pool's thread count following problem size —
//!   at each grid side, the 5-point row-parallel sweep against the fused
//!   single-thread sweep, with the threads the pool chose, the compute
//!   time (the single-thread sweep) and the calibrated fan-out/sync time
//!   of that thread count reported separately. The parallel path must
//!   never be slower than the fused one at any size (within a noise band)
//!   and must stay bit-identical.
//!
//! ```text
//! cargo run --release -p parspeed-bench --bin perf_snapshot            # n=1024 → target/perf_snapshot.json
//! cargo run --release -p parspeed-bench --bin perf_snapshot -- --quick --check --out target/smoke.json
//! ```
//!
//! `--quick` shrinks the grids, request counts, and measurement time
//! (the CI smoke configuration); `--check` re-parses the written JSON
//! and fails unless every fused kernel is at least as fast as the
//! generic sweep, the fused solver loop beats the three-pass loop, deep
//! halos at least halve the exchange count, the micro-batched server
//! beats per-request dispatch (≥ 2× full-size, ≥ 1.3× under the noisy
//! quick configuration), stage recording stays within its overhead
//! budget with every stage histogram populated, the sharded fleet beats
//! the single server (≥ 2× at 4 shards full-size, ≥ 1.3× quick) with
//! the predicted fleet size within ±1 of the measured best, the fault
//! run drops zero requests with a reproducible event trace and recovers
//! ≥ 0.7× the 3-shard baseline (≥ 0.5× under --quick noise), every
//! event-loop rung is served complete on at most 8 extra threads, the
//! row-parallel sweep keeps at least 0.85× the fused rate at every pool
//! rung (0.8× under --quick noise), and everything is bit-identical;
//! `--out PATH` overrides the output path.

use parspeed_chaos::FaultPlan;
use parspeed_engine::jsonl::{self, Json};
use parspeed_engine::{ArchKind, Engine, Query, Request, Response, SolverKind};
use parspeed_exec::PartitionedJacobi;
use parspeed_grid::{Grid2D, Region, StripDecomposition};
use parspeed_router::predict::{predict, FleetModel, SweepPoint, WorkloadProfile};
use parspeed_router::{Router, RouterConfig, SupervisorPolicy};
use parspeed_server::{Server, ServerConfig};
use parspeed_solver::apply::{
    jacobi_sweep, jacobi_sweep_par, jacobi_sweep_region_generic, sweep_seconds,
};
use parspeed_solver::{CheckPolicy, JacobiSolver, PoissonProblem};
use parspeed_stencil::Stencil;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct Config {
    n: usize,
    solve_iters: usize,
    halo_n: usize,
    min_time: f64,
    trials: usize,
    server_requests: usize,
    /// Sharding section: requests, distinct cache keys, per-shard cache
    /// capacity, fleet sizes to sweep, and the largest fleet `--predict`
    /// may propose.
    shard_requests: usize,
    shard_distinct: usize,
    shard_capacity: usize,
    shard_sweep: &'static [usize],
    shard_max: usize,
    /// server_io section: the connection counts of the event loop's
    /// scaling curve, and requests per connection.
    io_conns: &'static [usize],
    io_requests_per_conn: usize,
    /// pool section: the grid sides of the size-follows-work curve.
    pool_sides: &'static [usize],
    quick: bool,
    check: bool,
    out: String,
}

struct Row {
    stencil: &'static str,
    taps: usize,
    flops_per_point: f64,
    generic_mpts: f64,
    fused_mpts: f64,
    par_mpts: f64,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        n: 1024,
        solve_iters: 60,
        halo_n: 256,
        min_time: 0.25,
        trials: 3,
        server_requests: 10_000,
        shard_requests: 10_000,
        shard_distinct: 144,
        shard_capacity: 36,
        shard_sweep: &[1, 2, 3, 4, 6, 8],
        shard_max: 8,
        io_conns: &[10, 100, 1000],
        io_requests_per_conn: 50,
        pool_sides: &[31, 63, 127, 255, 511, 1023],
        quick: false,
        check: false,
        out: "target/perf_snapshot.json".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                cfg.n = 256;
                cfg.solve_iters = 24;
                cfg.halo_n = 96;
                cfg.min_time = 0.04;
                cfg.trials = 2;
                cfg.server_requests = 2_000;
                cfg.shard_requests = 2_000;
                cfg.shard_distinct = 64;
                cfg.shard_capacity = 16;
                cfg.shard_sweep = &[1, 2, 4];
                cfg.shard_max = 4;
                cfg.io_conns = &[5, 50, 500];
                cfg.io_requests_per_conn = 10;
                cfg.pool_sides = &[31, 127, 511];
                cfg.quick = true;
            }
            "--check" => cfg.check = true,
            "--out" => cfg.out = args.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?} (expected --quick, --check, --out PATH)"),
        }
    }
    cfg
}

fn setup(n: usize, halo: usize) -> (Grid2D, Grid2D) {
    let mut src = Grid2D::from_fn(n, n, halo, |r, c| ((r * 31 + c * 17) % 97) as f64 * 0.01);
    src.fill_halo(0.5);
    let f = Grid2D::from_fn(n, n, 0, |r, c| ((r + c) % 5) as f64);
    (src, f)
}

/// Best observed sweep rate (million point updates per second) over
/// `trials` timed windows of at least `min_time` seconds each.
fn measure(cfg: &Config, sweep: impl FnMut()) -> f64 {
    measure_at(cfg, cfg.n, sweep)
}

/// [`measure`] for a sweep of an `n × n` grid.
fn measure_at(cfg: &Config, n: usize, mut sweep: impl FnMut()) -> f64 {
    sweep(); // warm up caches and the rayon pool
    let points = (n * n) as f64;
    let mut best = 0.0f64;
    for _ in 0..cfg.trials {
        let mut reps = 0u64;
        let start = Instant::now();
        loop {
            sweep();
            reps += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= cfg.min_time {
                best = best.max(points * reps as f64 / elapsed / 1e6);
                break;
            }
        }
    }
    best
}

fn snapshot(cfg: &Config) -> (Vec<Row>, bool) {
    let mut rows = Vec::new();
    let mut identical = true;
    for s in Stencil::catalog() {
        let halo = s.reach();
        let (src, f) = setup(cfg.n, halo);
        let mut dst = Grid2D::new(cfg.n, cfg.n, halo);
        let h2 = 1e-4;
        let region = Region::new(0, cfg.n, 0, cfg.n);

        let mut generic_out = Grid2D::new(cfg.n, cfg.n, halo);
        jacobi_sweep_region_generic(&s, &src, &mut generic_out, &f, h2, &region, (0, 0));
        let mut fused_out = Grid2D::new(cfg.n, cfg.n, halo);
        jacobi_sweep(&s, &src, &mut fused_out, &f, h2);
        if fused_out.max_abs_diff(&generic_out) != 0.0 {
            eprintln!("BIT-IDENTITY VIOLATION: {} fused differs from generic", s.name());
            identical = false;
        }

        let generic_mpts = measure(cfg, || {
            jacobi_sweep_region_generic(&s, black_box(&src), &mut dst, &f, h2, &region, (0, 0))
        });
        let fused_mpts = measure(cfg, || jacobi_sweep(&s, black_box(&src), &mut dst, &f, h2));
        let par_mpts = measure(cfg, || jacobi_sweep_par(&s, black_box(&src), &mut dst, &f, h2));

        rows.push(Row {
            stencil: s.name(),
            taps: s.tap_count(),
            flops_per_point: s.flops_per_point(),
            generic_mpts,
            fused_mpts,
            par_mpts,
        });
    }
    (rows, identical)
}

/// One grid side of the pool section.
struct PoolRung {
    n: usize,
    /// Threads the pool chose for one sweep of this grid.
    threads: usize,
    fused_mpts: f64,
    par_mpts: f64,
    identical: bool,
}

impl PoolRung {
    /// Compute time: one single-thread fused sweep, in µs.
    fn compute_us(&self) -> f64 {
        (self.n * self.n) as f64 / self.fused_mpts
    }

    /// The measured row-parallel sweep, in µs.
    fn par_us(&self) -> f64 {
        (self.n * self.n) as f64 / self.par_mpts
    }
}

struct PoolBench {
    fanout: rayon::Fanout,
    rungs: Vec<PoolRung>,
}

impl PoolBench {
    /// Calibrated fan-out/sync time of `threads` threads, in µs.
    fn fanout_us(&self, threads: usize) -> f64 {
        self.fanout.seconds(threads) * 1e6
    }
}

/// The row-parallel 5-point sweep against the fused single-thread sweep
/// at each grid side: the thread count the pool picks from the sweep's
/// work, and what that choice buys.
fn snapshot_pool(cfg: &Config) -> PoolBench {
    let s = Stencil::five_point();
    let rungs = cfg
        .pool_sides
        .iter()
        .map(|&n| {
            let (src, f) = setup(n, s.reach());
            let h2 = 1e-4;
            let mut fused_out = Grid2D::new(n, n, s.reach());
            let mut par_out = Grid2D::new(n, n, s.reach());
            jacobi_sweep(&s, &src, &mut fused_out, &f, h2);
            jacobi_sweep_par(&s, &src, &mut par_out, &f, h2);
            let threads = rayon::threads_for(sweep_seconds(n * n, s.flops_per_point()));
            let mut dst = Grid2D::new(n, n, s.reach());
            let fused_mpts =
                measure_at(cfg, n, || jacobi_sweep(&s, black_box(&src), &mut dst, &f, h2));
            let par_mpts =
                measure_at(cfg, n, || jacobi_sweep_par(&s, black_box(&src), &mut dst, &f, h2));
            PoolRung {
                n,
                threads,
                fused_mpts,
                par_mpts,
                identical: fused_out.max_abs_diff(&par_out) == 0.0,
            }
        })
        .collect();
    // Uncalibrated (a box too busy for helpers to meet), every sweep ran
    // inline: report a zero fan-out.
    let fanout = rayon::fanout().unwrap_or(rayon::Fanout { per_thread: 0.0, fixed: 0.0 });
    PoolBench { fanout, rungs }
}

struct SolverLoop {
    omega: f64,
    three_pass_mpts: f64,
    fused_mpts: f64,
    temporal_three_pass_mpts: f64,
    temporal_mpts: f64,
    identical: bool,
}

/// The historical weighted-Jacobi loop: one whole-grid sweep, a separate
/// whole-grid ω-blend pass, and a separate whole-grid max-diff pass at
/// every scheduled check — exactly what `JacobiSolver::solve` did before
/// the passes were fused.
fn three_pass_iterates(
    p: &PoissonProblem,
    s: &Stencil,
    omega: f64,
    iters: usize,
    check: CheckPolicy,
) -> Grid2D {
    let halo = s.reach();
    let h2 = p.h() * p.h();
    let mut u = p.initial_grid(halo);
    let mut next = p.initial_grid(halo);
    let f = p.forcing();
    let mut next_check = check.first_check();
    let mut diff = f64::INFINITY;
    for it in 1..=iters {
        jacobi_sweep(s, &u, &mut next, f, h2);
        if omega != 1.0 {
            for r in 0..u.rows() {
                let urow = u.interior_row(r).to_vec();
                for (nv, &uv) in next.interior_row_mut(r).iter_mut().zip(&urow) {
                    *nv = omega * *nv + (1.0 - omega) * uv;
                }
            }
        }
        if it >= next_check.min(iters) {
            diff = u.max_abs_diff(&next);
            while next_check <= it {
                next_check = check.next_check(next_check);
            }
        }
        u.swap(&mut next);
    }
    black_box(diff);
    u
}

/// Best observed iteration rate (million point updates per second) of a
/// closure running `iters` whole-grid iterations.
fn measure_solve(cfg: &Config, iters: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm up
    let points = (cfg.n * cfg.n * iters) as f64;
    let mut best = 0.0f64;
    for _ in 0..cfg.trials {
        let start = Instant::now();
        run();
        best = best.max(points / start.elapsed().as_secs_f64() / 1e6);
    }
    best
}

/// End-to-end solver-loop measurement: pass fusion under an every-
/// iteration schedule, temporal tiling under the sparse geometric one.
fn snapshot_solver_loop(cfg: &Config) -> SolverLoop {
    let omega = 0.8;
    let s = Stencil::five_point();
    let p = PoissonProblem::laplace(cfg.n, 1.0);
    let iters = cfg.solve_iters;
    let solver =
        |check| JacobiSolver { tol: 0.0, max_iters: iters, check, omega, ..Default::default() };

    // Bit-identity first: the fused/tiled solves must reproduce the
    // three-pass loop exactly under both schedules.
    let mut identical = true;
    for check in [CheckPolicy::Every(1), CheckPolicy::geometric()] {
        let reference = three_pass_iterates(&p, &s, omega, iters, check);
        let (u, status) = solver(check).solve(&p, &s);
        if status.iterations != iters || u.max_abs_diff(&reference) != 0.0 {
            eprintln!("BIT-IDENTITY VIOLATION: fused solver loop differs under {check:?}");
            identical = false;
        }
    }

    let three_pass_mpts = measure_solve(cfg, iters, || {
        black_box(three_pass_iterates(&p, &s, omega, iters, CheckPolicy::Every(1)));
    });
    let fused_mpts = measure_solve(cfg, iters, || {
        black_box(solver(CheckPolicy::Every(1)).solve(&p, &s));
    });
    let temporal_three_pass_mpts = measure_solve(cfg, iters, || {
        black_box(three_pass_iterates(&p, &s, omega, iters, CheckPolicy::geometric()));
    });
    let temporal_mpts = measure_solve(cfg, iters, || {
        black_box(solver(CheckPolicy::geometric()).solve(&p, &s));
    });
    SolverLoop {
        omega,
        three_pass_mpts,
        fused_mpts,
        temporal_three_pass_mpts,
        temporal_mpts,
        identical,
    }
}

struct DeepHalo {
    strips: usize,
    depth: usize,
    iterations: usize,
    check_period: usize,
    exchanges_depth1: usize,
    exchanges_deep: usize,
    identical: bool,
}

/// Exchange-round counts at equal iterates: depth-1 vs deep halos under
/// the same check schedule (the counts are deterministic; wall time is
/// covered by the criterion benches).
fn snapshot_deep_halo(cfg: &Config) -> DeepHalo {
    let (strips, depth, check_period) = (8usize, 4usize, 8usize);
    let iterations = 64usize;
    let s = Stencil::five_point();
    let p = PoissonProblem::laplace(cfg.halo_n, 1.0);
    let policy = CheckPolicy::Every(check_period);
    let decomp = StripDecomposition::new(cfg.halo_n, strips);
    let mut shallow = PartitionedJacobi::new(&p, &s, &decomp);
    let mut deep = PartitionedJacobi::with_depth(&p, &s, &decomp, depth);
    // tol = 0 never converges: both run exactly `iterations` iterations
    // under the same schedule.
    shallow.solve(0.0, iterations, policy);
    deep.solve(0.0, iterations, policy);
    let identical = shallow.solution().max_abs_diff(&deep.solution()) == 0.0
        && shallow.iterations() == iterations
        && deep.iterations() == iterations;
    if !identical {
        eprintln!("BIT-IDENTITY VIOLATION: deep-halo run differs from depth-1");
    }
    DeepHalo {
        strips,
        depth,
        iterations,
        check_period,
        exchanges_depth1: shallow.exchanges(),
        exchanges_deep: deep.exchanges(),
        identical,
    }
}

struct ServerBench {
    requests: usize,
    clients: usize,
    distinct: usize,
    serial_seconds: f64,
    batched_seconds: f64,
    batches: u64,
    avg_batch_fill: f64,
    cross_client_dedup_hits: u64,
    identical: bool,
}

impl ServerBench {
    fn speedup(&self) -> f64 {
        self.serial_seconds / self.batched_seconds
    }
}

/// The duplicated serving workload: a small distinct pool cycled to
/// `total` requests, so most traffic is a near-duplicate of somebody
/// else's — the regime where cross-client dedup pays. The pool mixes
/// cheap point queries with the service's genuinely expensive kinds
/// (all-architecture compares, grid sweeps, real numerical solves), the
/// mix a capacity-planning service actually fields.
fn server_workload(total: usize) -> (Vec<Query>, usize) {
    let mut pool: Vec<Query> = (0..16)
        .map(|i| Request::optimize(ArchKind::SyncBus, 64 + 16 * i).procs(32 + i).query())
        .collect();
    for i in 0..6 {
        pool.push(Request::compare(96 + 32 * i).query());
    }
    for i in 0..4 {
        pool.push(Request::sweep(64, 256 + 64 * i).query());
        pool.push(
            Request::solve(15)
                .solver(SolverKind::Cg)
                .tol(1e-6 / (i + 1) as f64)
                .max_iters(10_000)
                .query(),
        );
    }
    for n in [9, 11] {
        pool.push(Request::solve(n).solver(SolverKind::Jacobi).tol(1e-6).max_iters(10_000).query());
    }
    let distinct = pool.len();
    let queries = (0..total).map(|i| pool[i % distinct].clone()).collect();
    (queries, distinct)
}

/// Cross-client micro-batching vs per-request serial dispatch on the
/// same duplicated workload, best of `cfg.trials` runs each. The serial
/// baseline is the workspace's canonical one (the PR-1/PR-2 acceptance
/// gates use it too): [`eval_naive`](parspeed_engine::eval_naive), each
/// request dispatched alone, straight into the models — no batch to
/// plan, no dedup, no cache, exactly what a frontend answering every
/// request independently would do. The micro-batcher's whole point is
/// that coalescing concurrent requests into one batch buys back that
/// amortization *across clients*; this measures how much.
fn snapshot_server(cfg: &Config) -> ServerBench {
    let clients = 8usize;
    let (queries, distinct) = server_workload(cfg.server_requests);

    // Reference answers for the bit-identity check.
    let reference = Engine::default().run_batch(&queries[..distinct.min(queries.len())]);
    let expect = |i: usize| &reference.responses[i % distinct];

    let mut serial_seconds = f64::INFINITY;
    let mut identical = true;
    for _ in 0..cfg.trials {
        let start = Instant::now();
        for q in &queries {
            let out = parspeed_engine::eval_naive(std::slice::from_ref(q));
            black_box(&out);
        }
        serial_seconds = serial_seconds.min(start.elapsed().as_secs_f64());
    }

    let mut batched_seconds = f64::INFINITY;
    let mut batches = 0u64;
    let mut avg_batch_fill = 0.0f64;
    let mut cross_client_dedup_hits = 0u64;
    for _ in 0..cfg.trials {
        let server = Server::start(
            Arc::new(Engine::default()),
            ServerConfig {
                window: Duration::from_micros(200),
                max_batch: 1024,
                workers: 2,
                queue_depth: cfg.server_requests,
                ..ServerConfig::default()
            },
        );
        let barrier = Arc::new(Barrier::new(clients + 1));
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = server.client();
                let barrier = Arc::clone(&barrier);
                // Deal the workload round-robin so every client's stream
                // duplicates every other client's.
                let share: Vec<Query> = queries.iter().skip(c).step_by(clients).cloned().collect();
                let offsets: Vec<usize> = (0..queries.len()).skip(c).step_by(clients).collect();
                std::thread::spawn(move || {
                    barrier.wait();
                    for q in &share {
                        client.submit(q.clone());
                    }
                    let replies: Vec<Response> =
                        (0..share.len()).map(|_| client.recv().1).collect();
                    (offsets, replies)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("client")).collect();
        let elapsed = start.elapsed().as_secs_f64();
        for (offsets, replies) in &results {
            for (offset, reply) in offsets.iter().zip(replies) {
                if reply != expect(*offset) {
                    eprintln!("BIT-IDENTITY VIOLATION: server reply for request {offset} differs");
                    identical = false;
                }
            }
        }
        let stats = server.shutdown();
        if stats.completed as usize != cfg.server_requests || stats.overloaded != 0 {
            eprintln!("SERVER BENCH ANOMALY: {stats}");
            identical = false;
        }
        // Keep the batching telemetry of the same trial whose time is
        // reported, so the snapshot's fill/dedup numbers describe the
        // run behind the recorded speedup.
        if elapsed < batched_seconds {
            batched_seconds = elapsed;
            batches = stats.batches;
            avg_batch_fill = stats.avg_batch_fill();
            cross_client_dedup_hits = stats.cross_client_dedup_hits;
        }
    }

    ServerBench {
        requests: cfg.server_requests,
        clients,
        distinct,
        serial_seconds,
        batched_seconds,
        batches,
        avg_batch_fill,
        cross_client_dedup_hits,
        identical,
    }
}

struct ObsBench {
    requests: usize,
    clients: usize,
    unobserved_seconds: f64,
    observed_seconds: f64,
    /// Per stage: (name, sample count, p50 in microseconds), from the
    /// best observed run.
    stages: Vec<(&'static str, u64, f64)>,
}

impl ObsBench {
    fn overhead_frac(&self) -> f64 {
        self.observed_seconds / self.unobserved_seconds - 1.0
    }
}

/// One micro-batched run of the duplicated workload: fan the queries out
/// round-robin over `clients` pipelined in-process connections, return
/// the wall seconds and (when observing) the final metrics snapshot.
fn obs_trial(
    cfg: &Config,
    queries: &[Query],
    clients: usize,
    observe: bool,
) -> (f64, Option<parspeed_server::MetricsSnapshot>) {
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig {
            window: Duration::from_micros(200),
            max_batch: 1024,
            workers: 2,
            queue_depth: cfg.server_requests,
            observe,
            ..ServerConfig::default()
        },
    );
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let client = server.client();
            let barrier = Arc::clone(&barrier);
            let share: Vec<Query> = queries.iter().skip(c).step_by(clients).cloned().collect();
            std::thread::spawn(move || {
                barrier.wait();
                for q in &share {
                    client.submit(q.clone());
                }
                for _ in 0..share.len() {
                    black_box(client.recv());
                }
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("client");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let metrics = observe.then(|| server.metrics());
    let stats = server.shutdown();
    assert_eq!(stats.completed as usize, queries.len(), "observability trial lost requests");
    (elapsed, metrics)
}

/// The instrumentation-overhead measurement: the PR-5 server workload
/// with stage recording off vs on, best of `cfg.trials` each, plus the
/// per-stage medians of the best observed run — the measured `k(P,S)`
/// breakdown the snapshot exists to record.
fn snapshot_observability(cfg: &Config) -> ObsBench {
    let clients = 8usize;
    let (queries, _) = server_workload(cfg.server_requests);

    let mut unobserved_seconds = f64::INFINITY;
    for _ in 0..cfg.trials {
        unobserved_seconds = unobserved_seconds.min(obs_trial(cfg, &queries, clients, false).0);
    }
    let mut observed_seconds = f64::INFINITY;
    let mut best_metrics = None;
    for _ in 0..cfg.trials {
        let (elapsed, metrics) = obs_trial(cfg, &queries, clients, true);
        if elapsed < observed_seconds {
            observed_seconds = elapsed;
            best_metrics = metrics;
        }
    }
    let metrics = best_metrics.expect("at least one observed trial");
    let stages = metrics
        .stages
        .iter()
        .map(|(stage, s)| (stage.name(), s.count, s.p50_ns as f64 / 1e3))
        .collect();
    ObsBench {
        requests: cfg.server_requests,
        clients,
        unobserved_seconds,
        observed_seconds,
        stages,
    }
}

struct ShardingBench {
    requests: usize,
    clients: usize,
    distinct: usize,
    capacity: usize,
    single_seconds: f64,
    /// Best wall seconds per swept fleet size, in sweep order.
    sweep: Vec<SweepPoint>,
    memory_floor: usize,
    predicted: usize,
    empirical_best: usize,
    model: Option<FleetModel>,
    identical: bool,
}

impl ShardingBench {
    /// Throughput of the 4-shard fleet over the single server with the
    /// same per-node cache — the acceptance ratio.
    fn speedup4(&self) -> f64 {
        let t4 =
            self.sweep.iter().find(|p| p.shards == 4).expect("sweep includes 4 shards").seconds;
        self.single_seconds / t4
    }
}

/// The sharding workload: `distinct` cache keys, a mix of point
/// optimizations and real numerical solves, each distinct in its
/// parameters, so a key evicted from a C-entry shard cache costs real
/// model or solver work to recompute. Every query is a single atom, so
/// cache entries count workload keys 1:1 and the per-shard capacity is
/// exactly the paper's per-processor memory constraint. The solves
/// carry the miss cost: an unreachable tolerance never converges, so
/// each runs its exact `max_iters` budget — deterministic work,
/// bit-identical replies.
fn sharding_pool(distinct: usize) -> Vec<Query> {
    (0..distinct)
        .map(|i| match i % 4 {
            0 => Request::optimize(ArchKind::SyncBus, 64 + i).procs(16 + (i % 48)).query(),
            _ => {
                Request::solve(31).solver(SolverKind::Jacobi).tol(1e-300).max_iters(200 + i).query()
            }
        })
        .collect()
}

/// One in-process connection into either a single server or a routed
/// fleet — the sweep drives both through the same closed-credit loop.
trait FleetConn: Send + 'static {
    fn submit_query(&self, q: Query);
    fn recv_reply(&self) -> Response;
}

impl FleetConn for parspeed_server::Client {
    fn submit_query(&self, q: Query) {
        self.submit(q);
    }
    fn recv_reply(&self) -> Response {
        self.recv().1
    }
}

impl FleetConn for parspeed_router::RouterClient {
    fn submit_query(&self, q: Query) {
        self.submit(q);
    }
    fn recv_reply(&self) -> Response {
        self.recv().1
    }
}

/// Drives the duplicated workload through `conns` with a bounded credit
/// window per client (submit up to `credit` ahead, then one new request
/// per reply) and checks every reply against the serial reference.
/// Bounded in-flight credit is what real clients do, and it is what
/// makes the coordination cost visible: the fleet only ever holds
/// `clients × credit` requests, so more shards means each micro-batch
/// window closes over fewer requests and the per-batch cost is paid
/// more often — `k(P,S)` rising with `P`.
///
/// Returns wall seconds and whether every reply matched the reference.
fn drive_fleet<C: FleetConn>(
    conns: Vec<C>,
    shares: &[Vec<usize>],
    pool: &[Query],
    reference: &[Response],
    credit: usize,
) -> (f64, bool) {
    let clients = conns.len();
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = conns
        .into_iter()
        .zip(shares)
        .map(|(conn, share)| {
            let share = share.clone();
            let queries: Vec<Query> = share.iter().map(|&i| pool[i].clone()).collect();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut next = credit.min(queries.len());
                for q in &queries[..next] {
                    conn.submit_query(q.clone());
                }
                let mut replies = Vec::with_capacity(queries.len());
                for _ in 0..queries.len() {
                    replies.push(conn.recv_reply());
                    if next < queries.len() {
                        conn.submit_query(queries[next].clone());
                        next += 1;
                    }
                }
                (share, replies)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("client")).collect();
    let seconds = start.elapsed().as_secs_f64();
    let mut identical = true;
    for (share, replies) in &results {
        for (&idx, reply) in share.iter().zip(replies) {
            if reply != &reference[idx] {
                eprintln!("BIT-IDENTITY VIOLATION: fleet reply for pool key {idx} differs");
                identical = false;
            }
        }
    }
    (seconds, identical)
}

/// The paper's optimal-`P` experiment on the serving fleet: sweep the
/// router across fleet sizes on a duplicated workload whose `D` distinct
/// keys outsize one `C`-entry shard cache, measure the single-server
/// baseline with the same per-node cache, then hand the measured sweep
/// to `parspeed route --predict`'s pipeline and record where the
/// optimizer lands against the empirically best fleet size.
fn snapshot_sharding(cfg: &Config) -> ShardingBench {
    let clients = 8usize;
    let credit = 8usize;
    let (requests, distinct, capacity) =
        (cfg.shard_requests, cfg.shard_distinct, cfg.shard_capacity);
    let pool = sharding_pool(distinct);
    let reference = Engine::default().run_batch(&pool).responses;

    // Every client draws its share from the pool by its own LCG stream:
    // duplicated traffic in a smooth random order, so an over-capacity
    // LRU misses at the textbook rate instead of thrashing cyclically.
    let shares: Vec<Vec<usize>> = (0..clients)
        .map(|c| {
            let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1);
            (0..requests / clients)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 33) % distinct as u64) as usize
                })
                .collect()
        })
        .collect();

    // The per-node serving configuration, identical for the single
    // server and every shard: the cache capacity is the paper's
    // per-processor memory constraint.
    let node_config = ServerConfig {
        window: Duration::from_micros(50),
        max_batch: 512,
        workers: 2,
        queue_depth: requests,
        ..ServerConfig::default()
    };
    let node_engine =
        move || Arc::new(Engine::builder().cache_capacity(capacity).cache_shards(1).build());

    let mut identical = true;
    let mut single_seconds = f64::INFINITY;
    for _ in 0..cfg.trials {
        let server = Server::start(node_engine(), node_config);
        let conns: Vec<_> = (0..clients).map(|_| server.client()).collect();
        let (seconds, ok) = drive_fleet(conns, &shares, &pool, &reference, credit);
        identical &= ok;
        let stats = server.shutdown();
        if stats.completed as usize != requests || stats.overloaded != 0 {
            eprintln!("SHARDING BENCH ANOMALY (single server): {stats}");
            identical = false;
        }
        single_seconds = single_seconds.min(seconds);
    }

    let mut sweep = Vec::new();
    for &shards in cfg.shard_sweep {
        let mut best = f64::INFINITY;
        for _ in 0..cfg.trials {
            // 256 ring points per shard keeps the key split close to
            // even, so the cache-capacity knee lands where D/C says.
            let router = Router::start_with(
                RouterConfig {
                    shards,
                    replicas: 256,
                    backend: node_config,
                    ..RouterConfig::default()
                },
                move |_| node_engine(),
            );
            let conns: Vec<_> = (0..clients).map(|_| router.client()).collect();
            let (seconds, ok) = drive_fleet(conns, &shares, &pool, &reference, credit);
            identical &= ok;
            let stats = router.shutdown();
            let completed: u64 = stats.iter().map(|(_, s)| s.completed).sum();
            let overloaded: u64 = stats.iter().map(|(_, s)| s.overloaded).sum();
            if completed as usize != requests || overloaded != 0 {
                eprintln!("SHARDING BENCH ANOMALY ({shards} shards): {completed} completed");
                identical = false;
            }
            best = best.min(seconds);
        }
        sweep.push(SweepPoint { shards, seconds: best, degraded: false });
    }

    // The empirically best fleet size, with the optimizer's own
    // tie-break: among fleet sizes within measurement noise (5%) of the
    // fastest, the smallest wins — same time on fewer processors is
    // higher efficiency, exactly how the engine breaks model ties.
    let fastest = sweep.iter().map(|p| p.seconds).fold(f64::INFINITY, f64::min);
    let empirical_best = sweep
        .iter()
        .filter(|p| p.seconds <= fastest * 1.05)
        .map(|p| p.shards)
        .min()
        .expect("non-empty sweep");

    let profile = WorkloadProfile { distinct_keys: distinct, shard_capacity: capacity };
    let prediction =
        predict(profile, &sweep, cfg.shard_max).expect("the swept workload is feasible");

    ShardingBench {
        requests,
        clients,
        distinct,
        capacity,
        single_seconds,
        sweep,
        memory_floor: prediction.memory_floor,
        predicted: prediction.shards,
        empirical_best,
        model: prediction.model,
        identical,
    }
}

struct RobustnessBench {
    requests: usize,
    clients: usize,
    kill_at: usize,
    /// Clean 3-shard fleet on the same workload: the post-kill steady
    /// state the fault run must recover toward.
    baseline3_seconds: f64,
    /// 4-shard fleet with shard 0 killed at request `kill_at`.
    fault_seconds: f64,
    replies: usize,
    retries: u64,
    failovers: u64,
    trace_reproducible: bool,
    identical: bool,
}

impl RobustnessBench {
    /// Goodput of the fault run relative to the clean 3-shard baseline.
    /// The fault run has four shards for its first half, so anything
    /// below 1.0 is pure failover cost; the acceptance floor is 0.7.
    fn recovery_ratio(&self) -> f64 {
        self.baseline3_seconds / self.fault_seconds
    }
}

/// The resilience layer under a scripted fault: a 4-shard fleet loses
/// shard 0 to a seeded [`FaultPlan`] kill halfway through the same
/// duplicated workload the sharding section drives. Every in-flight
/// slot on the dying shard must fail over and answer bit-identical to
/// the serial engine — zero dropped requests — and the run's goodput
/// must hold at least 0.7× a clean 3-shard fleet's. A serial
/// closed-loop replay of a seeded kill plan then checks determinism:
/// the same seed must produce the same event trace twice.
fn snapshot_robustness(cfg: &Config) -> RobustnessBench {
    let clients = 8usize;
    let credit = 8usize;
    let (requests, distinct) = (cfg.shard_requests, cfg.shard_distinct);
    let kill_at = requests / 2;
    let pool = sharding_pool(distinct);
    let reference = Engine::default().run_batch(&pool).responses;
    let shares: Vec<Vec<usize>> = (0..clients)
        .map(|c| {
            let mut state = 0xA076_1D64_78BD_642Fu64.wrapping_mul(c as u64 + 1);
            (0..requests / clients)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 33) % distinct as u64) as usize
                })
                .collect()
        })
        .collect();

    // Full-capacity caches on every node: the measurement isolates the
    // failover machinery, not cache thrash (the sharding section owns
    // that axis).
    let node_config = ServerConfig {
        window: Duration::from_micros(50),
        max_batch: 512,
        workers: 2,
        queue_depth: requests,
        ..ServerConfig::default()
    };
    let node_engine = move || {
        Arc::new(Engine::builder().cache_capacity(distinct.max(64)).cache_shards(1).build())
    };
    let fleet_config = |shards: usize| RouterConfig {
        shards,
        replicas: 256,
        backend: node_config,
        ..RouterConfig::default()
    };

    let mut identical = true;
    let mut baseline3_seconds = f64::INFINITY;
    for _ in 0..cfg.trials {
        let router = Router::start_with(fleet_config(3), move |_| node_engine());
        let conns: Vec<_> = (0..clients).map(|_| router.client()).collect();
        let (seconds, ok) = drive_fleet(conns, &shares, &pool, &reference, credit);
        identical &= ok;
        router.shutdown();
        baseline3_seconds = baseline3_seconds.min(seconds);
    }

    let mut fault_seconds = f64::INFINITY;
    let mut replies = 0usize;
    let mut retries = 0u64;
    let mut failovers = 0u64;
    for _ in 0..cfg.trials {
        let router = Router::start_with(fleet_config(4), move |_| node_engine());
        let plan =
            Arc::new(FaultPlan::parse(&format!("kill:0@{kill_at}"), 42).expect("plan parses"));
        router.install_fault_plan(Some(Arc::clone(&plan)));
        let conns: Vec<_> = (0..clients).map(|_| router.client()).collect();
        // drive_fleet blocks until every slot answers, so completing at
        // all is the zero-drop proof; `ok` is the bit-identity proof.
        let (seconds, ok) = drive_fleet(conns, &shares, &pool, &reference, credit);
        identical &= ok;
        if !plan.events().iter().any(|e| e.contains("shard 0 lost")) {
            eprintln!("ROBUSTNESS BENCH ANOMALY: the scripted kill never fired");
            identical = false;
        }
        let snap = router.resilience().snapshot();
        router.shutdown();
        if seconds < fault_seconds {
            fault_seconds = seconds;
            replies = requests;
            retries = snap.retries;
            failovers = snap.failovers;
        }
    }

    // Determinism of the event trace: a serial closed loop (so in-flight
    // depth is itself deterministic) through a fresh seeded plan, twice.
    let replay = || {
        let router = Router::start_with(fleet_config(2), move |_| node_engine());
        let plan = Arc::new(FaultPlan::parse("drop:0@2,kill:1@4", 11).expect("plan parses"));
        router.install_fault_plan(Some(Arc::clone(&plan)));
        let client = router.client();
        for i in 0..6 {
            let q = pool[i % pool.len()].clone();
            let _ = client.call(q);
        }
        router.shutdown();
        plan.trace()
    };
    let trace_reproducible = replay() == replay();

    RobustnessBench {
        requests,
        clients,
        kill_at,
        baseline3_seconds,
        fault_seconds,
        replies,
        retries,
        failovers,
        trace_reproducible,
        identical,
    }
}

struct SelfHealingBench {
    requests: usize,
    clients: usize,
    kill_at: usize,
    /// Clean supervised 4-shard fleet, never faulted: the full-strength
    /// throughput the healed fleet must recover.
    baseline4_seconds: f64,
    /// The faulted run itself: shard 0 killed at `kill_at`, the
    /// supervisor respawning and rejoining it mid-workload.
    fault_seconds: f64,
    /// The same workload replayed on the healed fleet (shard 0 back in
    /// the ring, cache warm): the post-rejoin measurement.
    healed_seconds: f64,
    respawns: u64,
    warmup_keys_replayed: u64,
    replies: usize,
    trace_reproducible: bool,
    identical: bool,
}

impl SelfHealingBench {
    /// Post-rejoin throughput relative to the never-faulted baseline.
    /// The acceptance floor is 0.95 — a healed fleet is a whole fleet.
    fn post_rejoin_ratio(&self) -> f64 {
        self.baseline4_seconds / self.healed_seconds
    }
}

/// The self-healing tentpole, measured: a supervised 4-shard fleet
/// loses shard 0 to a seeded kill mid-workload; the supervisor must
/// respawn it, warm its cache from the hot keys, and readmit it — with
/// zero dropped requests and bit-identical replies — and the *healed*
/// fleet must then serve the same workload at ≥ 0.95× the throughput of
/// a fleet that never faulted. A serial closed-loop replay of a seeded
/// kill-plus-respawn plan checks the event trace is reproducible.
fn snapshot_self_healing(cfg: &Config) -> SelfHealingBench {
    let clients = 8usize;
    let credit = 8usize;
    let (requests, distinct) = (cfg.shard_requests, cfg.shard_distinct);
    let kill_at = requests / 2;
    let pool = sharding_pool(distinct);
    let reference = Engine::default().run_batch(&pool).responses;
    let shares: Vec<Vec<usize>> = (0..clients)
        .map(|c| {
            let mut state = 0xA076_1D64_78BD_642Fu64.wrapping_mul(c as u64 + 1);
            (0..requests / clients)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 33) % distinct as u64) as usize
                })
                .collect()
        })
        .collect();

    let node_config = ServerConfig {
        window: Duration::from_micros(50),
        max_batch: 512,
        workers: 2,
        queue_depth: requests,
        ..ServerConfig::default()
    };
    let node_engine = move || {
        Arc::new(Engine::builder().cache_capacity(distinct.max(64)).cache_shards(1).build())
    };
    let supervisor = SupervisorPolicy {
        respawn_after: Duration::from_millis(10),
        max_respawns: 3,
        respawn_backoff: Duration::from_millis(10),
        warm_fraction: 0.5,
    };
    let fleet_config = || RouterConfig {
        shards: 4,
        replicas: 256,
        backend: node_config,
        poll: Duration::from_millis(5),
        supervisor: Some(supervisor),
        ..RouterConfig::default()
    };
    let wait_for_rejoin = |router: &Router| {
        let start = Instant::now();
        loop {
            if router.topology().render().contains(r#""lost":[]"#) {
                return;
            }
            assert!(
                start.elapsed() < Duration::from_secs(60),
                "the killed shard never rejoined the ring"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    let mut identical = true;
    let mut baseline4_seconds = f64::INFINITY;
    for _ in 0..cfg.trials {
        let router = Router::start_with(fleet_config(), move |_| node_engine());
        let conns: Vec<_> = (0..clients).map(|_| router.client()).collect();
        let (seconds, ok) = drive_fleet(conns, &shares, &pool, &reference, credit);
        identical &= ok;
        router.shutdown();
        baseline4_seconds = baseline4_seconds.min(seconds);
    }

    let mut fault_seconds = f64::INFINITY;
    let mut healed_seconds = f64::INFINITY;
    let mut respawns = 0u64;
    let mut warmup_keys_replayed = 0u64;
    let mut replies = 0usize;
    for _ in 0..cfg.trials {
        let router = Router::start_with(fleet_config(), move |_| node_engine());
        let plan =
            Arc::new(FaultPlan::parse(&format!("kill:0@{kill_at}"), 42).expect("plan parses"));
        router.install_fault_plan(Some(Arc::clone(&plan)));
        // The faulted run: drive_fleet blocks until every slot answers,
        // so completing is the zero-drop proof; `ok` is bit-identity.
        let conns: Vec<_> = (0..clients).map(|_| router.client()).collect();
        let (seconds, ok) = drive_fleet(conns, &shares, &pool, &reference, credit);
        identical &= ok;
        if !plan.events().iter().any(|e| e.contains("shard 0 lost")) {
            eprintln!("SELF-HEALING BENCH ANOMALY: the scripted kill never fired");
            identical = false;
        }
        // Post-rejoin: the healed fleet serves the same workload again.
        wait_for_rejoin(&router);
        let conns: Vec<_> = (0..clients).map(|_| router.client()).collect();
        let (healed, ok) = drive_fleet(conns, &shares, &pool, &reference, credit);
        identical &= ok;
        let snap = router.resilience().snapshot();
        router.shutdown();
        fault_seconds = fault_seconds.min(seconds);
        if healed < healed_seconds {
            healed_seconds = healed;
            respawns = snap.respawns;
            warmup_keys_replayed = snap.warmup_keys_replayed;
            replies = requests;
        }
    }

    // Determinism across the whole recovery lifecycle: a serial closed
    // loop through kill → respawn → warmup → rejoin, twice, must record
    // the same event trace (the rejoin is awaited at a fixed request
    // index, so the warm-key count is deterministic too).
    let replay = || {
        let router = Router::start_with(fleet_config(), move |_| node_engine());
        let plan = Arc::new(FaultPlan::parse("kill:0@3", 11).expect("plan parses"));
        router.install_fault_plan(Some(Arc::clone(&plan)));
        let client = router.client();
        for i in 0..6 {
            let _ = client.call(pool[i % pool.len()].clone());
            if i == 2 {
                wait_for_rejoin(&router);
            }
        }
        router.shutdown();
        plan.trace()
    };
    let trace_reproducible = replay() == replay();

    SelfHealingBench {
        requests,
        clients,
        kill_at,
        baseline4_seconds,
        fault_seconds,
        healed_seconds,
        respawns,
        warmup_keys_replayed,
        replies,
        trace_reproducible,
        identical,
    }
}

/// One rung of the event loop's connection-scaling curve.
struct IoRung {
    connections: usize,
    requests: usize,
    seconds: f64,
    /// Process thread-count growth while every connection was open —
    /// the frontend's per-connection thread bill (the client side is
    /// single-threaded, so client threads are zero).
    extra_threads: i64,
    complete: bool,
}

impl IoRung {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.seconds
    }
}

struct ServerIoBench {
    requests_per_conn: usize,
    rungs: Vec<IoRung>,
}

/// Reads a numeric `/proc/self/status` field (Linux; the only platform
/// the snapshot runs on).
fn proc_status(field: &str) -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One rung over real TCP: open `conns` concurrent connections, write
/// every request line (keeping all connections open, so a per-connection
/// thread bill would show), sample the thread count, then half-close and
/// drain every reply stream. The client side is single-threaded and the
/// same at every rung, so the curve isolates the frontend.
fn run_io_rung(conns: usize, per_conn: usize, trials: usize) -> IoRung {
    use std::io::{BufRead, BufReader, Write};
    let request = b"{\"op\":\"table1\",\"version\":2,\"n\":64,\"stencil\":\"5pt\"}\n";
    let mut best: Option<IoRung> = None;
    for _ in 0..trials {
        let mut server = Server::start(
            Arc::new(Engine::default()),
            ServerConfig {
                window: Duration::from_micros(200),
                max_batch: 1024,
                workers: 2,
                queue_depth: conns * per_conn,
                ..ServerConfig::default()
            },
        );
        let addr = server.listen(("127.0.0.1", 0)).expect("bind");
        let threads_before = proc_status("Threads");
        let start = Instant::now();
        let mut streams = Vec::with_capacity(conns);
        for _ in 0..conns {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            for _ in 0..per_conn {
                stream.write_all(request).expect("write");
            }
            streams.push(stream);
        }
        // Wait until the frontend has *accepted* every connection (the
        // kernel completes handshakes into the backlog long before the
        // loop gets to them), then sample: every connection is open and
        // loaded, so any per-connection thread bill is visible here.
        let accept_deadline = Instant::now() + Duration::from_secs(60);
        while (server.stats().connections as usize) < conns {
            assert!(Instant::now() < accept_deadline, "frontend never accepted the fleet");
            std::thread::sleep(Duration::from_millis(1));
        }
        let extra_threads = proc_status("Threads") - threads_before;
        let mut complete = true;
        for stream in &streams {
            stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        }
        for stream in streams {
            let replies = BufReader::new(stream).lines().filter(|l| l.is_ok()).count();
            if replies != per_conn {
                eprintln!("SERVER_IO ANOMALY ({conns} conns): {replies} of {per_conn} replies");
                complete = false;
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        let stats = server.shutdown();
        if stats.completed as usize != conns * per_conn || stats.overloaded != 0 {
            eprintln!("SERVER_IO ANOMALY ({conns} conns): {stats}");
            complete = false;
        }
        let run = IoRung {
            connections: conns,
            requests: conns * per_conn,
            seconds,
            extra_threads,
            complete,
        };
        let better = match &best {
            None => true,
            Some(b) => {
                (run.complete && !b.complete)
                    || (run.complete == b.complete && run.seconds < b.seconds)
            }
        };
        if better {
            best = Some(run);
        }
    }
    best.expect("at least one trial")
}

/// The event loop's connection-scaling curve: one rung per configured
/// connection count, same per-connection workload.
fn snapshot_server_io(cfg: &Config) -> ServerIoBench {
    let per_conn = cfg.io_requests_per_conn;
    let rungs = cfg.io_conns.iter().map(|&c| run_io_rung(c, per_conn, cfg.trials)).collect();
    ServerIoBench { requests_per_conn: per_conn, rungs }
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    cfg: &Config,
    rows: &[Row],
    identical: bool,
    lp: &SolverLoop,
    dh: &DeepHalo,
    sv: &ServerBench,
    ob: &ObsBench,
    sh: &ShardingBench,
    rb: &RobustnessBench,
    heal: &SelfHealingBench,
    io: &ServerIoBench,
    pool: &PoolBench,
) -> Json {
    let kernels = rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("stencil".into(), Json::Str(r.stencil.into())),
                ("taps".into(), Json::Num(r.taps as f64)),
                ("flops_per_point".into(), Json::Num(r.flops_per_point)),
                ("generic_mpts".into(), Json::Num(round3(r.generic_mpts))),
                ("fused_mpts".into(), Json::Num(round3(r.fused_mpts))),
                ("parallel_mpts".into(), Json::Num(round3(r.par_mpts))),
                ("fused_speedup".into(), Json::Num(round3(r.fused_mpts / r.generic_mpts))),
                ("fused_mflops".into(), Json::Num(round3(r.fused_mpts * r.flops_per_point))),
            ])
        })
        .collect();
    let solver_loop = Json::Obj(vec![
        ("n".into(), Json::Num(cfg.n as f64)),
        ("iters".into(), Json::Num(cfg.solve_iters as f64)),
        ("omega".into(), Json::Num(lp.omega)),
        ("three_pass_mpts".into(), Json::Num(round3(lp.three_pass_mpts))),
        ("fused_mpts".into(), Json::Num(round3(lp.fused_mpts))),
        ("fused_speedup".into(), Json::Num(round3(lp.fused_mpts / lp.three_pass_mpts))),
        ("temporal_three_pass_mpts".into(), Json::Num(round3(lp.temporal_three_pass_mpts))),
        ("temporal_mpts".into(), Json::Num(round3(lp.temporal_mpts))),
        (
            "temporal_speedup".into(),
            Json::Num(round3(lp.temporal_mpts / lp.temporal_three_pass_mpts)),
        ),
        ("bit_identical".into(), Json::Bool(lp.identical)),
    ]);
    let deep_halo = Json::Obj(vec![
        ("n".into(), Json::Num(cfg.halo_n as f64)),
        ("strips".into(), Json::Num(dh.strips as f64)),
        ("depth".into(), Json::Num(dh.depth as f64)),
        ("iterations".into(), Json::Num(dh.iterations as f64)),
        ("check_period".into(), Json::Num(dh.check_period as f64)),
        ("exchanges_depth1".into(), Json::Num(dh.exchanges_depth1 as f64)),
        ("exchanges_deep".into(), Json::Num(dh.exchanges_deep as f64)),
        (
            "exchange_ratio".into(),
            Json::Num(round3(dh.exchanges_depth1 as f64 / dh.exchanges_deep as f64)),
        ),
        ("bit_identical".into(), Json::Bool(dh.identical)),
    ]);
    let server = Json::Obj(vec![
        ("requests".into(), Json::Num(sv.requests as f64)),
        ("clients".into(), Json::Num(sv.clients as f64)),
        ("distinct_queries".into(), Json::Num(sv.distinct as f64)),
        ("serial_seconds".into(), Json::Num(round3(sv.serial_seconds * 1e3) / 1e3)),
        ("serial_rps".into(), Json::Num(round3(sv.requests as f64 / sv.serial_seconds))),
        ("batched_seconds".into(), Json::Num(round3(sv.batched_seconds * 1e3) / 1e3)),
        ("batched_rps".into(), Json::Num(round3(sv.requests as f64 / sv.batched_seconds))),
        ("speedup".into(), Json::Num(round3(sv.speedup()))),
        ("batches".into(), Json::Num(sv.batches as f64)),
        ("avg_batch_fill".into(), Json::Num(round3(sv.avg_batch_fill))),
        ("cross_client_dedup_hits".into(), Json::Num(sv.cross_client_dedup_hits as f64)),
        ("bit_identical".into(), Json::Bool(sv.identical)),
    ]);
    let observability = Json::Obj(vec![
        ("requests".into(), Json::Num(ob.requests as f64)),
        ("clients".into(), Json::Num(ob.clients as f64)),
        ("unobserved_seconds".into(), Json::Num(round3(ob.unobserved_seconds * 1e3) / 1e3)),
        ("observed_seconds".into(), Json::Num(round3(ob.observed_seconds * 1e3) / 1e3)),
        ("overhead_frac".into(), Json::Num(round3(ob.overhead_frac()))),
        (
            "stages".into(),
            Json::Obj(
                ob.stages
                    .iter()
                    .map(|&(name, count, p50_us)| {
                        (
                            name.to_string(),
                            Json::Obj(vec![
                                ("count".into(), Json::Num(count as f64)),
                                ("p50_us".into(), Json::Num(round3(p50_us))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let sharding = Json::Obj(vec![
        ("requests".into(), Json::Num(sh.requests as f64)),
        ("clients".into(), Json::Num(sh.clients as f64)),
        ("distinct_keys".into(), Json::Num(sh.distinct as f64)),
        ("shard_capacity".into(), Json::Num(sh.capacity as f64)),
        ("single_seconds".into(), Json::Num(round3(sh.single_seconds * 1e3) / 1e3)),
        (
            "sweep".into(),
            Json::Arr(
                sh.sweep
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("shards".into(), Json::Num(p.shards as f64)),
                            ("seconds".into(), Json::Num(round3(p.seconds * 1e3) / 1e3)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("speedup_at_4_shards".into(), Json::Num(round3(sh.speedup4()))),
        ("memory_floor".into(), Json::Num(sh.memory_floor as f64)),
        ("predicted_shards".into(), Json::Num(sh.predicted as f64)),
        ("empirical_best_shards".into(), Json::Num(sh.empirical_best as f64)),
        (
            "model".into(),
            match &sh.model {
                Some(m) => Json::Obj(vec![
                    ("scatter".into(), Json::Num(round3(m.scatter * 1e3) / 1e3)),
                    ("coordination".into(), Json::Num(round3(m.coordination * 1e3) / 1e3)),
                    ("floor".into(), Json::Num(round3(m.floor * 1e3) / 1e3)),
                ]),
                None => Json::Null,
            },
        ),
        ("bit_identical".into(), Json::Bool(sh.identical)),
    ]);
    let robustness = Json::Obj(vec![
        ("requests".into(), Json::Num(rb.requests as f64)),
        ("clients".into(), Json::Num(rb.clients as f64)),
        ("kill_at_request".into(), Json::Num(rb.kill_at as f64)),
        ("baseline3_seconds".into(), Json::Num(round3(rb.baseline3_seconds * 1e3) / 1e3)),
        ("fault_seconds".into(), Json::Num(round3(rb.fault_seconds * 1e3) / 1e3)),
        ("recovery_ratio".into(), Json::Num(round3(rb.recovery_ratio()))),
        ("replies".into(), Json::Num(rb.replies as f64)),
        ("dropped".into(), Json::Num((rb.requests - rb.replies) as f64)),
        ("retries".into(), Json::Num(rb.retries as f64)),
        ("failovers".into(), Json::Num(rb.failovers as f64)),
        ("trace_reproducible".into(), Json::Bool(rb.trace_reproducible)),
        ("bit_identical".into(), Json::Bool(rb.identical)),
    ]);
    let self_healing = Json::Obj(vec![
        ("requests".into(), Json::Num(heal.requests as f64)),
        ("clients".into(), Json::Num(heal.clients as f64)),
        ("kill_at_request".into(), Json::Num(heal.kill_at as f64)),
        ("baseline4_seconds".into(), Json::Num(round3(heal.baseline4_seconds * 1e3) / 1e3)),
        ("fault_seconds".into(), Json::Num(round3(heal.fault_seconds * 1e3) / 1e3)),
        ("healed_seconds".into(), Json::Num(round3(heal.healed_seconds * 1e3) / 1e3)),
        ("post_rejoin_ratio".into(), Json::Num(round3(heal.post_rejoin_ratio()))),
        ("respawns".into(), Json::Num(heal.respawns as f64)),
        ("warmup_keys_replayed".into(), Json::Num(heal.warmup_keys_replayed as f64)),
        ("replies".into(), Json::Num(heal.replies as f64)),
        ("dropped".into(), Json::Num((heal.requests - heal.replies) as f64)),
        ("trace_reproducible".into(), Json::Bool(heal.trace_reproducible)),
        ("bit_identical".into(), Json::Bool(heal.identical)),
    ]);
    let io_rung = |run: &IoRung| {
        Json::Obj(vec![
            ("connections".into(), Json::Num(run.connections as f64)),
            ("requests".into(), Json::Num(run.requests as f64)),
            ("seconds".into(), Json::Num(round3(run.seconds * 1e3) / 1e3)),
            ("rps".into(), Json::Num(round3(run.rps()))),
            ("extra_threads".into(), Json::Num(run.extra_threads as f64)),
            ("complete".into(), Json::Bool(run.complete)),
        ])
    };
    let server_io = Json::Obj(vec![
        ("requests_per_conn".into(), Json::Num(io.requests_per_conn as f64)),
        ("rungs".into(), Json::Arr(io.rungs.iter().map(io_rung).collect())),
    ]);
    let pool_rung = |r: &PoolRung| {
        Json::Obj(vec![
            ("n".into(), Json::Num(r.n as f64)),
            ("threads".into(), Json::Num(r.threads as f64)),
            ("fused_mpts".into(), Json::Num(round3(r.fused_mpts))),
            ("parallel_mpts".into(), Json::Num(round3(r.par_mpts))),
            ("parallel_over_fused".into(), Json::Num(round3(r.par_mpts / r.fused_mpts))),
            ("compute_us".into(), Json::Num(round3(r.compute_us()))),
            ("fanout_us".into(), Json::Num(round3(pool.fanout_us(r.threads)))),
            ("parallel_us".into(), Json::Num(round3(r.par_us()))),
            ("bit_identical".into(), Json::Bool(r.identical)),
        ])
    };
    let pool_json = Json::Obj(vec![
        ("stencil".into(), Json::Str("5pt".into())),
        ("fanout_per_thread_us".into(), Json::Num(round3(pool.fanout.per_thread * 1e6))),
        ("fanout_fixed_us".into(), Json::Num(round3(pool.fanout.fixed * 1e6))),
        ("rungs".into(), Json::Arr(pool.rungs.iter().map(pool_rung).collect())),
    ]);
    Json::Obj(vec![
        ("schema".into(), Json::Str("parspeed-perf-snapshot/v10".into())),
        ("pr".into(), Json::Num(13.0)),
        (
            "bench".into(),
            Json::Str(
                "Jacobi kernels, fused solver loop, deep halos, serving layer, observability, \
                 sharded fleet, fault robustness, self-healing fleet, event-loop frontend, \
                 worker pool"
                    .into(),
            ),
        ),
        ("n".into(), Json::Num(cfg.n as f64)),
        ("threads".into(), Json::Num(rayon::current_num_threads() as f64)),
        ("bit_identical".into(), Json::Bool(identical)),
        ("kernels".into(), Json::Arr(kernels)),
        ("solver_loop".into(), solver_loop),
        ("deep_halo".into(), deep_halo),
        ("server".into(), server),
        ("observability".into(), observability),
        ("sharding".into(), sharding),
        ("robustness".into(), robustness),
        ("self_healing".into(), self_healing),
        ("server_io".into(), server_io),
        ("pool".into(), pool_json),
    ])
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn main() {
    let cfg = parse_args();
    let (rows, identical) = snapshot(&cfg);
    let lp = snapshot_solver_loop(&cfg);
    let dh = snapshot_deep_halo(&cfg);
    let sv = snapshot_server(&cfg);
    let ob = snapshot_observability(&cfg);
    let sh = snapshot_sharding(&cfg);
    let rb = snapshot_robustness(&cfg);
    let heal = snapshot_self_healing(&cfg);
    let io = snapshot_server_io(&cfg);
    let pool = snapshot_pool(&cfg);
    // A drifted kernel must never produce a committable snapshot, with or
    // without --check: fail after writing (the file records the evidence).
    let json = to_json(&cfg, &rows, identical, &lp, &dh, &sv, &ob, &sh, &rb, &heal, &io, &pool);
    let text = json.render();
    if let Some(dir) = std::path::Path::new(&cfg.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&cfg.out, &text).expect("write snapshot");

    println!("kernel throughput at n={} ({} thread(s)):", cfg.n, rayon::current_num_threads());
    println!(
        "  {:<16}{:>14}{:>12}{:>12}{:>10}{:>14}",
        "stencil", "generic Mp/s", "fused Mp/s", "par Mp/s", "fused×", "fused MFLOP/s"
    );
    for r in &rows {
        println!(
            "  {:<16}{:>14.1}{:>12.1}{:>12.1}{:>10.2}{:>14.0}",
            r.stencil,
            r.generic_mpts,
            r.fused_mpts,
            r.par_mpts,
            r.fused_mpts / r.generic_mpts,
            r.fused_mpts * r.flops_per_point
        );
    }
    println!(
        "solver loop at n={} (ω={}, single thread, {} iterations):",
        cfg.n, lp.omega, cfg.solve_iters
    );
    println!(
        "  every-iteration checks: three-pass {:.1} Mp/s → fused {:.1} Mp/s ({:.2}×)",
        lp.three_pass_mpts,
        lp.fused_mpts,
        lp.fused_mpts / lp.three_pass_mpts
    );
    println!(
        "  geometric checks:       three-pass {:.1} Mp/s → temporal-tiled {:.1} Mp/s ({:.2}×)",
        lp.temporal_three_pass_mpts,
        lp.temporal_mpts,
        lp.temporal_mpts / lp.temporal_three_pass_mpts
    );
    println!(
        "deep halos at n={} ({} strips, check every {}): {} exchanges at depth 1 vs {} at \
         depth {} ({:.2}× fewer) over {} iterations",
        cfg.halo_n,
        dh.strips,
        dh.check_period,
        dh.exchanges_depth1,
        dh.exchanges_deep,
        dh.depth,
        dh.exchanges_depth1 as f64 / dh.exchanges_deep as f64,
        dh.iterations
    );
    println!(
        "serving layer: {} duplicated requests ({} distinct) from {} clients: \
         per-request dispatch {:.1} ms ({:.0} req/s) → micro-batched {:.1} ms \
         ({:.0} req/s, {:.2}×) in {} batch(es), {:.0} avg fill, {} cross-client dedup hits",
        sv.requests,
        sv.distinct,
        sv.clients,
        sv.serial_seconds * 1e3,
        sv.requests as f64 / sv.serial_seconds,
        sv.batched_seconds * 1e3,
        sv.requests as f64 / sv.batched_seconds,
        sv.speedup(),
        sv.batches,
        sv.avg_batch_fill,
        sv.cross_client_dedup_hits
    );
    println!(
        "observability: same workload unobserved {:.1} ms → observed {:.1} ms ({:+.1}% overhead); \
         stage p50s (µs): {}",
        ob.unobserved_seconds * 1e3,
        ob.observed_seconds * 1e3,
        ob.overhead_frac() * 100.0,
        ob.stages
            .iter()
            .map(|&(name, _, p50)| format!("{name} {p50:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "sharding: {} requests over {} distinct keys vs {}-entry shard caches: \
         single server {:.1} ms; sweep {}; 4 shards {:.2}× single; \
         memory floor {}, predicted {} vs empirical best {}",
        sh.requests,
        sh.distinct,
        sh.capacity,
        sh.single_seconds * 1e3,
        sh.sweep
            .iter()
            .map(|p| format!("P={} {:.1}ms", p.shards, p.seconds * 1e3))
            .collect::<Vec<_>>()
            .join(", "),
        sh.speedup4(),
        sh.memory_floor,
        sh.predicted,
        sh.empirical_best
    );
    println!(
        "robustness: {} requests, shard 0 killed at request {}: clean 3-shard fleet {:.1} ms vs \
         fault run {:.1} ms ({:.2}× recovery); {} dropped, {} retries, {} failovers; \
         trace reproducible: {}",
        rb.requests,
        rb.kill_at,
        rb.baseline3_seconds * 1e3,
        rb.fault_seconds * 1e3,
        rb.recovery_ratio(),
        rb.requests - rb.replies,
        rb.retries,
        rb.failovers,
        rb.trace_reproducible
    );
    println!(
        "self-healing: supervised 4-shard fleet, shard 0 killed at request {}: clean run \
         {:.1} ms, faulted run {:.1} ms, healed rerun {:.1} ms ({:.2}× post-rejoin); \
         {} respawn(s), {} warm key(s) replayed, {} dropped; trace reproducible: {}",
        heal.kill_at,
        heal.baseline4_seconds * 1e3,
        heal.fault_seconds * 1e3,
        heal.healed_seconds * 1e3,
        heal.post_rejoin_ratio(),
        heal.respawns,
        heal.warmup_keys_replayed,
        heal.requests - heal.replies,
        heal.trace_reproducible
    );
    println!(
        "server io: event loop, {} reqs per connection: {}",
        io.requests_per_conn,
        io.rungs
            .iter()
            .map(|r| format!(
                "{} conns {:.1} ms ({:.0} req/s, +{} threads)",
                r.connections,
                r.seconds * 1e3,
                r.rps(),
                r.extra_threads
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "worker pool (5-point sweep; fan-out γ = {:.2} µs/thread, β = {:.2} µs): {}",
        pool.fanout.per_thread * 1e6,
        pool.fanout.fixed * 1e6,
        pool.rungs
            .iter()
            .map(|r| format!(
                "n={} {} thread(s) compute {:.1} µs + fan-out {:.1} µs → {:.1} µs ({:.2}× fused)",
                r.n,
                r.threads,
                r.compute_us(),
                pool.fanout_us(r.threads),
                r.par_us(),
                r.par_mpts / r.fused_mpts
            ))
            .collect::<Vec<_>>()
            .join("; ")
    );
    println!("wrote {}", cfg.out);
    assert!(identical, "fused kernels must be bit-identical to generic (snapshot records details)");
    assert!(lp.identical, "fused solver loop must be bit-identical to the three-pass loop");
    assert!(dh.identical, "deep-halo executor must be bit-identical to depth-1");
    assert!(sv.identical, "micro-batched replies must be bit-identical to serial dispatch");
    assert!(sh.identical, "routed replies must be bit-identical to serial dispatch");
    assert!(rb.identical, "failed-over replies must be bit-identical to serial dispatch");
    assert!(heal.identical, "healed-fleet replies must be bit-identical to serial dispatch");
    assert!(
        pool.rungs.iter().all(|r| r.identical),
        "row-parallel sweeps must be bit-identical to fused at every pool rung"
    );

    if cfg.check {
        let reparsed = jsonl::parse(&std::fs::read_to_string(&cfg.out).expect("re-read snapshot"))
            .expect("snapshot JSON must re-parse");
        let kernels = reparsed.get("kernels").and_then(Json::as_arr).expect("kernels array");
        assert_eq!(kernels.len(), rows.len(), "snapshot lost kernels");
        for k in kernels {
            let name = k.get("stencil").and_then(Json::as_str).expect("stencil name");
            let speedup = k.get("fused_speedup").and_then(Json::as_f64).expect("fused_speedup");
            assert!(speedup >= 1.0, "{name}: fused slower than generic ({speedup:.3}×)");
        }
        let sl = reparsed.get("solver_loop").expect("solver_loop section");
        let fused_x = sl.get("fused_speedup").and_then(Json::as_f64).expect("fused_speedup");
        // 1.1 is the noisy-CI floor; the committed full-size snapshot
        // records the ≥1.5× pass-fusion result.
        assert!(fused_x >= 1.1, "pass fusion regressed: {fused_x:.3}× over the three-pass loop");
        let dhj = reparsed.get("deep_halo").expect("deep_halo section");
        let ratio = dhj.get("exchange_ratio").and_then(Json::as_f64).expect("exchange_ratio");
        assert!(ratio >= 2.0, "deep halos must at least halve exchanges, got {ratio:.3}×");
        let svj = reparsed.get("server").expect("server section");
        let sv_x = svj.get("speedup").and_then(Json::as_f64).expect("server speedup");
        // 1.3 is the noisy-CI floor for the shrunken --quick workload;
        // the committed full-size snapshot records the ≥ 2× result the
        // acceptance criteria require.
        let sv_floor = if cfg.quick { 1.3 } else { 2.0 };
        assert!(
            sv_x >= sv_floor,
            "cross-client batching regressed: {sv_x:.3}× over per-request dispatch (≥ {sv_floor}×)"
        );
        let obj = reparsed.get("observability").expect("observability section");
        let overhead = obj.get("overhead_frac").and_then(Json::as_f64).expect("overhead_frac");
        // 5% is the acceptance budget; the shrunken --quick workload is
        // too noisy to resolve it, so CI gates a looser ceiling and the
        // committed full-size snapshot records the real number.
        let overhead_ceiling = if cfg.quick { 0.25 } else { 0.05 };
        assert!(
            overhead <= overhead_ceiling,
            "stage recording costs {:.1}% (> {:.0}% budget)",
            overhead * 100.0,
            overhead_ceiling * 100.0
        );
        let stages = obj.get("stages").expect("observability stages");
        for name in ["queue", "window", "plan", "dedup", "cache", "exec", "route"] {
            let count = stages
                .get(name)
                .and_then(|s| s.get("count"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("stage {name} missing from snapshot"));
            assert!(count > 0.0, "stage {name} histogram is empty");
        }
        let shj = reparsed.get("sharding").expect("sharding section");
        let sh_x =
            shj.get("speedup_at_4_shards").and_then(Json::as_f64).expect("speedup_at_4_shards");
        // Same CI-noise split as the server section: the committed
        // full-size snapshot records the ≥ 2× result.
        let sh_floor = if cfg.quick { 1.3 } else { 2.0 };
        assert!(
            sh_x >= sh_floor,
            "sharded fleet regressed: {sh_x:.3}× over the single server (≥ {sh_floor}×)"
        );
        let predicted =
            shj.get("predicted_shards").and_then(Json::as_f64).expect("predicted_shards");
        let best =
            shj.get("empirical_best_shards").and_then(Json::as_f64).expect("empirical_best_shards");
        assert!(
            (predicted - best).abs() <= 1.0,
            "the optimizer sized the fleet at {predicted} shards but the sweep's best is {best}"
        );
        let rbj = reparsed.get("robustness").expect("robustness section");
        let dropped = rbj.get("dropped").and_then(Json::as_f64).expect("dropped");
        assert_eq!(dropped, 0.0, "the fault run dropped {dropped} request(s)");
        assert_eq!(
            rbj.get("trace_reproducible"),
            Some(&Json::Bool(true)),
            "the same seed produced two different fault event traces"
        );
        let recovery = rbj.get("recovery_ratio").and_then(Json::as_f64).expect("recovery_ratio");
        // 0.5 is the noisy-CI floor; the committed full-size snapshot
        // records the ≥ 0.7× result the acceptance criteria require.
        let recovery_floor = if cfg.quick { 0.5 } else { 0.7 };
        assert!(
            recovery >= recovery_floor,
            "fault-run goodput is {recovery:.3}× the 3-shard baseline (≥ {recovery_floor}×)"
        );
        let healj = reparsed.get("self_healing").expect("self_healing section");
        let heal_dropped = healj.get("dropped").and_then(Json::as_f64).expect("dropped");
        assert_eq!(heal_dropped, 0.0, "the self-healing run dropped {heal_dropped} request(s)");
        assert_eq!(
            healj.get("trace_reproducible"),
            Some(&Json::Bool(true)),
            "the same seed produced two different recovery-lifecycle traces"
        );
        let heal_respawns = healj.get("respawns").and_then(Json::as_f64).expect("respawns");
        assert!(heal_respawns >= 1.0, "the supervisor never respawned the killed shard");
        let rejoin =
            healj.get("post_rejoin_ratio").and_then(Json::as_f64).expect("post_rejoin_ratio");
        // 0.8 is the noisy-CI floor; the committed full-size snapshot
        // records the ≥ 0.95× result the acceptance criteria require.
        let rejoin_floor = if cfg.quick { 0.8 } else { 0.95 };
        assert!(
            rejoin >= rejoin_floor,
            "post-rejoin throughput is {rejoin:.3}× the never-faulted baseline (≥ {rejoin_floor}×)"
        );
        let ioj = reparsed.get("server_io").expect("server_io section");
        let rungs = ioj.get("rungs").and_then(Json::as_arr).expect("server_io rungs");
        assert_eq!(rungs.len(), cfg.io_conns.len(), "snapshot lost server_io rungs");
        let mut loop_threads = 0.0f64;
        for rung in rungs {
            let conns = rung.get("connections").and_then(Json::as_f64).expect("connections");
            assert_eq!(
                rung.get("complete"),
                Some(&Json::Bool(true)),
                "the event loop dropped replies at {conns} connections"
            );
            let extra = rung.get("extra_threads").and_then(Json::as_f64).expect("extra_threads");
            assert!(
                extra <= 8.0,
                "the event loop grew {extra} threads at {conns} connections — \
                 readiness multiplexing is gone"
            );
            loop_threads = loop_threads.max(extra);
        }
        let poolj = reparsed.get("pool").expect("pool section");
        let pool_rungs = poolj.get("rungs").and_then(Json::as_arr).expect("pool rungs");
        assert_eq!(pool_rungs.len(), cfg.pool_sides.len(), "snapshot lost pool rungs");
        // The pool may only pick threads that pay: the parallel path is
        // never slower than fused, up to the box's run-to-run noise and the
        // inline path's fixed cost per call (~0.1 µs, a tenth of a 31²
        // sweep).
        let pool_floor = if cfg.quick { 0.8 } else { 0.85 };
        let mut pool_worst = f64::INFINITY;
        for rung in pool_rungs {
            let n = rung.get("n").and_then(Json::as_f64).expect("pool rung n");
            let ratio = rung
                .get("parallel_over_fused")
                .and_then(Json::as_f64)
                .expect("parallel_over_fused");
            assert!(
                ratio >= pool_floor,
                "row-parallel sweep at n={n} runs {ratio:.3}× fused (≥ {pool_floor}×): \
                 the pool fanned out where the work does not pay"
            );
            assert_eq!(
                rung.get("bit_identical"),
                Some(&Json::Bool(true)),
                "pool rung n={n} lost bit-identity"
            );
            pool_worst = pool_worst.min(ratio);
        }
        for (section, ok) in [
            ("solver_loop", sl.get("bit_identical")),
            ("deep_halo", dhj.get("bit_identical")),
            ("server", svj.get("bit_identical")),
            ("sharding", shj.get("bit_identical")),
            ("robustness", rbj.get("bit_identical")),
            ("self_healing", healj.get("bit_identical")),
        ] {
            assert_eq!(ok, Some(&Json::Bool(true)), "{section} lost bit-identity");
        }
        println!(
            "check passed: JSON round-trips, fused ≥ generic on all stencils, fused loop \
             {fused_x:.2}× ≥ 1.1×, deep halos {ratio:.2}× ≥ 2× fewer exchanges, \
             micro-batched serving {sv_x:.2}× ≥ {sv_floor}× over per-request dispatch, \
             stage recording {:+.1}% ≤ {:.0}% with every histogram populated, \
             sharded fleet {sh_x:.2}× ≥ {sh_floor}× over one server with the predicted \
             fleet size {predicted} within ±1 of the measured best {best}, the fault run \
             dropped nothing at {recovery:.2}× ≥ {recovery_floor}× recovery with a \
             reproducible trace, the self-healed fleet dropped nothing at \
             {rejoin:.2}× ≥ {rejoin_floor}× post-rejoin throughput after {heal_respawns:.0} \
             respawn(s), the event loop served every rung up to {} connections \
             complete on ≤ +{loop_threads:.0} thread(s), and the row-parallel sweep kept \
             ≥ {pool_worst:.2}× ≥ {pool_floor}× the fused rate at every grid side",
            overhead * 100.0,
            overhead_ceiling * 100.0,
            cfg.io_conns.last().expect("at least one server_io rung")
        );
    }
}

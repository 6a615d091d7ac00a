//! The four workloads: what each sends, to which binary, in which loop.
//! Every request line is a pure function of the workload and `--seed`;
//! the served program receives only these lines.

use crate::stats::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    RouteCold,
    SolveSmall,
    SolveLarge,
}

/// How the driver offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Closed loop: `conns` connections, each keeping `window` requests in
    /// flight (a window of 1 is one request at a time).
    Closed { conns: usize, window: usize },
    /// Open loop: requests due at a fixed `rate` per second, alternating
    /// over `conns` connections, whatever the replies do.
    Open { conns: usize, rate: f64 },
}

/// Distinct model queries in the `serve-hot` pool.
pub const HOT_POOL: usize = 192;
/// Per-shard result-cache entries for `route-cold`: far below the keys a
/// run touches, the paper's §3 per-processor memory constraint.
pub const ROUTE_CACHE: usize = 512;
/// `route-cold`'s hot set and the share of requests drawn from it.
pub const ROUTE_HOT_KEYS: usize = 32;
pub const ROUTE_HOT_SHARE: f64 = 0.1;
/// Fixed iteration budget of the `solve-large` Jacobi-family requests.
pub const LARGE_BUDGET: usize = 100;

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ServeHot, Workload::RouteCold, Workload::SolveSmall, Workload::SolveLarge];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::RouteCold => "route-cold",
            Workload::SolveSmall => "solve-small",
            Workload::SolveLarge => "solve-large",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `parspeed` subcommand and flags this workload serves from.
    pub fn command(self) -> Vec<String> {
        let mut args = match self {
            Workload::RouteCold => {
                vec!["route".to_string(), "--cache-capacity".into(), ROUTE_CACHE.to_string()]
            }
            _ => vec!["serve".to_string()],
        };
        args.extend(["--addr".to_string(), "127.0.0.1:0".to_string()]);
        args
    }

    pub fn traffic(self) -> Traffic {
        match self {
            Workload::ServeHot => Traffic::Closed { conns: 2, window: 32 },
            // The 4-shard router saturates near 48 000/s with this mix on
            // a quiet 2-vCPU reference box and near half that when the
            // host is loaded; 12 000/s stays below the queueing knee in
            // both, so the latency it reports is service, not backlog.
            Workload::RouteCold => Traffic::Open { conns: 2, rate: 12000.0 },
            Workload::SolveSmall | Workload::SolveLarge => Traffic::Closed { conns: 1, window: 1 },
        }
    }

    /// Equal spans of the timed phase whose median throughput and tail
    /// are reported, so one slow second of a shared box does not set the
    /// run's figure (one span a second at 15 s). The high-rate workloads
    /// have the samples for it; a solve run's tail spans would each hold a
    /// different part of the mix, so solves take it over the whole run.
    pub fn windows(self) -> usize {
        match self {
            Workload::ServeHot | Workload::RouteCold => 15,
            Workload::SolveSmall | Workload::SolveLarge => 1,
        }
    }

    /// Seconds one pass of a solve mix takes on the 2-core reference box.
    /// Solve runs send whole passes, `round(seconds / cycle)` of them, so
    /// the work of a run is fixed rather than cut off mid-mix.
    pub fn cycle_seconds(self) -> Option<f64> {
        match self {
            Workload::SolveSmall => Some(1.6),
            Workload::SolveLarge => Some(1.45),
            _ => None,
        }
    }
}

/// One pass of a solve mix, with seeded per-request jitter so that no two
/// requests (within or across passes) share a cache key: the engine cache
/// never answers a solve.
pub fn solve_cycle(w: Workload, rng: &mut Rng) -> Vec<String> {
    let mut out = Vec::new();
    // A tolerance a hair above `base`; shortest round-trip formatting
    // keeps the jitter bits on the wire.
    let tol = |rng: &mut Rng, base: f64| format!("{:?}", base * (1.0 + 0.01 * rng.unit()));
    match w {
        Workload::SolveSmall => {
            // A 13th, near-free request keeps the mix odd-sized, so the
            // latency percentiles of whole passes fall inside one request
            // kind's block rather than on the edge between two.
            out.push(format!(
                "{{\"op\":\"solve\",\"version\":2,\"n\":15,\"solver\":\"rbsor\",\"tol\":{}}}",
                tol(rng, 1e-6)
            ));
            for n in [31, 63, 127] {
                for solver in ["sor", "rbsor", "jacobi", "parallel"] {
                    let parts = if solver == "parallel" { ",\"partitions\":2" } else { "" };
                    out.push(format!(
                        "{{\"op\":\"solve\",\"version\":2,\"n\":{n},\"solver\":\"{solver}\",\"tol\":{}{parts}}}",
                        tol(rng, 1e-6)
                    ));
                }
            }
        }
        Workload::SolveLarge => {
            // The 13th request keeps the mix odd-sized (see solve-small).
            out.push(format!(
                "{{\"op\":\"solve\",\"version\":2,\"n\":255,\"solver\":\"multigrid\",\"tol\":{}}}",
                tol(rng, 1e-8)
            ));
            for n in [511, 1023] {
                // An unreachable (and jittered, so distinct) tolerance:
                // every Jacobi-family request runs exactly the budget.
                let fixed = |rng: &mut Rng, solver: &str, extra: &str| {
                    format!(
                        "{{\"op\":\"solve\",\"version\":2,\"n\":{n},\"solver\":\"{solver}\",\"tol\":{},\"max_iters\":{LARGE_BUDGET}{extra}}}",
                        tol(rng, 1e-300)
                    )
                };
                out.push(fixed(rng, "rbsor", ""));
                for stencil in ["5pt", "9pt-box"] {
                    out.push(fixed(rng, "jacobi", &format!(",\"stencil\":\"{stencil}\"")));
                    out.push(fixed(
                        rng,
                        "parallel",
                        &format!(",\"stencil\":\"{stencil}\",\"partitions\":2"),
                    ));
                }
                out.push(format!(
                    "{{\"op\":\"solve\",\"version\":2,\"n\":{n},\"solver\":\"multigrid\",\"tol\":{}}}",
                    tol(rng, 1e-8)
                ));
            }
        }
        _ => unreachable!("{} has no solve mix", w.name()),
    }
    out
}

const ARCHS: [&str; 6] = ["hypercube", "mesh", "sync-bus", "async-bus", "scheduled-bus", "banyan"];
const STENCILS: [&str; 4] = ["5pt", "9pt-box", "9pt-star", "13pt"];
const SHAPES: [&str; 2] = ["strip", "square"];
const VARIANTS: [&str; 4] = ["sync-strip", "async-strip", "sync-square", "async-square"];
const LEVERS: [&str; 3] = ["bus", "flop", "overhead"];

/// One cheap model query. `n_max` sets how many distinct grid sides the
/// generator can reach: small for a hot pool, huge for never-seen keys.
fn model_line(rng: &mut Rng, op: usize, n_max: usize) -> String {
    let n = 64 + rng.below(n_max - 64);
    let stencil = rng.pick(&STENCILS);
    let shape = rng.pick(&SHAPES);
    let arch = rng.pick(&ARCHS);
    let procs = rng.pick(&[0, 16, 64, 256]);
    match op % 6 {
        0 => format!(
            "{{\"op\":\"optimize\",\"version\":2,\"arch\":\"{arch}\",\"n\":{n},\"stencil\":\"{stencil}\",\"shape\":\"{shape}\",\"procs\":{procs}}}"
        ),
        1 => format!(
            "{{\"op\":\"compare\",\"version\":2,\"n\":{n},\"stencil\":\"{stencil}\",\"shape\":\"{shape}\",\"procs\":{procs}}}"
        ),
        2 => format!(
            "{{\"op\":\"minsize\",\"version\":2,\"variant\":\"{}\",\"e\":{:?},\"k\":{:?},\"procs\":{}}}",
            rng.pick(&VARIANTS),
            rng.pick(&[6.0, 10.0, 20.0]),
            rng.pick(&[1.0, 2.0]),
            2 + rng.below(n.min(4096) / 32)
        ),
        3 => format!(
            "{{\"op\":\"isoeff\",\"version\":2,\"arch\":\"{arch}\",\"stencil\":\"{stencil}\",\"shape\":\"{shape}\",\"procs\":{},\"efficiency\":{:?}}}",
            rng.pick(&[4, 8, 16]),
            rng.pick(&[0.3, 0.5])
        ),
        4 => format!(
            "{{\"op\":\"leverage\",\"version\":2,\"lever\":\"{}\",\"factor\":{:?},\"n\":{n},\"stencil\":\"{stencil}\",\"shape\":\"{shape}\",\"procs\":{}}}",
            rng.pick(&LEVERS),
            rng.pick(&[1.5, 2.0, 4.0]),
            rng.pick(&[16, 64, 256])
        ),
        _ => format!("{{\"op\":\"table1\",\"version\":2,\"n\":{n},\"stencil\":\"{stencil}\"}}"),
    }
}

/// Candidate lines for the `serve-hot` pool: every op of the model mix,
/// over a few hundred grid sides. The caller keeps the first `HOT_POOL`
/// distinct ones that answer `ok`.
pub fn hot_candidates(seed: u64) -> impl Iterator<Item = String> {
    let mut rng = Rng::new(seed ^ 0x5EED_0001);
    (0..).map(move |i| model_line(&mut rng, i, 4096))
}

/// `route-cold` traffic: never-seen keys (grid sides up to a million, so
/// repeats are rare) with a `ROUTE_HOT_SHARE` slice drawn from a small
/// hot set. Isoefficiency searches are left out: their cost grows with
/// the target, which would make the open-loop rate box-dependent.
pub fn route_lines(seed: u64, stream: u64, count: usize) -> Vec<String> {
    let mut hot_rng = Rng::new(seed ^ 0x5EED_0002);
    let hot: Vec<String> = (0..ROUTE_HOT_KEYS).map(|i| route_line(&mut hot_rng, i)).collect();
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0x5EED_0003));
    (0..count)
        .map(|i| {
            if rng.unit() < ROUTE_HOT_SHARE {
                rng.pick(&hot).clone()
            } else {
                route_line(&mut rng, i)
            }
        })
        .collect()
}

fn route_line(rng: &mut Rng, i: usize) -> String {
    // optimize, minsize, leverage, table1: the cheap closed-form ops.
    let op = [0, 2, 4, 5, 0, 4][i % 6];
    model_line(rng, op, 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_lines() {
        let a: Vec<String> = hot_candidates(11).take(300).collect();
        let b: Vec<String> = hot_candidates(11).take(300).collect();
        assert_eq!(a, b);
        assert_ne!(a, hot_candidates(12).take(300).collect::<Vec<_>>());
        assert_eq!(route_lines(11, 0, 500), route_lines(11, 0, 500));
        assert_ne!(route_lines(11, 0, 500), route_lines(11, 1, 500));
        for w in [Workload::SolveSmall, Workload::SolveLarge] {
            let mut r1 = Rng::new(5);
            let mut r2 = Rng::new(5);
            assert_eq!(solve_cycle(w, &mut r1), solve_cycle(w, &mut r2));
        }
    }

    #[test]
    fn solve_keys_never_repeat_across_passes() {
        for w in [Workload::SolveSmall, Workload::SolveLarge] {
            let mut rng = Rng::new(3);
            let mut all: Vec<String> = (0..4).flat_map(|_| solve_cycle(w, &mut rng)).collect();
            let n = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), n, "{} repeated a solve key", w.name());
        }
    }

    #[test]
    fn every_generated_line_parses() {
        let mut lines: Vec<String> = hot_candidates(1).take(200).collect();
        lines.extend(route_lines(1, 0, 200));
        let mut rng = Rng::new(1);
        lines.extend(solve_cycle(Workload::SolveSmall, &mut rng));
        lines.extend(solve_cycle(Workload::SolveLarge, &mut rng));
        for line in &lines {
            parspeed_engine::jsonl::parse_query(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        }
    }
}

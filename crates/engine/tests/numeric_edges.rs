//! Seeded numeric-edge property test over every op: wire-v2 request lines
//! whose grid sides, processor counts, efficiencies, factors and stencil
//! constants sit at the edges of their types, each run as one batch
//! beside a fixed control query on a sequential engine.
//!
//! Every case must answer in its own slot: nothing panics, the batch
//! answers one response per query, the control answers exactly as it
//! does alone, and a refused line answers `invalid_request` or
//! `infeasible` (or a parse error, when the wire reader refuses it before
//! the engine sees it). Each property replays the same cases on every run
//! (the proptest shim seeds from the test name), so a failure names its
//! line and reproduces.
//!
//! `solve` and `threads` draw only values the planner must refuse plus
//! tiny valid ones: a valid large solve or measurement is expensive, not
//! wrong, and would hold the test for minutes. `simulate` keeps its valid
//! grids small for the same reason. Thread counts stay just past their
//! bound, so a test of the bound can never start thousands of threads.

use parspeed_engine::{jsonl, Engine, EvalOutcome, Query, Response};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Grid sides and processor counts at the edges of `u32`, `f64`'s exact
/// integers and `u64`, plus ordinary values.
const COUNTS: &[u64] =
    &[0, 1, 2, 16, 64, 1 << 31, (1 << 32) - 1, 1 << 32, 1 << 53, u64::MAX, 97, 256, 4096];

/// Efficiencies near 0 and 1, and just outside `(0, 1)`.
const EFFICIENCIES: &[&str] = &[
    "1e-300",
    "1e-9",
    "0.5",
    "0.9",
    "0.999999",
    "0.9999999999",
    "0.9999999999999999",
    "0",
    "1",
    "-0.5",
    "1.5",
];

/// Lever factors and stencil constants across the positive range, plus
/// zero and negatives.
const REALS: &[&str] = &["0", "-1", "1e-300", "1e-9", "0.5", "1", "2", "6", "1e9", "1e300"];

const ARCHS: &[&str] = &["hypercube", "mesh", "sync-bus", "async-bus", "scheduled-bus", "banyan"];
const SIM_ARCHS: &[&str] =
    &["hypercube", "mesh", "mesh2d", "sync-bus", "async-bus", "scheduled-bus", "banyan"];
const SHAPES: &[&str] = &["strip", "square"];
const SOLVERS: &[&str] = &["jacobi", "sor", "rbsor", "cg", "multigrid", "parallel"];

/// The fixed control every case is batched with.
const CONTROL: &str = r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}"#;

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn name(rng: &mut TestRng, items: &[&str]) -> String {
    format!("\"{}\"", pick(rng, items))
}

fn count(rng: &mut TestRng) -> u64 {
    pick(rng, COUNTS)
}

fn stencil(rng: &mut TestRng) -> String {
    match rng.below(3) {
        0 => name(rng, &["5pt", "9pt-box", "9pt-star", "13pt"]),
        1 => format!(r#"{{"e":{},"k":{}}}"#, pick(rng, REALS), count(rng)),
        _ => r#""5pt""#.into(),
    }
}

/// `,"procs":N` or nothing (unlimited).
fn budget(rng: &mut TestRng) -> String {
    if rng.below(3) == 0 {
        String::new()
    } else {
        format!(r#","procs":{}"#, count(rng))
    }
}

fn optimize(rng: &mut TestRng) -> String {
    let memory = if rng.below(2) == 0 {
        String::new()
    } else {
        format!(r#","memory_words":{}"#, pick(rng, REALS))
    };
    format!(
        r#"{{"op":"optimize","version":2,"arch":{},"n":{},"stencil":{},"shape":{}{}{memory}}}"#,
        name(rng, ARCHS),
        count(rng),
        stencil(rng),
        name(rng, SHAPES),
        budget(rng),
    )
}

fn minsize(rng: &mut TestRng) -> String {
    format!(
        r#"{{"op":"minsize","version":2,"variant":{},"e":{},"k":{},"procs":{}}}"#,
        name(rng, &["sync-strip", "async-strip", "sync-square", "async-square"]),
        pick(rng, REALS),
        pick(rng, REALS),
        count(rng),
    )
}

fn isoeff(rng: &mut TestRng) -> String {
    format!(
        r#"{{"op":"isoeff","version":2,"arch":{},"stencil":{},"shape":{},"procs":{},"efficiency":{}}}"#,
        name(rng, ARCHS),
        stencil(rng),
        name(rng, SHAPES),
        count(rng),
        pick(rng, EFFICIENCIES),
    )
}

fn leverage(rng: &mut TestRng) -> String {
    format!(
        r#"{{"op":"leverage","version":2,"n":{},"stencil":{},"shape":{}{},"lever":{},"factor":{}}}"#,
        count(rng),
        stencil(rng),
        name(rng, SHAPES),
        budget(rng),
        name(rng, &["bus", "flop", "overhead"]),
        pick(rng, REALS),
    )
}

fn sweep(rng: &mut TestRng) -> String {
    // Axes up to 40 long: most grids land past the point bound.
    let axis = |items: &[&str], rng: &mut TestRng| {
        let len = 1 + rng.below(40) as usize;
        (0..len).map(|_| name(rng, items)).collect::<Vec<_>>().join(",")
    };
    let archs = axis(ARCHS, rng);
    let stencils = axis(&["5pt", "9pt-box", "13pt"], rng);
    let shapes = axis(SHAPES, rng);
    let budgets = (0..1 + rng.below(40)).map(|_| count(rng).to_string()).collect::<Vec<_>>();
    let (a, b) = (count(rng), count(rng));
    format!(
        r#"{{"op":"sweep","version":2,"arch":[{archs}],"stencil":[{stencils}],"shape":[{shapes}],"procs":[{}],"n_from":{},"n_to":{}}}"#,
        budgets.join(","),
        a.min(b),
        a.max(b),
    )
}

fn table1(rng: &mut TestRng) -> String {
    format!(
        r#"{{"op":"table1","version":2,"n":{},"stencil":{}}}"#,
        count(rng),
        name(rng, &["5pt", "9pt-box", "9pt-star", "13pt"]),
    )
}

fn compare(rng: &mut TestRng) -> String {
    format!(
        r#"{{"op":"compare","version":2,"n":{},"stencil":{},"shape":{}{}}}"#,
        count(rng),
        stencil(rng),
        name(rng, SHAPES),
        budget(rng),
    )
}

fn simulate(rng: &mut TestRng) -> String {
    // Valid grids stay at most 16 a side; every larger side is one the
    // planner must refuse.
    let n = pick(rng, &[0, 1, 2, 15, 16, 1 << 32, 1 << 53, u64::MAX]);
    format!(
        r#"{{"op":"simulate","version":2,"arch":{},"n":{n},"stencil":{},"shape":{},"procs":{}}}"#,
        name(rng, SIM_ARCHS),
        name(rng, &["5pt", "9pt-box"]),
        name(rng, SHAPES),
        count(rng),
    )
}

/// A side the planner must refuse, or a tiny valid one.
fn small_or_refused(rng: &mut TestRng) -> u64 {
    pick(rng, &[0, 1, 2, 7, 15, 4096, 1 << 31, 1 << 32, 1 << 53, u64::MAX])
}

fn solve(rng: &mut TestRng) -> String {
    format!(
        r#"{{"op":"solve","version":2,"n":{},"solver":{},"tol":{},"max_iters":1}}"#,
        small_or_refused(rng),
        name(rng, SOLVERS),
        pick(rng, REALS),
    )
}

/// Check periods, geometric starts and gap caps at the edges of `usize`.
const CHECK_COUNTS: &[u64] = &[0, 1, 2, 1 << 32, u64::MAX];

/// A tiny `solve` under a drawn check schedule, valid or refused. A
/// schedule whose next check lies past `usize::MAX` must check at the
/// cap, not overflow.
fn scheduled_solve(rng: &mut TestRng) -> String {
    let policy = if rng.below(2) == 0 {
        format!("every:{}", pick(rng, CHECK_COUNTS))
    } else {
        format!(
            "geometric:{},{},{}",
            pick(rng, CHECK_COUNTS),
            pick(rng, &["1", "1.0000001", "2", "1e300"]),
            pick(rng, CHECK_COUNTS),
        )
    };
    format!(
        r#"{{"op":"solve","version":2,"n":{},"solver":{},"check_policy":"{policy}","max_iters":{}}}"#,
        pick(rng, &[1, 2, 7]),
        name(rng, &["jacobi", "sor", "parallel"]),
        pick(rng, &[0, 1, 2, 3]),
    )
}

fn threads(rng: &mut TestRng) -> String {
    // Counts stay at most one past the bound: should the bound ever
    // stop refusing them, the measurement starts 64 workers, not billions.
    let counts = pick(rng, &["[1]", "[1,2]", "[0]", "[65]", "[2,65]"]);
    format!(
        r#"{{"op":"threads","version":2,"n":{},"threads":{counts},"iters":1,"repeats":1}}"#,
        small_or_refused(rng),
    )
}

/// Machine overrides: an optional preset, then each field present or not,
/// drawn from `REALS` plus `1e400` (which the reader parses as infinity).
fn machine(rng: &mut TestRng) -> String {
    let mut fields = Vec::new();
    if rng.below(3) == 0 {
        fields.push(format!(r#""preset":{}"#, name(rng, &["paper", "flex32"])));
    }
    for field in ["tfp", "b", "c", "alpha", "beta", "packet", "w"] {
        if rng.below(2) == 0 {
            let value =
                if rng.below(REALS.len() as u64 + 1) == 0 { "1e400" } else { pick(rng, REALS) };
            fields.push(format!(r#""{field}":{value}"#));
        }
    }
    format!(r#","machine":{{{}}}"#, fields.join(","))
}

/// A line from an op that takes a machine, carrying drawn overrides.
fn with_machine(rng: &mut TestRng) -> String {
    let ops: [fn(&mut TestRng) -> String; 8] =
        [optimize, minsize, isoeff, leverage, sweep, table1, compare, simulate];
    let line = pick(rng, &ops)(rng);
    let machine = machine(rng);
    format!("{}{machine}}}", line.strip_suffix('}').expect("a line is one object"))
}

/// Draws one request line from an op's generator.
struct Line(fn(&mut TestRng) -> String);

impl Strategy for Line {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        (self.0)(rng)
    }
}

fn refused_kind(outcome: &EvalOutcome) -> Option<&'static str> {
    outcome.as_ref().err().map(|e| e.kind())
}

/// Runs `lines` as one batch with the control at its end, checks every
/// slot, and returns the error kinds each line answered.
fn answer_in_their_slots(lines: &[String]) -> Result<Vec<Vec<&'static str>>, TestCaseError> {
    let mut kinds = vec![Vec::new(); lines.len()];
    let mut parsed = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        match jsonl::parse_query(line) {
            Ok(p) => parsed.push((i, p.query)),
            // The reader answers it in its own slot; the engine never sees it.
            Err(e) => {
                prop_assert_eq!(e.error.kind(), "parse", "{}", line);
                kinds[i].push("parse");
            }
        }
    }
    let control = jsonl::parse_query(CONTROL).expect("control parses").query;
    let alone = Engine::builder().threads(1).build().run_batch(std::slice::from_ref(&control));
    let batch: Vec<Query> = parsed.iter().map(|(_, q)| q.clone()).chain([control]).collect();
    let run = |batch: &[Query]| {
        catch_unwind(AssertUnwindSafe(|| Engine::builder().threads(1).build().run_batch(batch)))
    };
    let out = run(&batch).map_err(|_| {
        let culprit = parsed.iter().find(|(_, q)| run(std::slice::from_ref(q)).is_err());
        TestCaseError::fail(format!("panicked on {:?}", culprit.map(|(i, _)| &lines[*i])))
    })?;
    prop_assert_eq!(out.responses.len(), batch.len());
    prop_assert_eq!(out.responses.last(), alone.responses.first(), "control beside {:?}", lines);
    for ((i, query), response) in parsed.iter().zip(&out.responses) {
        let line = &lines[*i];
        kinds[*i] = match response {
            Response::Invalid(e) => vec![e.kind()],
            Response::Single(outcome) => refused_kind(outcome).into_iter().collect(),
            Response::Sweep(points) => points.iter().filter_map(|(_, o)| refused_kind(o)).collect(),
        };
        for kind in &kinds[*i] {
            prop_assert!(matches!(*kind, "invalid_request" | "infeasible"), "{kind} for {line}");
        }
        let reply = jsonl::render_response(query, response, 2, i + 1);
        prop_assert!(!reply.contains('\n'), "a reply is one line: {}", line);
    }
    Ok(kinds)
}

/// Up to 16 lines from one op's generator per batch.
fn lines(op: fn(&mut TestRng) -> String) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(Line(op), 1..17)
}

proptest! {
    #[test]
    fn optimize_edges_answer_in_their_slot(batch in lines(optimize)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn minsize_edges_answer_in_their_slot(batch in lines(minsize)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn isoeff_edges_answer_in_their_slot(batch in lines(isoeff)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn leverage_edges_answer_in_their_slot(batch in lines(leverage)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn sweep_edges_answer_in_their_slot(batch in lines(sweep)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn table1_edges_answer_in_their_slot(batch in lines(table1)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn compare_edges_answer_in_their_slot(batch in lines(compare)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn simulate_edges_answer_in_their_slot(batch in lines(simulate)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn solve_edges_answer_in_their_slot(batch in lines(solve)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn check_schedule_edges_answer_in_their_slot(batch in lines(scheduled_solve)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn threads_edges_answer_in_their_slot(batch in lines(threads)) {
        answer_in_their_slots(&batch)?;
    }

    #[test]
    fn machine_edges_answer_in_their_slot(batch in lines(with_machine)) {
        answer_in_their_slots(&batch)?;
    }
}

/// One line per bound: each aborts or panics a process without it.
#[test]
fn the_crash_lines_answer_in_their_slot() {
    let axis = |item: &str| vec![item; 30].join(",");
    let sweep = format!(
        r#"{{"op":"sweep","version":2,"arch":[{}],"stencil":[{}],"shape":[{}],"procs":[{}],"n_from":64,"n_to":4096}}"#,
        axis(r#""sync-bus""#),
        axis(r#""5pt""#),
        axis(r#""square""#),
        axis("16"),
    );
    let isoeff = |arch: &str, procs: u64, efficiency: &str| {
        format!(
            r#"{{"op":"isoeff","version":2,"arch":"{arch}","stencil":"5pt","shape":"square","procs":{procs},"efficiency":{efficiency}}}"#
        )
    };
    let cases = [
        (sweep, "invalid_request"),
        (
            r#"{"op":"optimize","version":2,"arch":"sync-bus","n":4294967296,"stencil":"5pt","shape":"square"}"#.into(),
            "invalid_request",
        ),
        (
            r#"{"op":"leverage","version":2,"n":4294967296,"stencil":"5pt","shape":"square","lever":"bus","factor":2}"#.into(),
            "invalid_request",
        ),
        (
            r#"{"op":"threads","version":2,"n":64,"threads":[65],"iters":1,"repeats":1}"#.into(),
            "invalid_request",
        ),
        (isoeff("hypercube", 1 << 32, "0.999999"), "infeasible"),
        (isoeff("sync-bus", 1024, "0.999999"), "infeasible"),
        (isoeff("banyan", (1 << 32) - 1, "0.999999"), "infeasible"),
        (isoeff("hypercube", 1 << 32, "0.9999999999"), "infeasible"),
    ];
    for (line, kind) in cases {
        let kinds =
            answer_in_their_slots(std::slice::from_ref(&line)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(kinds, [[kind]], "{line}");
    }
}

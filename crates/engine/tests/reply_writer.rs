//! Seeded round-trip property of the reply writer: every line
//! `render_response`, `render_parse_error` and `render_telemetry` write
//! must already be in the normal form `Json::write` gives it, so parsing
//! a reply and rendering the tree back reproduces the line byte for byte.
//!
//! The direct writer and the tree writer share one number writer and one
//! escaper, but the replies choose their own field order, nesting and
//! value kinds; any drift — a float written another way, a character
//! escaped another way, a missing comma — shows up as a mismatch. Values
//! sit at the edges of the number and string rules: `-0`, integers around
//! 1e15 and 2⁵³, subnormals, `f64::MAX`, NaN and ±∞ (written `null`),
//! counts up to `usize::MAX`, and strings holding quotes, backslashes,
//! every C0 control and astral characters. Each property replays the
//! same cases on every run (the proptest shim seeds from the test name).

use parspeed_core::table1::Table1Row;
use parspeed_engine::jsonl::{self, LineError};
use parspeed_engine::{
    BatchTelemetry, EvalOutcome, EvalValue, ParspeedError, PointLabel, Query, Response,
};
use parspeed_exec::measure::MeasuredPoint;
use parspeed_stencil::PartitionShape;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Floats at the edges of the number rules, beside ordinary values.
const FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -2.5,
    0.1,
    1.0 / 3.0,
    999_999_999_999_999.0,
    -999_999_999_999_999.0,
    1e15,
    -1e15,
    9_007_199_254_740_992.0,
    5e-324,
    2.2250738585072014e-308 / 2.0,
    1e-300,
    f64::MAX,
    f64::MIN,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Counts at the edges: zero, exact integers, past 1e15 and `usize::MAX`.
const COUNTS: &[usize] =
    &[0, 1, 14, 999_999_999_999_999, 1_000_000_000_000_000, (1 << 53) + 1, usize::MAX];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn float(rng: &mut TestRng) -> f64 {
    match rng.below(3) {
        0 => f64::from_bits(rng.next_u64()),
        1 => rng.next_f64() * 10f64.powi(rng.below(40) as i32 - 20),
        _ => pick(rng, FLOATS),
    }
}

fn count(rng: &mut TestRng) -> usize {
    if rng.below(2) == 0 {
        rng.next_u64() as usize >> rng.below(64)
    } else {
        pick(rng, COUNTS)
    }
}

/// Text for reports, labels and error messages: every C0 control, quotes,
/// backslashes, DEL, multi-byte and astral characters, and plain ASCII.
fn text(rng: &mut TestRng) -> String {
    let len = rng.below(24) as usize;
    (0..len)
        .map(|_| match rng.below(4) {
            0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
            1 => pick(rng, &['"', '\\', '/', '\u{7f}', 'é', '€', '\u{2028}', '𝄞', '😀']),
            _ => pick(rng, &['a', 'Z', '0', ' ', '.', '-', ':', '{', ']', ',']),
        })
        .collect()
}

/// A `&'static str` label, as architecture names and formulas are.
fn label(rng: &mut TestRng) -> &'static str {
    Box::leak(text(rng).into_boxed_str())
}

fn value(rng: &mut TestRng) -> EvalValue {
    match rng.below(9) {
        0 => EvalValue::Optimum {
            processors: count(rng),
            area: float(rng),
            cycle_time: float(rng),
            speedup: float(rng),
            efficiency: float(rng),
            used_all: rng.below(2) == 0,
        },
        1 => EvalValue::MinSize { n_side: float(rng), log2_points: float(rng) },
        2 => EvalValue::Isoefficiency { n: count(rng) },
        3 => EvalValue::Leverage { baseline: float(rng), upgraded: float(rng), factor: float(rng) },
        4 => EvalValue::Table1 {
            rows: (0..rng.below(5))
                .map(|_| Table1Row {
                    architecture: label(rng),
                    optimal_speedup: float(rng),
                    formula: label(rng),
                })
                .collect(),
        },
        5 => EvalValue::Simulate {
            cycle_time: float(rng),
            max_compute: float(rng),
            comm_fraction: float(rng),
            predicted: float(rng),
            seq_time: float(rng),
        },
        6 => EvalValue::Solve {
            converged: rng.below(2) == 0,
            iterations: count(rng),
            final_diff: float(rng),
            max_error: float(rng),
            global_reductions: (rng.below(2) == 0).then(|| count(rng)),
            resumed_from: (rng.below(2) == 0).then(|| count(rng)),
        },
        7 => EvalValue::Threads {
            points: (0..rng.below(4))
                .map(|_| MeasuredPoint {
                    threads: count(rng),
                    shape: PartitionShape::Strip,
                    secs_per_iter: float(rng),
                    speedup: float(rng),
                })
                .collect(),
        },
        _ => EvalValue::Report(text(rng)),
    }
}

fn error(rng: &mut TestRng) -> ParspeedError {
    let msg = text(rng);
    match rng.below(7) {
        0 => ParspeedError::parse(msg),
        1 => ParspeedError::invalid(msg),
        2 => ParspeedError::infeasible(msg),
        3 => ParspeedError::unsupported(msg),
        4 => ParspeedError::overloaded(msg),
        5 => ParspeedError::deadline_exceeded(msg),
        _ => ParspeedError::Internal(msg),
    }
}

fn outcome(rng: &mut TestRng) -> EvalOutcome {
    if rng.below(3) == 0 {
        Err(error(rng))
    } else {
        Ok(value(rng))
    }
}

fn response(rng: &mut TestRng) -> Response {
    match rng.below(4) {
        0 => Response::Invalid(error(rng)),
        1 => Response::Sweep(
            (0..rng.below(4))
                .map(|_| {
                    let point = PointLabel {
                        arch: label(rng),
                        n: count(rng),
                        stencil: text(rng),
                        shape: label(rng),
                        budget: text(rng),
                    };
                    (point, outcome(rng))
                })
                .collect(),
        ),
        _ => Response::Single(outcome(rng)),
    }
}

/// One query of every op: the reply names it.
fn query(rng: &mut TestRng) -> Query {
    let line = pick(
        rng,
        &[
            r#"{"op":"optimize","arch":"sync-bus","n":256,"stencil":"5pt","shape":"square"}"#,
            r#"{"op":"minsize","variant":"sync-square","e":6.0,"k":1.0,"procs":14}"#,
            r#"{"op":"isoeff","arch":"mesh","stencil":"5pt","shape":"square","procs":16,"efficiency":0.5}"#,
            r#"{"op":"leverage","lever":"bus","factor":2,"n":64,"stencil":"5pt","shape":"strip"}"#,
            r#"{"op":"sweep","arch":["banyan"],"stencil":["5pt"],"shape":["strip"],"n_from":64,"n_to":128}"#,
            r#"{"op":"table1","n":512}"#,
            r#"{"op":"compare","n":128,"stencil":"5pt","shape":"square"}"#,
            r#"{"op":"simulate","arch":"mesh2d","n":64,"stencil":"5pt","shape":"square","procs":16}"#,
            r#"{"op":"solve","n":31,"solver":"cg"}"#,
            r#"{"op":"threads","n":64,"threads":[1,2]}"#,
            r#"{"op":"experiment","id":"e1","quick":true}"#,
        ],
    );
    jsonl::parse_query(line).expect("every op line parses").query
}

/// One reply line of any kind: a response in either wire version, a parse
/// error in either version, or a telemetry record.
fn reply(rng: &mut TestRng) -> String {
    let version = 1 + rng.below(2) as u32;
    let line_no = count(rng);
    match rng.below(6) {
        0 => jsonl::render_parse_error(&LineError { version, error: error(rng) }, line_no),
        1 => jsonl::render_telemetry(&BatchTelemetry {
            queries: count(rng),
            atoms: count(rng),
            unique: count(rng),
            cache_hits: count(rng),
            evaluated: count(rng),
            effects: count(rng),
            threads: count(rng),
            wall_seconds: float(rng),
        }),
        _ => jsonl::render_response(&query(rng), &response(rng), version, line_no),
    }
}

/// Draws batches of reply lines from [`reply`].
struct Replies;

impl Strategy for Replies {
    type Value = Vec<String>;
    fn generate(&self, rng: &mut TestRng) -> Vec<String> {
        (0..1 + rng.below(32)).map(|_| reply(rng)).collect()
    }
}

proptest! {
    #[test]
    fn replies_are_in_the_tree_writers_normal_form(lines in Replies) {
        for line in &lines {
            let tree = jsonl::parse(line).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
            prop_assert_eq!(&tree.render(), line);
            prop_assert!(!line.contains('\n'), "a reply is one line: {}", line);
        }
    }
}

/// The edge values by name, beside the random draws: each number rule and
/// each escape, as it appears on the wire.
#[test]
fn edge_values_are_written_by_the_documented_rules() {
    let report = |text: &str| {
        let q = jsonl::parse_query(r#"{"op":"experiment","version":2,"id":"e1"}"#).unwrap().query;
        jsonl::render_response(&q, &Response::Single(Ok(EvalValue::Report(text.into()))), 2, 1)
    };
    assert_eq!(
        report("\"\\/\n\r\t\u{0}\u{1f}\u{7f}é𝄞"),
        r#"{"version":2,"op":"experiment","ok":true,"text":"\"\\/\n\r\t\u0000\u001f"#.to_owned()
            + "\u{7f}é𝄞\"}"
    );
    let leverage = |baseline: f64, upgraded: f64, factor: f64| {
        let q = jsonl::parse_query(
            r#"{"op":"leverage","lever":"bus","factor":2,"n":64,"stencil":"5pt","shape":"strip"}"#,
        )
        .unwrap()
        .query;
        let value = EvalValue::Leverage { baseline, upgraded, factor };
        jsonl::render_response(&q, &Response::Single(Ok(value)), 1, 1)
    };
    assert_eq!(
        leverage(-0.0, 999_999_999_999_999.0, 1e15),
        r#"{"op":"leverage","ok":true,"baseline":-0.0,"upgraded":999999999999999,"factor":1000000000000000.0}"#
    );
    assert_eq!(
        leverage(f64::NAN, f64::INFINITY, 5e-324),
        r#"{"op":"leverage","ok":true,"baseline":null,"upgraded":null,"factor":5e-324}"#
    );
    let iso = |n: usize| {
        let q = jsonl::parse_query(
            r#"{"op":"isoeff","arch":"mesh","stencil":"5pt","shape":"square","procs":16,"efficiency":0.5}"#,
        )
        .unwrap()
        .query;
        jsonl::render_response(&q, &Response::Single(Ok(EvalValue::Isoefficiency { n })), 1, 1)
    };
    assert_eq!(iso(0), r#"{"op":"isoeff","ok":true,"n":0}"#);
    assert_eq!(iso(usize::MAX), r#"{"op":"isoeff","ok":true,"n":1.8446744073709552e19}"#);
}

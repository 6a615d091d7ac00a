//! `parspeed batch` — run a JSONL request batch through the query engine.

use crate::args::{err, Args, CliError};
use parspeed_engine::{jsonl, Engine, ParspeedError, Response};
use parspeed_obs::{render_exposition, StageSet, StageSummary};
use std::io::Read as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

pub const KEYS: &[&str] = &["input", "cache-capacity", "shards", "threads"];
pub const SWITCHES: &[&str] = &["stats"];

/// Usage shown by `parspeed help batch`.
pub const USAGE: &str =
    "parspeed batch [--input FILE] [--cache-capacity N] [--shards N] [--threads N] [--stats]

Reads one JSON request per line from --input (default: stdin, also `-`),
evaluates the whole batch through the parspeed-engine pipeline
(plan → dedup → cache → parallel execute), and writes one JSON response
per line in input order. --stats appends a final telemetry record to
stdout and prints the per-stage latency breakdown (plan, dedup, cache,
exec — the same text exposition `parspeed serve --metrics-human`
renders) on stderr.

Request ops: optimize, minsize, isoeff, leverage, sweep, table1, compare,
simulate, solve, threads — see crates/engine/src/README.md for the full
wire-v2 schema (add \"version\":2 to request lines; v1 lines are still
accepted with a deprecation note on stderr). Lines that fail to parse
produce an {\"ok\":false,\"line\":N,...} response in their slot; they
never abort the rest of the batch.

  --cache-capacity N   cached results kept across the run (default 65536)
  --shards N           cache shards (default 16)
  --threads N          worker threads; 0 = sized per operation from its work (default 0)";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let input = args.str_or("input", "-");
    let text = if input == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| err(format!("cannot read stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(input).map_err(|e| err(format!("cannot read `{input}`: {e}")))?
    };

    let capacity = args.usize_or("cache-capacity", parspeed_engine::DEFAULT_CACHE_CAPACITY)?;
    let engine = super::serving_engine(args, capacity)?;

    // With --stats, also attribute engine time per stage; the recorder
    // costs nothing when absent, so plain runs stay uninstrumented.
    let stages = args.switch("stats").then(|| Arc::new(StageSet::new()));
    if let Some(stages) = &stages {
        engine.set_recorder(Some(Arc::clone(stages) as _));
    }
    let reply = run_lines(&engine, &text, args.switch("stats"));
    if let Some(stages) = &stages {
        eprint!("{}", render_stage_breakdown(stages));
    }
    if reply.v1_lines > 0 {
        eprintln!(
            "note: {} request line(s) used deprecated wire v1; add \"version\":2 \
             (see crates/engine/src/README.md)",
            reply.v1_lines
        );
    }
    Ok(reply.stdout)
}

/// The rendered reply of one JSONL batch.
pub struct BatchReply {
    /// One response line per non-empty input line (plus telemetry with
    /// `--stats`), joined with newlines.
    pub stdout: String,
    /// How many input lines spoke deprecated wire v1.
    pub v1_lines: usize,
}

/// Evaluates the JSONL payload and renders the JSONL reply (separated from
/// [`run`] so tests can drive it without touching stdin or files). Should
/// the engine panic, every parsed slot answers `internal` and `stats`
/// appends no telemetry record.
pub fn run_lines(engine: &Engine, text: &str, stats: bool) -> BatchReply {
    // Parse every line first; parse failures keep their slot so responses
    // line up with requests. Line numbers are 1-based over the raw input
    // (blank lines count, so an error's `line` matches the user's editor).
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    let mut parsed = Vec::with_capacity(lines.len());
    for (line_no, line) in &lines {
        parsed.push((*line_no, jsonl::parse_query(line)));
    }
    let queries: Vec<parspeed_engine::Query> =
        parsed.iter().filter_map(|(_, p)| p.as_ref().ok().map(|pl| pl.query.clone())).collect();
    // The batcher's shield: a panic inside the engine answers every parsed
    // slot `internal` in its place instead of ending the process with no
    // reply at all. Parse-error slots keep their own replies.
    let out = catch_unwind(AssertUnwindSafe(|| engine.run_batch(&queries))).ok();
    let panicked = Response::Invalid(ParspeedError::Internal(
        "the engine panicked while serving the batch; the request may or may not have been \
         evaluated"
            .into(),
    ));

    let mut v1_lines = 0usize;
    let mut rendered = Vec::with_capacity(lines.len() + 1);
    let mut responses = out.as_ref().map(|out| out.responses.iter());
    for (line_no, p) in &parsed {
        match p {
            Ok(parsed_line) => {
                if parsed_line.version < parspeed_engine::WIRE_VERSION {
                    v1_lines += 1;
                }
                let response = match &mut responses {
                    Some(responses) => responses.next().expect("one response per parsed query"),
                    None => &panicked,
                };
                rendered.push(jsonl::render_response(
                    &parsed_line.query,
                    response,
                    parsed_line.version,
                    *line_no,
                ));
            }
            Err(e) => rendered.push(jsonl::render_parse_error(e, *line_no)),
        }
    }
    // A batch that panicked has no telemetry to report.
    if let Some(out) = out.as_ref().filter(|_| stats) {
        rendered.push(jsonl::render_telemetry(&out.telemetry));
    }
    BatchReply { stdout: rendered.join("\n"), v1_lines }
}

/// The per-stage breakdown of a `--stats` run, in the same text
/// exposition the serving layer's `--metrics-human` uses (file mode has
/// no serving stages, so only the engine's show up).
fn render_stage_breakdown(stages: &StageSet) -> String {
    let summaries: Vec<(&str, StageSummary)> =
        stages.summaries().iter().map(|&(stage, summary)| (stage.name(), summary)).collect();
    render_exposition(&summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(text: &str, stats: bool) -> Vec<String> {
        let engine = Engine::builder().build();
        run_lines(&engine, text, stats).stdout.lines().map(String::from).collect()
    }

    #[test]
    fn responses_line_up_with_requests() {
        let text = r#"
            {"op":"optimize","arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}
            this is not json
            {"op":"minsize","variant":"sync-square","e":6.0,"k":1.0,"procs":14}
        "#;
        let out = lines(text, false);
        assert_eq!(out.len(), 3);
        assert!(out[0].contains("\"op\":\"optimize\"") && out[0].contains("\"ok\":true"));
        assert!(out[0].contains("\"processors\":14"), "{}", out[0]);
        assert!(out[1].contains("\"ok\":false"));
        assert!(out[2].contains("\"op\":\"minsize\"") && out[2].contains("\"n_side\""));
    }

    #[test]
    fn error_slots_carry_their_one_based_input_line_number() {
        // Line 1 is blank, line 2 parses, line 3 is garbage, line 4 is a
        // well-formed but invalid query, line 5 is a 1 MB line nested past
        // the parser's depth cap, line 6 parses — the error slots must
        // point at lines 3, 4 and 5 of the raw input.
        let deep = format!("{}{}", "[".repeat(500_000), "]".repeat(500_000));
        let text = [
            "",
            r#"{"op":"minsize","variant":"sync-square","e":6.0,"k":1.0,"procs":14}"#,
            "not json",
            r#"{"op":"optimize","arch":"sync-bus","n":0,"stencil":"5pt","shape":"square"}"#,
            &deep,
            r#"{"op":"isoeff","arch":"sync-bus","stencil":"5pt","shape":"square","procs":16,"efficiency":0.5}"#,
            "",
        ]
        .join("\n");
        let out = lines(&text, false);
        assert_eq!(out.len(), 5);
        assert!(!out[0].contains("\"line\""), "successes carry no line: {}", out[0]);
        assert!(out[1].contains("\"ok\":false") && out[1].contains("\"line\":3"), "{}", out[1]);
        assert!(out[2].contains("\"ok\":false") && out[2].contains("\"line\":4"), "{}", out[2]);
        assert!(out[3].contains("\"ok\":false") && out[3].contains("\"line\":5"), "{}", out[3]);
        assert!(out[3].contains("-level limit"), "{}", out[3]);
        assert!(out[4].contains("\"ok\":true"), "{}", out[4]);
    }

    #[test]
    fn v2_lines_answer_v2_and_are_not_counted_deprecated() {
        let engine = Engine::builder().build();
        let text = "{\"op\":\"table1\",\"version\":2,\"n\":512,\"stencil\":\"5pt\"}\n{\"op\":\"minsize\",\"variant\":\"sync-square\",\"e\":6.0,\"k\":1.0,\"procs\":14}\n";
        let reply = run_lines(&engine, text, false);
        let out: Vec<&str> = reply.stdout.lines().collect();
        assert!(out[0].starts_with("{\"version\":2,\"op\":\"table1\""), "{}", out[0]);
        assert!(out[1].starts_with("{\"op\":\"minsize\""), "v1 keeps its legacy shape: {}", out[1]);
        assert_eq!(reply.v1_lines, 1);
    }

    #[test]
    fn stats_line_reports_dedup() {
        let q = r#"{"op":"optimize","arch":"sync-bus","n":128,"stencil":"5pt","shape":"square"}"#;
        let text = format!("{q}\n{q}\n{q}\n");
        let out = lines(&text, true);
        assert_eq!(out.len(), 4);
        let stats = &out[3];
        assert!(stats.contains("\"op\":\"telemetry\""));
        assert!(stats.contains("\"atoms\":3"));
        assert!(stats.contains("\"unique\":1"));
    }

    #[test]
    fn sweep_points_stream_inline() {
        let text = r#"{"op":"sweep","arch":["sync-bus"],"stencil":["5pt"],"shape":["square"],
            "procs":[64],"n_from":64,"n_to":256}"#
            .replace('\n', " ");
        let out = lines(&text, false);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("\"points\":["));
        assert_eq!(out[0].matches("\"arch\":\"sync-bus\"").count(), 3); // 64, 128, 256
    }

    #[test]
    fn new_ops_answer_inline() {
        let text = "{\"op\":\"table1\",\"n\":256,\"stencil\":\"5pt\"}\n{\"op\":\"compare\",\"n\":64,\"stencil\":\"5pt\",\"shape\":\"square\"}\n{\"op\":\"solve\",\"n\":15,\"solver\":\"cg\",\"tol\":1e-6}\n";
        let out = lines(text, false);
        assert_eq!(out.len(), 3);
        assert!(out[0].contains("\"rows\":[") && out[0].contains("hypercube"), "{}", out[0]);
        assert_eq!(out[1].matches("\"ok\":true").count(), 7, "compare + 6 points: {}", out[1]);
        assert!(out[2].contains("\"converged\":true"), "{}", out[2]);
    }

    #[test]
    fn stats_stage_breakdown_shows_engine_stages_only() {
        let engine = Engine::builder().build();
        let stages = Arc::new(StageSet::new());
        engine.set_recorder(Some(Arc::clone(&stages) as _));
        let q = r#"{"op":"optimize","arch":"sync-bus","n":128,"stencil":"5pt","shape":"square"}"#;
        run_lines(&engine, q, true);
        let text = render_stage_breakdown(&stages);
        for stage in ["plan", "dedup", "cache", "exec"] {
            assert!(
                text.contains(&format!("stage=\"{stage}\",quantile=\"0.5\"")),
                "missing {stage}: {text}"
            );
        }
        // File mode never touches the serving stages; the shared
        // renderer skips empty histograms rather than printing zeros.
        assert!(!text.contains("stage=\"queue\""), "{text}");
        assert!(!text.contains("stage=\"route\""), "{text}");
    }

    /// A panic inside the engine answers each parsed slot `internal` in
    /// its place, parse-error slots keep their own replies, and the run
    /// returns instead of ending the process.
    #[test]
    fn an_engine_panic_answers_internal_in_every_parsed_slot() {
        let engine = Engine::builder()
            .threads(1)
            .experiment_runner(|_, _| panic!("experiment runner failed"))
            .build();
        let text = [
            r#"{"op":"table1","version":2,"n":512,"stencil":"5pt"}"#,
            "not json",
            r#"{"op":"experiment","version":2,"id":"e1","quick":true}"#,
            r#"{"op":"minsize","variant":"sync-square","e":6.0,"k":1.0,"procs":14}"#,
        ]
        .join("\n");
        let reply = run_lines(&engine, &text, true);
        let out: Vec<&str> = reply.stdout.lines().collect();
        assert_eq!(out.len(), 4, "one reply per line and no telemetry: {out:?}");
        for (slot, version) in [(0, 2), (2, 2), (3, 1)] {
            let back = jsonl::parse(out[slot]).unwrap();
            assert_eq!(back.get("ok"), Some(&jsonl::Json::Bool(false)), "{}", out[slot]);
            assert_eq!(back.get("line").unwrap().as_usize(), Some(slot + 1), "{}", out[slot]);
            assert!(out[slot].contains("panicked"), "{}", out[slot]);
            if version == 2 {
                assert_eq!(back.get("error_kind").unwrap().as_str(), Some("internal"));
            }
        }
        let alone = lines("not json", false);
        assert_eq!(
            out[1].replace("\"line\":2", "\"line\":1"),
            alone[0],
            "parse slot keeps its reply"
        );
    }

    #[test]
    fn empty_input_is_fine() {
        assert_eq!(lines("", false).len(), 0);
        assert_eq!(lines("\n\n", true).len(), 1); // telemetry only
    }
}

//! Reply verification: every reply must be byte-identical to what the
//! serial engine answers for the same line.

use parspeed_engine::{jsonl, Engine};

/// The expected reply to each line: parsed, run through a single-threaded
/// `Engine::run_batch`, and rendered with `jsonl::render_response` — the
/// serving tier's own oracle (replies are bit-identical to serial runs).
pub fn references(lines: &[String]) -> Vec<String> {
    let parsed: Vec<_> = lines.iter().map(|l| jsonl::parse_query(l)).collect();
    let queries: Vec<_> =
        parsed.iter().filter_map(|p| p.as_ref().ok()).map(|p| p.query.clone()).collect();
    let out = Engine::builder().threads(1).build().run_batch(&queries);
    let mut responses = out.responses.into_iter();
    parsed
        .iter()
        .enumerate()
        .map(|(i, p)| match p {
            Ok(p) => {
                let response = responses.next().expect("one response per parsed query");
                jsonl::render_response(&p.query, &response, p.version, i + 1)
            }
            Err(e) => jsonl::render_parse_error(e, i + 1),
        })
        .collect()
}

/// Failure tallies, by the cause `failed_frac` counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub checked: u64,
    pub overloaded: u64,
    pub deadline: u64,
    pub parse: u64,
    pub other_error: u64,
    pub mismatch: u64,
    pub missing: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.overloaded
            + self.deadline
            + self.parse
            + self.other_error
            + self.mismatch
            + self.missing
    }

    /// Checks one reply against its reference.
    pub fn check(&mut self, reply: &str, expected: &str) {
        self.checked += 1;
        if reply == expected {
            return;
        }
        if reply.contains("\"error_kind\":\"overloaded\"") {
            self.overloaded += 1;
        } else if reply.contains("\"error_kind\":\"deadline_exceeded\"") {
            self.deadline += 1;
        } else if reply.contains("\"error_kind\":\"parse\"") {
            self.parse += 1;
        } else if reply.contains("\"ok\":false") {
            self.other_error += 1;
        } else {
            self.mismatch += 1;
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.checked += other.checked;
        self.overloaded += other.overloaded;
        self.deadline += other.deadline;
        self.parse += other.parse;
        self.other_error += other.other_error;
        self.mismatch += other.mismatch;
        self.missing += other.missing;
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"checked\":{},\"overloaded\":{},\"deadline_exceeded\":{},\"parse\":{},\"other_error\":{},\"mismatch\":{},\"missing\":{}}}",
            self.checked,
            self.overloaded,
            self.deadline,
            self.parse,
            self.other_error,
            self.mismatch,
            self.missing
        )
    }
}

/// True when an `ok` answer: the pool builders keep only lines that
/// succeed, so no operation in a workload fails by design.
pub fn is_ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_match_the_documented_anchor() {
        let line = r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}"#;
        let refs = references(&[line.to_string(), "not json".to_string()]);
        assert!(refs[0].contains("\"processors\":14"), "{}", refs[0]);
        assert!(refs[1].contains("\"ok\":false"), "{}", refs[1]);
    }

    #[test]
    fn one_flipped_byte_is_caught() {
        let line = r#"{"op":"table1","version":2,"n":1024,"stencil":"5pt"}"#.to_string();
        let expected = references(&[line]).remove(0);
        let mut tally = Tally::default();
        tally.check(&expected, &expected);
        assert_eq!(tally.failed(), 0);
        for i in 0..expected.len() {
            let mut bytes = expected.clone().into_bytes();
            bytes[i] ^= 0x01;
            let flipped = String::from_utf8_lossy(&bytes).into_owned();
            let mut t = Tally::default();
            t.check(&flipped, &expected);
            assert_eq!(t.failed(), 1, "flip at byte {i} went unnoticed");
        }
    }

    #[test]
    fn error_kinds_are_told_apart() {
        let mut t = Tally::default();
        t.check(r#"{"ok":false,"error_kind":"overloaded"}"#, "x");
        t.check(r#"{"ok":false,"error_kind":"deadline_exceeded"}"#, "x");
        t.check(r#"{"ok":false,"error_kind":"parse"}"#, "x");
        t.check(r#"{"ok":false,"error_kind":"internal"}"#, "x");
        t.check(r#"{"ok":true}"#, "x");
        t.missing += 1;
        assert_eq!((t.overloaded, t.deadline, t.parse, t.other_error, t.mismatch), (1, 1, 1, 1, 1));
        assert_eq!(t.failed(), 6);
    }
}

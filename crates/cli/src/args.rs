//! A small `--key value` argument parser.
//!
//! Commands declare the flags they accept; anything else is an error that
//! names the valid set, so typos fail loudly instead of silently falling
//! back to defaults. Values never start with `--` (negative numbers are
//! fine: `-1.5` parses as a value).

use std::collections::BTreeMap;

/// A command-line parsing or validation error, with the message shown to
/// the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Convenience constructor for error messages.
pub fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed `--key value` / `--flag` arguments for one command.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `tokens` against the allowed `keys` (value flags) and
    /// `switches` (boolean flags).
    pub fn parse(tokens: &[String], keys: &[&str], switches: &[&str]) -> Result<Self, CliError> {
        let mut out = Args::default();
        let mut i = 0usize;
        while i < tokens.len() {
            let tok = &tokens[i];
            let Some(name) = tok.strip_prefix("--") else {
                return Err(err(format!("unexpected argument `{tok}` (flags start with --)")));
            };
            if switches.contains(&name) {
                out.flags.push(name.to_string());
                i += 1;
                continue;
            }
            if !keys.contains(&name) {
                let mut all: Vec<&str> = keys.iter().chain(switches.iter()).copied().collect();
                all.sort_unstable();
                return Err(err(format!(
                    "unknown flag `--{name}`; valid flags: {}",
                    all.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(", ")
                )));
            }
            let Some(value) = tokens.get(i + 1) else {
                return Err(err(format!("flag `--{name}` needs a value")));
            };
            if value.starts_with("--") {
                return Err(err(format!("flag `--{name}` needs a value, got `{value}`")));
            }
            if out.values.insert(name.to_string(), value.clone()).is_some() {
                return Err(err(format!("flag `--{name}` given twice")));
            }
            i += 2;
        }
        Ok(out)
    }

    /// Whether a boolean switch was present.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// String value with a default.
    pub fn str_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.values.get(name).map(String::as_str).unwrap_or(default)
    }

    /// `usize` value with a default.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("flag `--{name}`: `{v}` is not a positive integer"))),
        }
    }

    /// Optional string value (`None` when the flag was not given).
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Optional `usize` value.
    pub fn usize_opt(&self, name: &str) -> Result<Option<usize>, CliError> {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| err(format!("flag `--{name}`: `{v}` is not a positive integer")))
            })
            .transpose()
    }

    /// `f64` value with a default.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| err(format!("flag `--{name}`: `{v}` is not a number")))
            }
        }
    }

    /// Optional `f64` value.
    pub fn f64_opt(&self, name: &str) -> Result<Option<f64>, CliError> {
        self.values
            .get(name)
            .map(|v| v.parse().map_err(|_| err(format!("flag `--{name}`: `{v}` is not a number"))))
            .transpose()
    }

    /// Comma-separated list of `usize` with a default.
    pub fn usize_list_or(&self, name: &str, default: &[usize]) -> Result<Vec<usize>, CliError> {
        match self.values.get(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim().parse().map_err(|_| {
                        err(format!("flag `--{name}`: `{s}` is not a positive integer"))
                    })
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = Args::parse(&toks(&["--n", "256", "--quick"]), &["n"], &["quick"]).unwrap();
        assert_eq!(a.usize_or("n", 64).unwrap(), 256);
        assert!(a.switch("quick"));
        assert!(!a.switch("verbose"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = Args::parse(&[], &["n", "tol"], &[]).unwrap();
        assert_eq!(a.usize_or("n", 64).unwrap(), 64);
        assert_eq!(a.f64_or("tol", 1e-8).unwrap(), 1e-8);
        assert_eq!(a.str_or("arch", "sync-bus"), "sync-bus");
    }

    #[test]
    fn rejects_unknown_flags_and_names_the_valid_set() {
        let e = Args::parse(&toks(&["--grid", "9"]), &["n"], &["quick"]).unwrap_err();
        assert!(e.0.contains("--grid"));
        assert!(e.0.contains("--n"));
        assert!(e.0.contains("--quick"));
    }

    #[test]
    fn rejects_missing_and_double_values() {
        assert!(Args::parse(&toks(&["--n"]), &["n"], &[]).is_err());
        assert!(Args::parse(&toks(&["--n", "--quick"]), &["n"], &["quick"]).is_err());
        assert!(Args::parse(&toks(&["--n", "1", "--n", "2"]), &["n"], &[]).is_err());
    }

    #[test]
    fn rejects_bad_numbers_with_the_flag_name() {
        let a = Args::parse(&toks(&["--n", "abc"]), &["n"], &[]).unwrap();
        let e = a.usize_or("n", 1).unwrap_err();
        assert!(e.0.contains("--n") && e.0.contains("abc"));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = Args::parse(&toks(&["--shift", "-1.5"]), &["shift"], &[]).unwrap();
        assert_eq!(a.f64_or("shift", 0.0).unwrap(), -1.5);
    }

    #[test]
    fn parses_lists() {
        let a = Args::parse(&toks(&["--threads", "1,2, 4,8"]), &["threads"], &[]).unwrap();
        assert_eq!(a.usize_list_or("threads", &[1]).unwrap(), vec![1, 2, 4, 8]);
        let b = Args::parse(&[], &["threads"], &[]).unwrap();
        assert_eq!(b.usize_list_or("threads", &[1, 2]).unwrap(), vec![1, 2]);
    }

    #[test]
    fn rejects_positional_arguments() {
        let e = Args::parse(&toks(&["256"]), &["n"], &[]).unwrap_err();
        assert!(e.0.contains("256"));
    }

    #[test]
    fn a_switch_takes_no_value() {
        let e = Args::parse(&toks(&["--quick", "yes"]), &[], &["quick"]).unwrap_err();
        assert_eq!(e.0, "unexpected argument `yes` (flags start with --)");
    }

    #[test]
    fn optional_values_are_none_when_absent() {
        let a =
            Args::parse(&toks(&["--procs", "16", "--tol", "1e-6"]), &["procs", "tol", "addr"], &[])
                .unwrap();
        assert_eq!(a.usize_opt("procs").unwrap(), Some(16));
        assert_eq!(a.f64_opt("tol").unwrap(), Some(1e-6));
        assert_eq!(a.str_opt("addr"), None);
        assert_eq!(a.usize_opt("addr").unwrap(), None);
        assert_eq!(a.f64_opt("addr").unwrap(), None);
    }

    #[test]
    fn bad_floats_and_list_items_name_the_flag_and_the_value() {
        let a =
            Args::parse(&toks(&["--tol", "tiny", "--threads", "1,two"]), &["tol", "threads"], &[])
                .unwrap();
        assert_eq!(a.f64_or("tol", 1e-8).unwrap_err().0, "flag `--tol`: `tiny` is not a number");
        assert_eq!(a.f64_opt("tol").unwrap_err().0, "flag `--tol`: `tiny` is not a number");
        assert_eq!(
            a.usize_list_or("threads", &[1]).unwrap_err().0,
            "flag `--threads`: `two` is not a positive integer"
        );
    }
}

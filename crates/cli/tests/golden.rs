//! Golden stdout tests: every CLI command's output, byte-for-byte.
//!
//! The expected files under `tests/golden/` were captured from the binary
//! *before* the commands were rerouted through the query engine; these
//! tests prove the reroute changed nothing a user sees.
//! (`threads` is excluded — it prints wall-clock measurements — and the
//! `batch` golden pins the legacy wire-v1 response shape, which v1 request
//! lines must keep receiving under the v2 schema.)

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn run_cli(args: &[&str]) -> String {
    let out =
        Command::new(env!("CARGO_BIN_EXE_parspeed")).args(args).output().expect("spawn parspeed");
    assert!(
        out.status.success(),
        "parspeed {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn assert_golden(file: &str, args: &[&str]) {
    let expected = std::fs::read_to_string(golden_dir().join(file))
        .unwrap_or_else(|e| panic!("missing golden {file}: {e}"));
    let actual = run_cli(args);
    assert_eq!(
        actual,
        expected,
        "stdout of `parspeed {}` drifted from pre-reroute golden {file}",
        args.join(" ")
    );
}

#[test]
fn optimize_golden() {
    assert_golden(
        "optimize_syncbus.txt",
        &["optimize", "--arch", "sync-bus", "--n", "256", "--procs", "64"],
    );
    assert_golden(
        "optimize_hypercube_mem.txt",
        &["optimize", "--arch", "hypercube", "--n", "512", "--memory", "20000"],
    );
}

#[test]
fn compare_golden() {
    assert_golden("compare_128.txt", &["compare", "--n", "128"]);
    assert_golden("compare_flex32.txt", &["compare", "--n", "256", "--procs", "32", "--flex32"]);
}

#[test]
fn sweep_golden() {
    assert_golden(
        "sweep_syncbus.txt",
        &["sweep", "--arch", "sync-bus", "--n-from", "64", "--n-to", "512"],
    );
    assert_golden(
        "sweep_banyan.txt",
        &[
            "sweep",
            "--arch",
            "banyan",
            "--n-from",
            "128",
            "--n-to",
            "1024",
            "--procs",
            "16",
            "--stencil",
            "9pt-box",
            "--shape",
            "strip",
        ],
    );
}

#[test]
fn isoeff_golden() {
    assert_golden("isoeff_syncbus.txt", &["isoeff", "--arch", "sync-bus", "--procs", "8,16,32,64"]);
    assert_golden(
        "isoeff_hypercube.txt",
        &[
            "isoeff",
            "--arch",
            "hypercube",
            "--efficiency",
            "0.8",
            "--procs",
            "4,8,16",
            "--stencil",
            "13pt",
        ],
    );
}

#[test]
fn minsize_golden() {
    assert_golden("minsize_14.txt", &["minsize", "--procs", "14"]);
    assert_golden(
        "minsize_flex32.txt",
        &["minsize", "--procs", "64", "--stencil", "9pt-star", "--flex32"],
    );
}

#[test]
fn table1_golden() {
    assert_golden("table1_default.txt", &["table1"]);
    assert_golden(
        "table1_overrides.txt",
        &["table1", "--n", "4096", "--stencil", "9pt-box", "--w", "1e-6"],
    );
}

#[test]
fn simulate_golden() {
    assert_golden(
        "simulate_mesh2d.txt",
        &["simulate", "--arch", "mesh2d", "--n", "64", "--procs", "4"],
    );
    assert_golden(
        "simulate_syncbus.txt",
        &[
            "simulate",
            "--arch",
            "sync-bus",
            "--n",
            "96",
            "--procs",
            "6",
            "--shape",
            "square",
            "--stencil",
            "9pt-box",
        ],
    );
    assert_golden(
        "simulate_schedbus.txt",
        &["simulate", "--arch", "scheduled-bus", "--n", "128", "--procs", "8"],
    );
}

#[test]
fn solve_golden() {
    assert_golden("solve_cg.txt", &["solve", "--n", "31", "--solver", "cg", "--tol", "1e-9"]);
    assert_golden("solve_multigrid.txt", &["solve", "--n", "31", "--solver", "multigrid"]);
    assert_golden(
        "solve_parallel.txt",
        &["solve", "--n", "31", "--solver", "parallel", "--partitions", "3"],
    );
}

#[test]
fn help_golden() {
    assert_golden("help.txt", &["help"]);
}

#[test]
fn experiment_golden() {
    assert_golden("experiment_e1.txt", &["experiment", "--id", "e1", "--quick"]);
    assert_golden("experiment_e3.txt", &["experiment", "--id", "e3", "--quick"]);
}

/// `batch` keeps answering wire-v1 request lines in the legacy v1 response
/// shape, byte for byte.
#[test]
fn batch_v1_golden() {
    let input = golden_dir().join("batch_v1_input.jsonl");
    let expected =
        std::fs::read_to_string(golden_dir().join("batch_v1_output.jsonl")).expect("golden");
    let actual = run_cli(&["batch", "--input", input.to_str().unwrap()]);
    assert_eq!(actual, expected, "wire-v1 batch responses drifted");
}

/// `rbsor` and `multigrid` replies, byte for byte (full `{:?}` digits of
/// every float): the golden was recorded from the natural-layout
/// red-black sweep and V-cycle, so any bit a kernel change moves shows.
#[test]
fn batch_solve_golden() {
    let input = golden_dir().join("batch_solve_input.jsonl");
    let expected =
        std::fs::read_to_string(golden_dir().join("batch_solve_output.jsonl")).expect("golden");
    let actual = run_cli(&["batch", "--input", input.to_str().unwrap()]);
    assert_eq!(actual, expected, "rbsor/multigrid solve replies drifted");
}

/// `threads` measures wall time, so only its structure is pinned.
#[test]
fn threads_structure() {
    let out =
        run_cli(&["threads", "--n", "64", "--threads", "1,2", "--iters", "1", "--repeats", "1"]);
    assert!(out.contains("Measured partitioned Jacobi"), "{out}");
    let data_rows: Vec<&str> = out
        .lines()
        .filter(|l| {
            let mut cols = l.split_whitespace();
            matches!(cols.next(), Some("1" | "2"))
        })
        .collect();
    assert_eq!(data_rows.len(), 2, "{out}");
}

//! Where experiment output goes: `parspeed experiment` writes its CSV
//! series under `target/experiments/` in its working directory, and an
//! `experiment` request served by `batch`, `serve` or `route` answers its
//! reply and writes nothing, neither in its working directory nor in the
//! checkout the binary was built from. Every command runs in a fresh,
//! empty working directory under the build's temporary directory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::SystemTime;

fn golden(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {file}: {e}"))
}

/// A new empty directory named `name` under the build's temporary
/// directory.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiment_files").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear the old directory");
    }
    std::fs::create_dir_all(&dir).expect("create the directory");
    dir
}

/// The files in the checkout's own `target/experiments`, with their
/// modification times: the directory the harness once wrote into from
/// any working directory.
fn checkout_csv() -> Vec<(PathBuf, SystemTime)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .map(|entry| {
            let entry = entry.expect("directory entry");
            (entry.path(), entry.metadata().and_then(|m| m.modified()).expect("mtime"))
        })
        .collect();
    files.sort();
    files
}

/// Every file under `dir`, as sorted paths relative to it.
fn files_under(dir: &Path) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("read directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                out.push(path.strip_prefix(root).unwrap().display().to_string());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// Runs `parspeed <args>` in `dir` with `input` on stdin.
fn parspeed(dir: &Path, args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parspeed"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn parspeed");
    child.stdin.take().expect("child stdin").write_all(input.as_bytes()).expect("write stdin");
    child.wait_with_output().expect("wait for parspeed")
}

/// The `batch_v2` golden's `experiment` request line and its reply line.
fn golden_experiment_exchange() -> (String, String) {
    let find = |file: &str| {
        golden(file)
            .lines()
            .find(|l| l.contains(r#""op":"experiment""#))
            .unwrap_or_else(|| panic!("{file} has no experiment line"))
            .to_string()
    };
    (find("batch_v2_input.jsonl"), find("batch_v2_output.jsonl"))
}

/// Spawns `parspeed <args> --addr 127.0.0.1:0` in `dir`, sends `request`
/// on one connection, and returns the reply line once the process has
/// drained and exited.
fn served_reply(dir: &Path, args: &[&str], request: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_parspeed"))
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parspeed");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut announce = String::new();
    stdout.read_line(&mut announce).expect("read announce line");
    // `listening on ADDR` (serve) or `routing on ADDR (N shards)` (route).
    let addr = announce.split_whitespace().nth(2).expect("bound address").to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(format!("{request}\n").as_bytes()).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply line");
    drop(child.stdin.take());
    stdout.read_to_string(&mut String::new()).expect("read to the drain");
    assert!(child.wait().expect("child exit").success());
    reply.trim_end_matches('\n').to_string()
}

#[test]
fn batch_answers_an_experiment_and_writes_nothing() {
    let (request, reply) = golden_experiment_exchange();
    let dir = fresh_dir("batch");
    let before = checkout_csv();
    let out = parspeed(&dir, &["batch"], &format!("{request}\n"));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), format!("{reply}\n"));
    assert_eq!(files_under(&dir), Vec::<String>::new());
    assert_eq!(checkout_csv(), before);
}

#[test]
fn serve_answers_an_experiment_and_writes_nothing() {
    let (request, reply) = golden_experiment_exchange();
    let dir = fresh_dir("serve");
    let before = checkout_csv();
    assert_eq!(served_reply(&dir, &["serve"], &request), reply);
    assert_eq!(files_under(&dir), Vec::<String>::new());
    assert_eq!(checkout_csv(), before);
}

#[test]
fn route_answers_an_experiment_and_writes_nothing() {
    let (request, reply) = golden_experiment_exchange();
    let dir = fresh_dir("route");
    let before = checkout_csv();
    assert_eq!(served_reply(&dir, &["route", "--shards", "2"], &request), reply);
    assert_eq!(files_under(&dir), Vec::<String>::new());
    assert_eq!(checkout_csv(), before);
}

/// `experiment` writes exactly its CSV series, byte for byte the files the
/// harness wrote before it returned them as data.
#[test]
fn experiment_writes_exactly_its_csv_series() {
    for (id, series) in [
        ("e1", &["e1_table_k.csv"][..]),
        ("e3", &["e3_fig7_5_point.csv", "e3_fig7_9_point_box.csv"][..]),
    ] {
        let dir = fresh_dir(&format!("experiment-{id}"));
        let out = parspeed(&dir, &["experiment", "--id", id, "--quick"], "");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
        let expected: Vec<String> =
            series.iter().map(|f| format!("target/experiments/{f}")).collect();
        assert_eq!(files_under(&dir), expected, "{id}");
        for file in series {
            let written = std::fs::read_to_string(dir.join("target/experiments").join(file));
            assert_eq!(written.unwrap(), golden(file), "{file}");
        }
    }
}

/// A CSV write that fails costs the files, not the report: with a regular
/// file where `target/` would go, the report still prints and the command
/// still succeeds, and stderr names the path it could not create.
#[test]
fn a_failed_csv_write_is_reported_and_the_report_still_prints() {
    let dir = fresh_dir("blocked");
    std::fs::write(dir.join("target"), "").unwrap();
    let out = parspeed(&dir, &["experiment", "--id", "e1", "--quick"], "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden("experiment_e1.txt"));
    assert!(stderr.contains("target/experiments"), "{stderr}");
    assert_eq!(files_under(&dir), ["target"]);
}

/// `--id all` writes every experiment's series, the 30 files
/// EXPERIMENTS.md lists, side by side in one directory.
#[test]
fn experiment_all_writes_every_series_once() {
    let dir = fresh_dir("experiment-all");
    let out = parspeed(&dir, &["experiment", "--id", "all", "--quick"], "");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
    let files = files_under(&dir);
    assert_eq!(files.len(), 30, "{files:?}");
    for file in &files {
        let name = file.strip_prefix("target/experiments/").unwrap_or_else(|| panic!("{file}"));
        let (id, _) = name.split_once('_').unwrap_or_else(|| panic!("{file}"));
        let number: u32 = id.strip_prefix('e').and_then(|n| n.parse().ok()).expect(file);
        assert!((1..=17).contains(&number) && name.ends_with(".csv"), "{file}");
    }
    for file in ["e1_table_k.csv", "e3_fig7_5_point.csv", "e3_fig7_9_point_box.csv"] {
        let written = std::fs::read_to_string(dir.join("target/experiments").join(file));
        assert_eq!(written.unwrap(), golden(file), "{file}");
    }
}

/// An unknown id is an error before anything is written.
#[test]
fn an_unknown_experiment_writes_nothing() {
    let dir = fresh_dir("unknown-id");
    let out = parspeed(&dir, &["experiment", "--id", "e99", "--quick"], "");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        "error: unknown experiment `e99`; e1..e17 or all\n"
    );
    assert_eq!(files_under(&dir), Vec::<String>::new());
}

/// Ids are read in any case, and a run over the series of an earlier run
/// succeeds and leaves the same one file.
#[test]
fn a_rerun_in_any_case_rewrites_the_same_series() {
    let dir = fresh_dir("rerun");
    for id in ["e1", "E1"] {
        let out = parspeed(&dir, &["experiment", "--id", id, "--quick"], "");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(String::from_utf8(out.stdout).unwrap(), golden("experiment_e1.txt"), "{id}");
        assert_eq!(files_under(&dir), ["target/experiments/e1_table_k.csv"], "{id}");
        let written = std::fs::read_to_string(dir.join("target/experiments/e1_table_k.csv"));
        assert_eq!(written.unwrap(), golden("e1_table_k.csv"), "{id}");
    }
}

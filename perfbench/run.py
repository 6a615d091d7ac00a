#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        Builds `parspeed` and the driver from source (release, offline, into
        $CARGO_TARGET_DIR or .bench_build), then runs one measurement. The
        last stdout line is the result object.

    python3 perfbench/run.py repeat --out FILE [--seeds 1-10] [--workloads a,b]
                                    [--seconds S] [--trace 0|1]
        Runs the benchmark once per (workload, seed) and appends one JSON
        record per run to FILE: a result set.

    python3 perfbench/run.py compare BASE.jsonl [NEW.jsonl]
        Per workload and end-to-end metric: median, quartiles, spread
        (IQR / median), and with NEW the delta of medians. A spread wider
        than the metric's bound in BENCHMARK.json is "unresolved".

Run every form from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds both binaries; returns (parspeed, perfbench) paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "cli")
    ):
        fail("run from a parspeed checkout: the workspace sources are missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    for args in (
        ["-p", "parspeed-cli", "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--target-dir", target] + args
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "parspeed"), os.path.join(release, "perfbench")


def measure(argv):
    parspeed, driver = build()
    os.execv(driver, [driver] + argv + ["--parspeed", parspeed, "--out-dir", os.path.join(HERE, "out")])


def option(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
        fail(f"{flag} needs a value")
    return default


def seed_range(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def repeat(argv):
    spec = benchmark_spec()
    out = option(argv, "--out", None) or fail("repeat needs --out FILE")
    seeds = seed_range(option(argv, "--seeds", "1-10"))
    names = option(argv, "--workloads", ",".join(w["name"] for w in spec["workloads"])).split(",")
    seconds = option(argv, "--seconds", str(spec["run_seconds"]))
    trace = option(argv, "--trace", "0")
    build()
    for name in names:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", seconds, "--trace", trace]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                fail(f"{name} seed {seed} failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
            record = {"workload": name, "seed": seed, "record": json.loads(lines[-2]),
                      "result": json.loads(lines[-1])}
            with open(out, "a") as f:
                f.write(json.dumps(record) + "\n")
            values = {k: round(v["value"], 4) for k, v in record["result"]["metrics"].items()}
            print(f"{name} seed={seed} correct={record['result']['correct']} {values}", flush=True)


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def compare(argv):
    """Every metric of every workload; end-to-end metrics get a verdict
    against their bound, per-layer metrics (no bound) only the numbers."""
    if not argv:
        fail("compare needs BASE.jsonl [NEW.jsonl]")
    spec = benchmark_spec()
    sets = [load_set(p) for p in argv[:2]]
    print(f"{'workload':<12} {'metric':<32} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
          f"{'bound':>6}" + (f" {'new med':>12} {'delta':>8}" if len(sets) > 1 else "") + "  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            key, bound = metric["name"], metric.get("bound")
            vals = [[r["metrics"][key]["value"] for r in runs.get(name, []) if key in r["metrics"]]
                    for runs in sets]
            if not vals[0]:
                continue
            med, q1, q3, spread = summary(vals[0])
            line = (f"{name:<12} {key:<32} {len(vals[0]):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                    f"{spread:>7.3f} {bound if bound is not None else '-':>6}")
            lower = metric["better"] == "lower"
            noisy = bound is not None and key != "setup_s" and any(v and summary(v)[3] > bound for v in vals)
            if len(vals) > 1 and vals[1]:
                new = summary(vals[1])[0]
                delta = (new - med) / med if med else float("inf")
                line += f" {new:>12.5g} {delta:>+8.3f}"
                if bound is None:
                    verdict = ""
                elif noisy:
                    # Unresolved, unless every new run beats every base run.
                    beats = max(vals[1]) < min(vals[0]) if lower else min(vals[1]) > max(vals[0])
                    verdict = "better (every run)" if beats else "unresolved"
                else:
                    verdict = "worse" if (delta if lower else -delta) > bound else "ok"
            elif bound is None:
                verdict = ""
            else:
                verdict = "unresolved" if noisy else ("steady" if spread <= bound / 3 else "within bound")
            print(line + "  " + verdict)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "repeat":
        repeat(argv[1:])
    elif argv and argv[0] == "compare":
        compare(argv[1:])
    else:
        measure(argv)


if __name__ == "__main__":
    main()

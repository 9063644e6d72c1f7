#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--seed <n>]

Run it from the repository root. It builds `perfbench` (a Cargo package of
its own) into `$CARGO_TARGET_DIR`, default `.bench_build`, runs each workload
in a fresh process, and passes the run's report through. A single-workload
run ends with one JSON line: the verdict (`correct`, `attempted`, `failed`)
and the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`) named in BENCHMARK.json. The exit code is non-zero when the
build fails, a run fails, or any output was wrong.

`--selftest` runs every workload's traced run twice with one seed and checks
that the count metrics repeat exactly.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = [
    "lcc_skew_cached",
    "lcc_skew_uncached",
    "jaccard_skew_compressed",
    "service_hub_open",
]
# Per-layer metrics that are counts or ratios of counts: a fixed seed must
# reproduce them exactly in a fresh process.
COUNT_METRICS = [
    "graph.compression_ratio",
    "clampi.adj.lookups",
    "clampi.adj.hit_rate",
    "clampi.adj.evictions",
    "clampi.adj.admission_rejections",
    "clampi.offsets.hit_rate",
    "rma.gets",
    "rma.bytes",
    "rma.modeled_comm_s",
    "dist.gets",
    "dist.remote_edge_fraction",
]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns (exit code, stdout lines)."""
    env = dict(os.environ)
    # Pin everything the library reads from the environment: storage is set
    # explicitly per workload, and the work-stealing pool stays at one thread
    # so the rank threads alone fill the cores.
    env.pop("RMATC_STORAGE", None)
    env["RMATC_THREADS"] = "1"
    env["RAYON_NUM_THREADS"] = "1"
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def contract_names(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def verdict_of(lines, trace):
    """Parses and checks the run's closing JSON line."""
    if not lines:
        return None
    try:
        verdict = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    names = contract_names(trace)
    if names is not None and sorted(verdict["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(verdict["metrics"]))
        extra = sorted(set(verdict["metrics"]) - set(names))
        print(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
              f"extra {extra}", file=sys.stderr)
        return None
    return {
        "correct": bool(verdict["correct"]),
        "attempted": int(verdict["attempted"]),
        "failed": int(verdict["failed"]),
        "metrics": verdict["metrics"],
    }


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload, echoes its report; returns (exit code, verdict)."""
    code, lines = run_binary(binary, workload, seed, seconds, trace)
    for line in lines[:-1]:
        print(line)
    verdict = verdict_of(lines, trace)
    if verdict is None:
        print(f"run.py: {workload} printed no valid result", file=sys.stderr)
        return (code or 1), None
    if code == 0 and (not verdict["correct"] or verdict["failed"]):
        code = 1
    return code, verdict


def selftest(binary, seed):
    ok = True
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            code, verdict = run_workload(binary, workload, seed, 1, True)
            if code != 0 or verdict is None:
                return 1
            runs.append({k: verdict["metrics"][k]["value"] for k in COUNT_METRICS})
        for name in COUNT_METRICS:
            same = runs[0][name] == runs[1][name]
            ok &= same
            print(f"selftest {workload} {name}: {runs[0][name]} / {runs[1][name]}"
                  f" {'same' if same else 'DIFFERENT'}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed not negative")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary, args.seed)
    if args.workload == "all":
        worst = 0
        for workload in WORKLOADS:
            print(f"== {workload}")
            code, verdict = run_workload(binary, workload, args.seed,
                                         args.seconds, bool(args.trace))
            if verdict is not None:
                print(json.dumps(verdict))
            worst = worst or code
        return worst
    code, verdict = run_workload(binary, args.workload, args.seed,
                                 args.seconds, bool(args.trace))
    if verdict is not None:
        print(json.dumps(verdict))
    return code


if __name__ == "__main__":
    sys.exit(main())

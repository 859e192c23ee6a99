#!/usr/bin/env python3
"""Builds and runs the ftl serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload shared-faults --seed 1 --seconds 30 --trace 0

Builds the `ftl-perfbench` package from source (into $CARGO_TARGET_DIR,
default `.bench_build` under the current directory), then runs one
workload. The benchmark's report goes to standard output; its last line
is one JSON object. Build output goes to standard error. `--self-test`
runs the benchmark's own unit tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 175


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(
        ["cargo", *args, "--release", "--offline", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        check=False,
    ).returncode


def describe(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    # Cargo resolves a relative CARGO_TARGET_DIR against the current
    # directory; so does this script.
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.self_test:
        return cargo(["test", "--quiet"], target)
    if not args.workload:
        ap.error("--workload is required")
    if cargo(["build", "--quiet"], target) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # The commit is recorded only when the benchmark sits in its own git
    # checkout (never one found further up the tree).
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = describe(["git", "rev-parse", "HEAD"], ROOT)
    cmd = [
        os.path.join(target, "release", "ftl-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(os.getcwd(), ".bench_out"),
        "--rustc", describe(["rustc", "--version"], ROOT),
        "--commit", commit,
    ]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    problem = check_result(lines[-1] if lines else "", args.trace)
    if problem:
        # The report still helps whoever reads the failure; the result
        # line does not go out.
        print("\n".join(lines[:-1]), file=sys.stderr)
        print(f"perfbench: {problem}", file=sys.stderr)
        return run.returncode or 4
    print(run.stdout, end="")
    return run.returncode


def check_result(line, trace):
    """Checks the result line against BENCHMARK.json: every metric of the
    run's kind, each with its declared unit, and nothing else."""
    try:
        result = json.loads(line)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return f"no valid result line ({e})"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != declared:
        return f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, want {sorted(declared.items())}"
    return None


if __name__ == "__main__":
    sys.exit(main())

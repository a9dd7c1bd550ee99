#!/usr/bin/env python3
"""Build and run the mbd-server benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the shipped `mbd-server` and the harness (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`) and runs one
measurement; the last line of stdout is the result object. `--smoke` runs
every workload the harness implements at tiny fixed work, traced and untraced,
and checks that every metric is reported with its unit and every
verification passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
# Every workload the harness implements. BENCHMARK.json lists the ones
# steady enough to gate on; README.md says why health-walk is not.
WORKLOADS = ["invoke-pipelined", "health-walk", "delegate-churn"]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the server binary and the harness; returns their paths."""
    for required in ("Cargo.toml", os.path.join("src", "bin", "mbd-server.rs")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"run from the repository root: {required} not found")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "mbd-server"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest],
    ):
        # Build output goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", done.returncode)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "mbd-server"), os.path.join(release, "perfbench")


def git_rev():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def harness_cmd(server, harness, args):
    return [
        harness,
        *args,
        "--server-bin",
        server,
        "--work-dir",
        os.path.join(target_dir(), "perfbench"),
        "--git-rev",
        git_rev(),
    ]


def smoke(server, harness):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = [f"unknown workload {w['name']}" for w in spec["workloads"] if w["name"] not in WORKLOADS]
    for name in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace]
            done = subprocess.run(
                harness_cmd(server, harness, args + ["--smoke"]),
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=300,
            )
            label = f"{name} trace={trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: verification failed: {done.stderr.strip()}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            print(f"smoke {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, correct={result['correct']}")
    for p in problems:
        print(f"smoke FAILED {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    args = sys.argv[1:]
    server, harness = build()
    if args == ["--smoke"]:
        smoke(server, harness)
    done = subprocess.run(harness_cmd(server, harness, args), cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_reseed --seed 1 --seconds 20 --trace 0

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`), then run with the same
arguments. Its standard output, ending in the one-line JSON result, is passed
through once its metric names and units are checked against the lists in
`BENCHMARK.json`; the exit code is the binary's, or 1 if the check fails, or
the build's if the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def capture(cmd, **kw):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, **kw)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # host record: the binary prints these with the rest of the record;
    # the git lookup must not climb out of the checkout
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"], env=env)
    env["PERFBENCH_GIT_REV"] = capture(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        env=dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
    )
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run([exe] + sys.argv[1:], env=env, stdout=subprocess.PIPE, text=True)
    problem = check_metrics(run.stdout, sys.argv[1:])
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


def check_metrics(stdout, argv):
    """The result line must report exactly the metrics BENCHMARK.json lists
    for the mode, with the units it gives them."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None  # the binary failed before printing; its exit code says so
    try:
        metrics = json.loads(lines[-1])["metrics"]
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError, KeyError) as e:
        return f"cannot check the result line: {e}"
    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != wanted:
        return f"result metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}"
    return None


if __name__ == "__main__":
    sys.exit(main())

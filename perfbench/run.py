#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); the harness and the `m3d_serve` binary it
drives are built together in release mode. `--workload all` runs every
workload named in BENCHMARK.json in turn. Exits non-zero without a
result line when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build chatter goes to stderr: stdout's last line is the result.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def workload_names():
    with open("BENCHMARK.json") as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def main(argv):
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target_dir, "release", "perfbench")
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        i = argv.index("--workload")
        for name in workload_names():
            args = argv[:i] + ["--workload", name] + argv[i + 2:]
            code = subprocess.run([exe] + args).returncode
            if code != 0:
                return code
        return 0
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Builds the fmperf daemon and the benchmark from source, then runs one
benchmark run.  Run it from the repository root:

    python3 e2ebench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`).  Build
output goes to stderr, so the last line of stdout is the run's JSON
result.  The exit code is the benchmark's (non-zero, with no result,
when either build fails).
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "fmperf"],
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for args in builds:
        done = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--offline", *args],
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            sys.exit(done.returncode or 1)
    if "E2EBENCH_COMMIT" not in env:
        rev = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
        )
        env["E2EBENCH_COMMIT"] = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    bench = [
        os.path.join(target, "release", "e2ebench"),
        "--fmperf",
        os.path.join(target, "release", "fmperf"),
        "--out",
        os.path.join(here, "out"),
        *sys.argv[1:],
    ]
    sys.exit(subprocess.run(bench, env=env).returncode)


if __name__ == "__main__":
    main()

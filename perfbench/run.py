#!/usr/bin/env python3
"""Builds the benchmark and the real `mbqao-serve` binary from source,
then runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Every argument is passed to the `perfbench` binary, which validates them
(unknown flags are rejected with a usage line) and prints the result as
the last line of stdout. Build output goes to stderr. Build artifacts,
reports and span dumps stay under `$CARGO_TARGET_DIR` (default
`.bench_build`); nothing else in the checkout is written.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "mbqao-bench", "--bin", "mbqao-serve"],
    ]
    for cmd in builds:
        # Build output must not reach stdout, whose last line is the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 3
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    env["PERFBENCH_GIT_COMMIT"] = commit or "unknown"
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--serve-exe", os.path.join(release, "mbqao-serve"),
        "--out-dir", os.path.join(target, "perfbench-results"),
    ]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

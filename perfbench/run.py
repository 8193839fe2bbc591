#!/usr/bin/env python3
"""Builds the daemon and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Build output goes to
$CARGO_TARGET_DIR (default .bench_build). The benchmark's own output,
ending in one JSON result line, goes to standard output; the exit code
is the benchmark's (non-zero when the build or any check fails).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("starbench-scaled", "serve-cold", "serve-edit")


def build(cmd):
    # Build chatter goes to stderr so the result line stays last on stdout.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("run from the root of the repository: no Cargo.toml and crates/ here")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(["cargo", "build", "--release", "--offline", "-q", "-p", "repro-serve", "--bin", "repro-serve"])
    build(["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join(here, "Cargo.toml")])

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(target, "release", "repro-serve"),
    ]
    # The benchmark and the daemons it spawns share a process group of
    # their own, so a terminated run takes all of them down with it.
    child = subprocess.Popen(cmd, start_new_session=True)
    stopped = []

    def stop(signum, _frame):
        stopped.append(signum)
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = child.wait()
    if stopped:
        # A killed benchmark cannot remove its own scratch directory.
        shutil.rmtree(os.path.join(".perfbench", f"work-{child.pid}"), ignore_errors=True)
        sys.exit(128 + stopped[0])
    sys.exit(code)


if __name__ == "__main__":
    main()

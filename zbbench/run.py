#!/usr/bin/env python3
"""Builds (Release) and runs the zerobak end-to-end benchmark.

    python3 zbbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 zbbench/run.py --selftest [--seed N]

Run from the root of a source tree. The benchmark is compiled from the
tree's src/ into $CARGO_TARGET_DIR (default .bench_build)/zbbench; build
output goes to stderr. The last line of standard output is the result
JSON printed by the benchmark binary. --selftest runs the negative
controls: every correctness check must catch a deliberately injected
fault. See zbbench/README.md.
"""

import argparse
import os
import resource
import subprocess
import sys

WORKLOADS = ("orders_db", "hot_blocks", "outage_resync")
# Whole run, build check included; a run measures for --seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Address-space cap for the benchmark process: a runaway round fails
# instead of taking the machine's memory.
MEMORY_LIMIT_BYTES = 6 << 30

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "zbbench")


def build():
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "zbbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "zbbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            sys.exit("zbbench: build timed out")
        if done.returncode != 0:
            sys.exit("zbbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "zbbench")


def git_commit():
    """The checkout's commit, read from its own .git only (never a parent)."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                head = f.read().strip()
        return head or "unknown"
    except OSError:
        return "unknown"


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run(cmd):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=limit_memory,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.exit("zbbench: run timed out")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if args.selftest:
        done = run([binary, "--negative-control", "--seed", str(args.seed)])
        return done.returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    done = run(cmd)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith(
            '{"correct"'):
        sys.exit("zbbench: the benchmark exited with %d and no result"
                 % done.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())

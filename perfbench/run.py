#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload heal --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload crash --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke [--workload W] [--seed N]

The first call configures and builds a Release copy of the library and the
benchmark under .bench_build/perfbench (later calls rebuild incrementally).
Build output goes to stderr; the benchmark's stdout passes through, ending
with one JSON result line.  Traced runs also write their spans to
.bench_build/perfbench/traces/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sssw_perfbench")
WORKLOADS = ["heal", "serve", "crash"]
# A run must end within 180 s; leave room for process start and teardown.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr)
    return done.returncode == 0


def git_sha():
    """The commit under test, or "none" when the tree is not a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def run(args):
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="equivalence and determinism checks instead of timing")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if args.smoke:
        codes = [run(["--workload", w, "--seed", str(args.seed), "--smoke"])
                 for w in ([args.workload] if args.workload else WORKLOADS)]
        return 0 if all(code == 0 for code in codes) else 1
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())

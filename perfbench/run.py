#!/usr/bin/env python3
"""Build the hyades host-time benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload {coupled,tile,campaign} --seed N \
        --seconds S --trace {0,1}

The benchmark binary is built with CMake under .bench_build/perfbench
(the first run compiles src/, later runs are incremental no-ops).  Build
output goes to stderr; the binary's stdout is passed through, and its
last line is the JSON result.  Any failure exits non-zero without a
result line.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "perfbench-runs"
BINARY = BUILD_DIR / "hyades_perfbench"
WORKLOADS = ("coupled", "tile", "campaign")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no hyades sources at {ROOT / 'src'}; run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    build()
    # Per-run scratch space (farm checkpoints, probe files) inside the
    # checkout, removed afterwards whatever the outcome.
    scratch = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch),
           "--trace-out", str(RUNS_DIR / f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

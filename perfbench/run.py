#!/usr/bin/env python3
"""Run one workload of the two-clock benchmark.

    python3 perfbench/run.py --workload batch-wide --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the program under
test (the repository's src/) and the mspbench binary with CMake into
.bench_build (or $CARGO_TARGET_DIR when set); later runs reuse the build.
mspbench measures the workload; this script adds that process's
peak RSS and the set-up time, and prints, as its last stdout line, one
JSON object with the keys correct, attempted, failed and metrics.
setup_s is the median over SETUPS cold set-ups, each the first in its own
process: the measuring run's and those of SETUPS - 1 more mspbench
processes started with --setup-only 1. Host metadata (compiler,
SIMD backend, nproc, p, seed, build flags, sample counts) is printed on
the line before it. Build output goes to stderr when the build fails.

Exits non-zero without a result line when the build, a correctness check
or a workload's own claim fails (see README.md in this directory).
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("batch-wide", "open-ptm", "serve-poisson", "sched-mix")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # for every process of one run together
SETUPS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", "4",
                      "--target", "mspbench"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "mspbench")


def run_child(command, workload, deadline):
    """Runs one mspbench process; returns its last stdout line as JSON and
    its rusage. Kills it at the deadline."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), child.kill)
    timer.start()
    out = child.stdout.read()
    # wait4 gives this child's own rusage: RUSAGE_CHILDREN would also hold
    # the compilers of a first-run build and the other mspbench processes.
    _, status, usage = os.wait4(child.pid, 0)
    timer.cancel()
    child.stdout.close()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        fail(f"{workload} failed (exit {code})")
    lines = out.decode().strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1]), usage


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-test uses 0.25)")
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--scale", str(args.scale)]
    result, usage = run_child(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        args.workload, deadline)
    meta = result.pop("meta")
    max_rss_kib = usage.ru_maxrss
    meta["peak_rss_kib"] = max_rss_kib
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {
            "value": max_rss_kib * 1024 / 1e6, "unit": "MB"}
        setups = [meta["setup_cold_s"]]
        for _ in range(SETUPS - 1):
            setup, _ = run_child(common + ["--setup-only", "1"],
                                 args.workload, deadline)
            setups.append(setup["setup_cold_s"])
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
        meta["setup_cold_s"] = setups
    print("meta " + json.dumps(meta))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()

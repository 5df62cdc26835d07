#!/usr/bin/env python3
"""Serving benchmark for the Central Graph keyword search engine.

Builds the benchmark program (and the repository's libraries from ../src)
with CMake on first use, then runs one workload and relays its output; the
last line of standard output is the JSON result.

    python3 perfbench/run.py --workload hot_zipf --seed 1 --seconds 20 --trace 0

Workloads: hot_zipf, cold_tail (see BENCHMARK.json). Build
output goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output sent to stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as exc:
        log(f"perfbench: {' '.join(cmd)}: {exc}")
        return False
    return proc.returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot_zipf", "cold_tail"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"perfbench: no repository sources in {ROOT}/src")
        return 2

    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_root = os.path.join(ROOT, target_root)
    build_dir = os.path.join(target_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return 2
    if not run_logged(["cmake", "--build", build_dir, "--target",
                       "serve_bench", "-j", "4"], BUILD_TIMEOUT_S):
        return 2

    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    cmd = [os.path.join(build_dir, "serve_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(target_root, "perfbench-out")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, _frame):
        # Never leave the benchmark program behind: stop it, wait for it, then exit.
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: serve_bench exceeded {RUN_TIMEOUT_S} s; stopping it")
        proc.kill()
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())

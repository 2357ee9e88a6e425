#!/usr/bin/env python3
"""Builds the whole-job benchmark from source and runs one workload.

Usage, from the repository root:

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build (CMake, Release) goes to .bench_build/bench_e2e under the
repository root; an up-to-date build is a no-op. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Exits non-zero,
without a result, when the build fails, and with the benchmark's own status
otherwise.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
BUILD_JOBS = "4"
# A run measures for --seconds and stays well under three minutes; a job
# that hangs is killed at its own deadline by the benchmark first.
RUN_TIMEOUT_S = 175


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"bench_e2e: build failed: {e}", file=sys.stderr)
        return 1
    # Its own process group, so a timeout also stops the job processes the
    # benchmark forks.
    proc = subprocess.Popen([BINARY] + sys.argv[1:], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"bench_e2e: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload profile_rw --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root (or anywhere: paths are resolved from this
file). The driver and the platform libraries are built in Release mode
under .bench_build/perfbench; the first build takes a few minutes, later
runs only check that it is up to date. The driver's output passes through
unchanged: metric lines, a stamp line, and last one JSON result line.
Per-run result files and trace spans go to .bench_build/perfbench-results.
Exits nonzero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output sent to stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("%s failed: %s" % (cmd[0], e))
        return False
    return proc.returncode == 0


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("platform sources not found under %s/src" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"], 300):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                     targets, 850)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the platform and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_child(cmd):
    """Runs the driver with stdout passed through; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver exceeded %ds; stopping it" % RUN_TIMEOUT_S)
        proc.kill()
        proc.wait()
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_tests"]):
            return 2
        return run_child([os.path.join(BUILD, "perfbench_tests")])

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not build(["perfbench_driver"]):
        log("build failed")
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest(),
           "--out", RESULTS]
    sys.stdout.flush()
    return run_child(cmd)


if __name__ == "__main__":
    sys.exit(main())

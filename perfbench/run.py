#!/usr/bin/env python3
"""Build and run the gossip end-to-end benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ and the gossip library it links into .bench_build at the
repository root (incrementally after the first run), runs one workload, and
prints the result JSON as the last line of standard output. Host diagnostics
(nproc, load average, the steal share of CPU time over the run) go to
standard error: they tell a noisy host apart from a regression and are not
metrics. Traced runs (--trace 1) also write a Chrome trace_event file under
.bench_out/. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench_gossip")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} missing at {ROOT}: run from a full checkout of the repository")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_gossip", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(cmd)}", 1)


def cpu_times():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def host_diagnostics(before, after):
    try:
        with open("/proc/loadavg") as f:
            load = " ".join(f.read().split()[:3])
    except OSError:
        load = "n/a"
    steal = "n/a"
    if before and after and after[1] > before[1]:
        steal = f"{100.0 * (after[0] - before[0]) / (after[1] - before[1]):.2f}%"
    return f"host: nproc={os.cpu_count()} loadavg={load} steal={steal} of cpu time over the run"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace_{args.workload}_{args.seed}.json")]
    before = cpu_times()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    print(host_diagnostics(before, cpu_times()), file=sys.stderr)
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}", 1)
    lines = done.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("benchmark printed no result", 1)
    print(lines[-1])


if __name__ == "__main__":
    main()

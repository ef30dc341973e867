#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

usage: python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 1]
                                   [--out FILE] [--compare FILE]

Runs perfbench/run.py --runs times per workload, each run with another
--seed (seed-base, seed-base + 1, ...), interleaving the workloads so that
host drift hits them alike. For every end-to-end metric it prints and
records the median, the quartiles (statistics.quantiles, n=4) and the
spread, the quartile distance as a share of the median, against the
metric's bound in BENCHMARK.json. --compare FILE also checks that no
median is worse than the one recorded in FILE by more than the bound.
It prints "NOT steady" and exits 1 when an operation failed, when any
metric's spread exceeds its bound (setup_s included), or when a median
regressed.
Run it from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    host = [line for line in done.stderr.splitlines() if line.startswith("host:")]
    return json.loads(done.stdout.strip().splitlines()[-1]), host[-1] if host else ""


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = [args.seed_base + r for r in range(args.runs)]

    values = {w: {m: [] for m in bounds} for w in workloads}
    diagnostics, failures = [], 0
    for seed in seeds:
        for w in workloads:
            result, host = run_once(w, seed, spec["run_seconds"])
            failures += result["failed"] + (0 if result["correct"] else 1)
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            diagnostics.append({"workload": w, "seed": seed, "host": host,
                                "attempted": result["attempted"], "failed": result["failed"]})
            print(f"{w} seed {seed}: trial_s {result['metrics']['trial_s']['value']:.4f} "
                  f"setup_s {result['metrics']['setup_s']['value']:.5f}  {host}", flush=True)

    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "failed": failures,
              "workloads": {}, "diagnostics": diagnostics}
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)["workloads"]
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    ok = failures == 0
    for w in workloads:
        record["workloads"][w] = {}
        for m, bound in bounds.items():
            s = summarize(values[w][m], bound)
            record["workloads"][w][m] = s
            verdict = "ok" if s["spread"] < bound / 3 else "WIDE" if s["spread"] <= bound else "FAIL"
            if verdict == "FAIL":
                ok = False
            line = (f"{w:24s} {m:14s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                    f"spread {100 * s['spread']:.2f}% bound {100 * bound:.0f}% {verdict}")
            if w in previous and m in previous[w]:
                before = previous[w][m]["median"]
                worse = (s["median"] - before) / before if lower[m] else (before - s["median"]) / before
                line += f"  vs previous {100 * worse:+.2f}%"
                if worse > bound:
                    line += " REGRESSED"
                    ok = False
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

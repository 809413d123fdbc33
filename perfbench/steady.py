#!/usr/bin/env python3
"""Steadiness report for vmgrid's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/steady.py

Runs perfbench/run.py RUNS times per workload and set, SETS sets, for
every workload of BENCHMARK.json and for its run_seconds each, each run
with another seed (set k uses seeds k*RUNS+1 .. (k+1)*RUNS). It prints
for every end-to-end metric its median, quartiles and spread (quartile
distance over median) per set, against the metric's bound. Every spread,
setup_s's too, must stay within the bound, and each later set's median
may not be worse than the first set's by more than the bound. A spread
above a third of the bound is flagged as unsteady. Exits 1 if a run
fails or a check does not hold.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: %d of %d checks failed" % (workload, seed, result["failed"], result["attempted"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def worse_by(first, later, better):
    """Share by which the later median is worse than the first."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = k * RUNS + i + 1
                runs.append(run_once(workload, seed, seconds))
                print("%s set %d seed %d done" % (workload, k + 1, seed), file=sys.stderr)
            sets.append(runs)
        print("\n%s: %d sets of %d runs, %d s each" % (workload, SETS, RUNS, seconds))
        print("%-14s %-6s %-5s %s" % ("metric", "unit", "bound", "per set: median [q1, q3] spread; worse-than-first"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, first = [], None
            for runs in sets:
                med, q1, q3, sp = spread([r[name] for r in runs])
                cell = "%.5g [%.5g, %.5g] %.3f" % (med, q1, q3, sp)
                if sp > bound:
                    cell += " SPREAD>BOUND"
                    ok = False
                elif sp > bound / 3:
                    cell += " unsteady"
                if first is None:
                    first = med
                else:
                    w = worse_by(first, med, m["better"])
                    cell += "; %+.3f" % w
                    if w > bound:
                        cell += " SHIFT>BOUND"
                        ok = False
                cells.append(cell)
            print("%-14s %-6s %-5.2f %s" % (name, m["unit"], bound, " | ".join(cells)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

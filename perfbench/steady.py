#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Run from the repository root.  For each workload it makes two sets of
`--runs` runs of BENCHMARK.json's run_seconds, seeds 1, 2, ..., interleaving
the sets (A B, B A, A B, ...) so drift on the machine hits both alike.  For
every end-to-end metric it prints each set's median and quartiles, the
spread (third minus first quartile, over the median) as a share of the
metric's bound in BENCHMARK.json, and how far set B's median is worse than
set A's, also as a share of the bound.  A spread under a third of the bound is "steady".
Raw results go to .bench_build/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError("run failed: " + " ".join(cmd))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    a = ap.parse_args()

    metrics = bench["end_to_end"]
    raw = {}
    ok = True
    for wl in a.workloads.split(","):
        sets = [[], []]
        for i in range(a.runs):
            seed = 1 + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                res = one_run(wl, seed, bench["run_seconds"])
                if not res["correct"]:
                    print("%s seed %d: run not correct" % (wl, seed))
                    ok = False
                sets[s].append(res)
                print("%s seed %d set %s: %s" % (
                    wl, seed, "AB"[s], " ".join(
                        "%s=%.6g" % (m["name"], res["metrics"][m["name"]]["value"])
                        for m in metrics)), flush=True)
        raw[wl] = sets

        print("\n%s: %d runs per set, %d s each" % (wl, a.runs,
                                                     bench["run_seconds"]))
        print("%-14s %3s %12s %12s %12s %8s %8s %9s" % (
            "metric", "set", "median", "q1", "q3", "spread", "/bound", "B worse"))
        for m in metrics:
            meds = []
            for s in (0, 1):
                vals = [r["metrics"][m["name"]]["value"] for r in sets[s]]
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                share = spread / m["bound"]
                shift = ""
                if s == 1:
                    w = worse_by(meds[0], med, m["better"])
                    shift = "%+.3f" % (w / m["bound"])
                    ok &= w <= m["bound"]
                ok &= spread <= m["bound"]
                verdict = "steady" if share <= 1 / 3 else (
                    "in bound" if share <= 1 else "NOISY")
                print("%-14s %3s %12.6g %12.6g %12.6g %8.4f %8.3f %9s %s" % (
                    m["name"], "AB"[s], med, q1, q3, spread, share, shift,
                    verdict))

    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("%Y%m%d-%H%M%S") + ".json")
    with open(path, "w") as f:
        json.dump(raw, f)
    print("\nraw results: %s\n%s" % (path, "ACCEPTED" if ok else "REJECTED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

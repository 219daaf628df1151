#!/usr/bin/env python3
"""Host-speed benchmark of the Open-MX simulator: build, run, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (and the simulator
sources in src/) into .bench_build/perfbench, runs one workload for about
`--seconds`, and prints the metric lines followed, as the last line, by
one JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones.  The full
result, with the CPU placement, goes to .bench_build/results/ and the
traced run's spans to .bench_build/traces/.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

# The end-to-end run is split into SEGMENTS processes of equal length, with
# a burst of SETUP_BURST set-up-only processes before, between and after
# them.  The machine's speed drifts over seconds, so set-up samples spread
# over the whole run; setup_s is the median of these bursts and the
# segments' own set-ups (15 samples).
SEGMENTS = 3
SETUP_BURST = 3
TAIL_PCT = 90
# Everything after the build must end within this many seconds.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(args, deadline):
    """Runs the benchmark binary; returns (metric lines, RESULT dict)."""
    try:
        r = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: timed out: " + " ".join(args))
        return None, None
    lines = r.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if r.returncode != 0 or result is None:
        log("perfbench: run failed (exit %d): %s" % (r.returncode, " ".join(args)))
        return None, None
    return [l for l in lines if not l.startswith("RESULT ")], result


def timed_run(a, common, deadline):
    """Runs the segments and set-up bursts; returns the pooled result."""
    setups, segs = [], []
    for k in range(SEGMENTS + 1):
        for _ in range(SETUP_BURST):
            _, r = run_binary(common + ["--setup-only"], deadline)
            if r is None:
                return None
            setups.append(r["metrics"]["setup_s"]["value"])
        if k == SEGMENTS:
            break
        args = common + ["--seconds", repr(a.seconds / SEGMENTS), "--trace", "0"]
        if a.inject and k == 0:
            args += ["--inject", a.inject]
        _, r = run_binary(args, deadline)
        if r is None:
            return None
        segs.append(r)
        setups.append(r["metrics"]["setup_s"]["value"])

    ms = [x for seg in segs for x in seg["info"]["job_ms"]]
    ranked = sorted(ms)
    n = len(ranked)
    rank = min(max(math.ceil(TAIL_PCT / 100 * n), 1), n)
    mib = segs[0]["info"]["payload_bytes"] * n / (1024 * 1024)
    attempted = sum(seg["attempted"] for seg in segs)
    failed = sum(seg["failed"] for seg in segs)
    # Every segment replays the same inputs, so it must reach the same
    # virtual-time digest.
    same_vt = len({seg["info"]["vt_digest"] for seg in segs}) == 1
    values = {
        "job_ms_p50": (statistics.median(ms) if ms else 0.0, "ms"),
        "job_ms_tail": (ranked[rank - 1] if ms else 0.0, "ms"),
        "sim_mib_per_s": (mib / (sum(ms) / 1e3) if ms else 0.0, "MiB/s"),
        "vt_job_us": (segs[0]["metrics"]["vt_job_us"]["value"], "vt_us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(
            seg["metrics"]["peak_rss_mib"]["value"] for seg in segs), "MiB"),
        "jobs_ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    return {
        "correct": all(seg["correct"] for seg in segs) and same_vt,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "info": {
            "tail_percentile": TAIL_PCT,
            "tail_samples_beyond": n - rank,
            "timed_jobs": n,
            "setup_s_samples": setups,
            "segments": [seg["info"] for seg in segs],
        },
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject", choices=("corrupt_rx", "perturb_digest"),
                    help="damage the first timed job (self-test of the check)")
    a = ap.parse_args()

    if not build():
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    if a.trace == 0:
        res = timed_run(a, common, deadline)
        if res is None:
            return 1
        lines = ["metric %-34s %.9g %s" % (k, m["value"], m["unit"])
                 for k, m in res["metrics"].items()]
        lines.append("info job_ms_tail is p%d of %d jobs, %d beyond it; setup_s "
                     "is the median of %d set-ups"
                     % (TAIL_PCT, res["info"]["timed_jobs"],
                        res["info"]["tail_samples_beyond"],
                        len(res["info"]["setup_s_samples"])))
    else:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        args = common + ["--seconds", repr(a.seconds), "--trace", "1",
                         "--spans-out", os.path.join(OUT, "traces", tag + ".json")]
        if a.inject:
            args += ["--inject", a.inject]
        lines, res = run_binary(args, deadline)
        if res is None:
            return 1

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as f:
        json.dump(res, f, indent=1)
        f.write("\n")

    for line in lines:
        print(line)
    out = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

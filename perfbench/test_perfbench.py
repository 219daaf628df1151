#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; takes about four minutes (it builds the
benchmark first if needed and makes short runs of every workload).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# The per-layer metrics the traced run must print, by layer.
LAYER_TABLE = {
    "sim": ["events_per_job", "host_ns_per_event", "engine_ns_per_event",
            "dispatch_excl_ns_per_event", "handoff_ns", "waits_per_job",
            "handoff_share", "unpinned_slowdown"],
    "core": ["isend_ns", "irecv_ns", "checksum_ns_per_kib", "checksum_share"],
    "driver": ["bh_ns_per_frame", "copy_ns_per_kib", "pull_reqs_per_job",
               "large_ioat_bytes_per_job", "large_memcpy_bytes_per_job",
               "retrans_frac"],
    "net": ["frames_per_job", "transmit_ns_per_frame",
            "rx_claim_ns_per_frame", "delivered_ratio"],
    "cpu": ["busy_vt_us_per_job", "runq_wait_vt_us_per_job"],
    "dma": ["descriptors_per_job", "submit_ns_per_desc",
            "complete_ns_per_desc", "queue_wait_vt_ns_p99"],
    "mem": ["regcache_hit_ratio"],
    "obs": ["profiler_overhead", "trace_overhead", "explained_share",
            "other_share"],
    "lp": ["windows_per_job", "events_per_window", "barrier_share",
           "w2_speedup"],
}


def bench(workload, seed=1, seconds=1, trace=0, *extra, cwd=ROOT):
    """Runs run.py; returns (exit code, parsed last line or None)."""
    r = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = r.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return r.returncode, last


def inputs_digest(workload, seed):
    r = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                        "--inputs-digest"], stdout=subprocess.PIPE, text=True,
                       check=True)
    return r.stdout.split()[-1]


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        code, _ = bench(WORKLOADS[0])  # builds the binary
        assert code == 0

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in WORKLOADS:
            a, b, c = (inputs_digest(w, 7), inputs_digest(w, 7),
                       inputs_digest(w, 8))
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)

    def test_corrupted_receive_buffer_fails_the_job(self):
        for w in WORKLOADS:
            code, res = bench(w, 1, 1, 0, "--inject", "corrupt_rx")
            self.assertEqual(code, 0)
            self.assertFalse(res["correct"], w)
            self.assertEqual(res["failed"], 1, w)
            self.assertLess(res["metrics"]["jobs_ok_frac"]["value"], 1.0)

    def test_perturbed_digest_fails_the_job(self):
        code, res = bench(WORKLOADS[0], 1, 1, 0, "--inject", "perturb_digest")
        self.assertEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_end_to_end_names_and_units_match_benchmark_json(self):
        want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for w in WORKLOADS:
            code, res = bench(w, 2)
            self.assertEqual(code, 0)
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(res["correct"], w)
            self.assertEqual(res["failed"], 0)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want, w)
            self.assertEqual(res["metrics"]["jobs_ok_frac"]["value"], 1.0)

    def test_virtual_time_repeats_for_a_seed(self):
        _, a = bench(WORKLOADS[1], 4)
        _, b = bench(WORKLOADS[1], 4)
        self.assertEqual(a["metrics"]["vt_job_us"], b["metrics"]["vt_job_us"])

    def test_traced_run_prints_every_per_layer_metric(self):
        want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        table = {"%s.%s" % (layer, m) for layer, ms in LAYER_TABLE.items()
                 for m in ms}
        self.assertLessEqual(table, set(want))
        for w in WORKLOADS:
            code, res = bench(w, 3, 2, 1)
            self.assertEqual(code, 0)
            self.assertTrue(res["correct"], w)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want, w)
            self.assertGreater(res["metrics"]["obs.trace_overhead"]["value"], 0)

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, res = bench(WORKLOADS[0], cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(res)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

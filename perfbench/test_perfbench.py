#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py (first run: about a minute), then checks
that BENCHMARK.json and the program agree on the metrics, that two runs with
one seed give identical virtual results and exact counts, that another seed
changes the generated inputs, and that the benchmark refuses to run without
the sources or for an unknown workload.
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics that are exact counts per sample, hence identical for
# identical inputs (frontend-fuzz's depend on how many programs a run
# reaches, so its deterministic count is the warm-up note instead).
EXACT = ("core.msgs_per_step", "core.bytes_per_step", "core.waitalls_per_step",
         "mpi.match.messages", "rt.deliver.messages", "shmem.put.messages",
         "shmem.put.bytes")


def run(workload, seed, trace, seconds=2, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-3000:])
    lines = proc.stdout.strip().split("\n")
    return lines[:-1], json.loads(lines[-1])


def deterministic_part(notes, result, workload):
    """The lines and counts two runs with one seed must share."""
    keep = [n for n in notes if n.startswith(
        ("# inputs", "# virtual", "# wl_energy", "# warmup_"))]
    counts = {}
    if workload != "frontend-fuzz":
        counts = {k: result["metrics"][k]["value"] for k in EXACT}
    return keep, counts


class Benchmark(unittest.TestCase):
    def test_metric_sets_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run("frontend-fuzz", 1, trace, seconds=1)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            self.assertTrue(result["correct"])

    def test_same_seed_same_virtual_results_and_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                notes_a, a = run(workload, 7, 1)
                notes_b, b = run(workload, 7, 1)
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(a["failed"], 0)
                keep_a, counts_a = deterministic_part(notes_a, a, workload)
                keep_b, counts_b = deterministic_part(notes_b, b, workload)
                self.assertTrue(any(n.startswith("# inputs") for n in keep_a))
                self.assertEqual(keep_a, keep_b)
                self.assertEqual(counts_a, counts_b)

    def test_other_seed_changes_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                inputs = []
                for seed in (7, 8):
                    notes, result = run(workload, seed, 0, seconds=1)
                    self.assertTrue(result["correct"])
                    inputs.append([n for n in notes
                                   if n.startswith("# inputs")])
                self.assertNotEqual(inputs[0], inputs[1])

    def test_rejects_unknown_workload(self):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "no-such-workload", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "halo3d-dir", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

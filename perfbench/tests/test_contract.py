#!/usr/bin/env python3
"""Tests of the benchmark's contract.  Run from the repository root:

    python3 perfbench/tests/test_contract.py

They build the package into .bench_build/, run the C++ unit tests
(perfbench_selftest), check that every metric BENCHMARK.json names is printed
with its unit in both modes, and check that run.py fails without printing a
result when the program's sources are absent.  The metric checks run every
workload as the benchmark command does, at the default seed (whose reference
digests are committed) and --seconds 1; the whole file takes about two
minutes once built.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


DEFAULT_SEED = "2320569722"


def run_bench(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", DEFAULT_SEED, "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        r = subprocess.run(["cmake", "--build", BUILD, "--target",
                            "perfbench_selftest"], stdout=sys.stderr)
        if r.returncode != 0:
            raise RuntimeError("perfbench_selftest build failed")

    def test_selftest(self):
        r = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def check_metrics(self, trace, declared):
        for w in bench_json()["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                r = run_bench(w["name"], trace)
                self.assertEqual(r.returncode, 0, r.stderr[-2000:])
                result = json.loads(r.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), {m["name"] for m in declared})
                for m in declared:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"],
                                     m["name"])
                    self.assertIsInstance(metrics[m["name"]]["value"],
                                          (int, float))

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics(0, bench_json()["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        self.check_metrics(1, bench_json()["per_layer"])

    def test_fails_without_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "clib7_j1",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

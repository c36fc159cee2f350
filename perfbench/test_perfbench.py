#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- builds and runs perfbench_selftest: each generator is a pure function of
  its seed, the outcome digest repeats across repetitions, traced runs and
  psim thread counts and changes with the seed, a traced run records
  nothing from set-up, and a callback delivered twice fails the
  exactly-once check;
- runs every workload briefly, untraced and traced, and checks that the
  last line is the result object, that the run passes its checks, that
  every metric BENCHMARK.json names is printed with its unit, and that an
  untraced run reports its host rate and reference pass;
- checks that a directory holding only BENCHMARK.json and perfbench/ makes
  the benchmark fail without printing a result.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class SelfTest(unittest.TestCase):
    def test_selftest_binary(self):
        binary = run.build("perfbench_selftest")
        proc = subprocess.run([str(binary)], capture_output=True, text=True,
                              timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, metrics):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc = bench(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True, proc.stderr[-3000:])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                provenance = json.loads(lines[0])["provenance"]
                self.assertEqual(provenance["workload"], w["name"])
                for m in metrics:
                    self.assertIn(m["name"], result["metrics"])
                    self.assertEqual(result["metrics"][m["name"]]["unit"],
                                     m["unit"], m["name"])
                    self.assertIsInstance(
                        result["metrics"][m["name"]]["value"], (int, float))
                self.assertEqual(len(result["metrics"]), len(metrics))
                if trace == 0:
                    detail = json.loads(lines[-2])["detail"]
                    self.assertGreater(detail["requests_per_host_s"], 0)
                    self.assertGreater(detail["reference_pass_s"], 0)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class Isolated(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        scratch = run.BUILD_DIR.parent / "perfbench-isolated"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(BENCH_DIR, scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        try:
            proc = bench("overload", 0, cwd=scratch)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()

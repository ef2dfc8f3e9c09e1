"""Tests of the job-level benchmark itself.

Run from the repository root (builds the jobbench binary on first use):

    python3 -m unittest discover -s jobbench -p "test_*.py"

Smoke runs use tiny iteration counts; they check the result line's
shape, not the measurements. The negative tests inject a fault and
check that the benchmark's output checks catch it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run(workload, trace=0, inject=None, seconds=0.3):
    """One tiny run; returns (stdout lines, parsed result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s failed:\n%s" % (cmd, done.stderr[-4000:]))
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        # native-suite is not in BENCHMARK.json (see NOTES.md) but
        # stays runnable for the runtime layer's ledger.
        workloads = [w["name"] for w in SPEC["workloads"]]
        for workload in workloads + ["native-suite"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run(workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: metric["unit"]
                           for name, metric in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    preamble = "\n".join(lines[:-1])
                    for field in ("seed=7", "workloads=", "nproc=",
                                  "cpu=", "build=Release"):
                        self.assertIn(field, preamble)

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in ("exact-suite", "corpus-replay"):
            with self.subTest(workload=workload):
                _, result = run(workload)
                self.assertTrue(result["correct"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)


class NegativeTest(unittest.TestCase):
    def assert_caught(self, workload, inject):
        _, result = run(workload, inject=inject)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_flipped_capture_byte_is_caught(self):
        self.assert_caught("corpus-replay", "flip-capture-byte")

    def test_perturbed_count_is_caught(self):
        for workload in ("sim-suite", "exact-suite", "corpus-replay",
                         "serve-mixed"):
            with self.subTest(workload=workload):
                self.assert_caught(workload, "perturb-count")

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "jobbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "jobbench/run.py", "--workload",
                 "sim-suite", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

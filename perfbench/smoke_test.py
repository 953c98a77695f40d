"""Smoke test of the benchmark itself.

Run from anywhere:  python3 perfbench/smoke_test.py

Runs every workload briefly, untraced and traced, and checks that the
last stdout line is a correct result naming every metric of
BENCHMARK.json with its unit. Also checks that the benchmark exits
non-zero without a result when the ggt sources are absent. Takes about
three minutes: an untraced run always times at least 100 ops three times.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd, workload, trace, seconds=1):
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "1", "--seconds", str(seconds),
        "--trace", str(trace)]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True,
                          timeout=300)


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, expected):
        proc = bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(record["repeat_outputs_match"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return result

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                result = self.check_result(w["name"], 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
            with self.subTest(workload=w["name"], trace=1):
                self.check_result(w["name"], 1, SPEC["per_layer"])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for rel in SPEC["paths"]:
                shutil.copytree(ROOT / rel, Path(tmp) / rel,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench(tmp, SPEC["workloads"][0]["name"], 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

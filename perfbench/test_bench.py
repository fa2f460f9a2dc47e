#!/usr/bin/env python3
"""Self-tests of the benchmark: its checks are not vacuous, and it prints
exactly the metrics BENCHMARK.json declares.

    python3 perfbench/test_bench.py

Builds the benchmark like run.py does. Takes about two minutes.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace=0, seconds=1, inject=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def error_rate(stdout):
    for line in stdout.splitlines():
        if line.startswith("error_rate "):
            return float(line.split()[1])
    raise AssertionError("no error_rate line")


class BenchmarkTest(unittest.TestCase):
    def assert_metrics(self, result, stdout, declared):
        self.assertEqual(set(result), {m["name"] for m in declared})
        for metric in declared:
            got = result[metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            # The human-readable listing names every metric with its unit.
            self.assertRegex(stdout, rf"(?m)^{re.escape(metric['name'])}\s+"
                                     rf"\S+ {re.escape(metric['unit'])}$")

    def test_workload_names_match_spec(self):
        names = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(names,
                         {"paper_programs", "mdg_stream", "service_replay"})

    def test_end_to_end_metrics_match_spec(self):
        code, out, stdout = run("paper_programs")
        self.assertEqual(code, 0, stdout)
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assert_metrics(out["metrics"], stdout, SPEC["end_to_end"])
        for name, metric in out["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics_match_spec(self):
        for workload in ("paper_programs", "mdg_stream", "service_replay"):
            code, out, stdout = run(workload, trace=1)
            self.assertEqual(code, 0, stdout)
            self.assertTrue(out["correct"])
            self.assert_metrics(out["metrics"], stdout, SPEC["per_layer"])

    def test_perturbed_reference_fails_the_run(self):
        code, out, stdout = run("paper_programs", inject="perturb-reference")
        self.assertNotEqual(code, 0)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertGreater(error_rate(stdout), 0)

    def test_truncated_journal_fails_the_run(self):
        code, out, stdout = run("service_replay", inject="truncate-journal")
        self.assertNotEqual(code, 0)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertGreater(error_rate(stdout), 0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own test: smoke runs of every workload in both modes.

    python3 perfbench/test_perfbench.py

Run from the repository root. Each workload runs once with --trace 0 and
once with --trace 1 in smoke mode (small working sets, one second). The
test checks that the result line carries exactly the metrics
BENCHMARK.json names, each with its unit; that the correctness checks
ran and passed; that every output records the build facts; that a
traced run writes its spans; that stack-solo's solo access count is at
most 6 and repeats exactly for a seed; and that the benchmark fails
without a result when the library sources are missing.
"""

import json
import math
import shutil
import subprocess
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_FACTS = ("build_flags", "register_policy", "metrics", "seed", "nproc")
# Checks each workload must report; every run adds its own prefix.
WORKLOAD_CHECKS = {
    "stack-solo": ("value_sum_conserved", "paths_conserve",
                   "no_full_or_empty_answers"),
    "bag-contended": ("value_sum_conserved", "paths_conserve",
                      "no_full_or_empty_answers"),
    "map-mixed": ("answers_match_value_of_key", "live_count_matches_counter",
                  "paths_conserve"),
    "service": ("final_conserves", "windows_conserve", "zero_shed",
                "zero_stuck_ops", "all_arrivals_completed"),
}


def run(workload, trace, seed=7, root=ROOT):
    """Runs one smoke run; returns (exit code, stdout lines, result)."""
    proc = subprocess.run(
        ["python3", str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        code, lines, result = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        self.assertIsInstance(result, dict)
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        wanted = BENCH["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in wanted})
        for m in wanted:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

        facts = {line[2:].split(":", 1)[0] for line in lines
                 if line.startswith("# ")}
        for fact in BUILD_FACTS:
            self.assertIn(fact, facts)
        self.assertIn("# register_policy: fast", lines)
        checks = {line for line in lines if line.startswith("check ")}
        self.assertTrue(checks)
        self.assertFalse([c for c in checks if not c.endswith(": pass")])
        for name in WORKLOAD_CHECKS[workload]:
            self.assertIn(f"check run.{name}: pass", checks)
        if trace:
            self.assertIn("check trace.spans_written: pass", checks)
            spans = ROOT / ".bench_build" / "traces" / f"{workload}-seed7.jsonl"
            records = spans.read_text().splitlines()
            self.assertGreater(len(records), 1)
            json.loads(records[-1])
        return metrics

    def test_workloads_untraced(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)

    def test_workloads_traced(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1)

    def test_solo_access_count_is_exact(self):
        first = self.check_run("stack-solo", 1)["memory.accesses_per_op"]
        second = self.check_run("stack-solo", 1)["memory.accesses_per_op"]
        self.assertLessEqual(first["value"], 6)
        self.assertEqual(first["value"], second["value"])


class MissingSources(unittest.TestCase):
    def test_fails_without_result(self):
        scratch = ROOT / ".bench_build" / "test-missing-sources"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(HERE, scratch / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, result = run("stack-solo", 0, root=scratch)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

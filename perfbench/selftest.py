"""Checks of the benchmark itself (not part of the program's test suite).

    python3 perfbench/selftest.py            # every check, about five minutes
    python3 perfbench/selftest.py -k quick   # the checks that send no traced run

Run from the root of a checkout.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=200)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class QuickChecks(unittest.TestCase):
    def test_quick_seed_fixes_the_requests(self):
        for make in workloads.PASSES.values():
            self.assertEqual(make(3, 0), make(3, 0))
        self.assertNotEqual(workloads.cli_session_pass(3, 0), workloads.cli_session_pass(4, 0))
        self.assertNotEqual(workloads.cli_session_pass(3, 0), workloads.cli_session_pass(3, 1))

    def test_quick_every_drawable_request_has_a_recorded_output(self):
        golden = workloads.load_golden()
        universe = {workloads.key_of(r) for r in workloads.golden_universe()}
        self.assertEqual(set(golden), universe)
        for make in (workloads.high_genus_pass, workloads.cli_session_pass):
            for seed in range(20):
                for argv in make(seed, seed % 3):
                    self.assertIn(workloads.key_of(argv), golden)

    def test_quick_closed_forms_agree_with_the_recorded_outputs(self):
        golden = workloads.load_golden()
        checked = 0
        for argv in workloads.golden_universe():
            expected = workloads.closed_form(argv)
            if expected is not None:
                digest = hashlib.sha256(expected.encode()).hexdigest()
                self.assertEqual(golden[workloads.key_of(argv)], digest, argv)
                checked += 1
        self.assertGreaterEqual(checked, 10)

    def test_quick_fails_without_the_program(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        try:
            t0 = time.monotonic()
            proc = run_bench("--workload", "cli_session", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertLess(time.monotonic() - t0, 180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class TracedChecks(unittest.TestCase):
    def test_exact_counts_repeat(self):
        """Two traced runs on one seed give identical counts, ratios and sizes."""
        for workload in workloads.PASSES:
            with self.subTest(workload=workload):
                first, second = (
                    result_of(run_bench("--workload", workload, "--seed", "5", "--trace", "1"))
                    for _ in range(2)
                )
                self.assertTrue(first["correct"] and second["correct"])
                exact = {k for k, m in first["metrics"].items() if m["unit"] != "s"}
                self.assertIn("exactring.fraction_ops", exact)
                for name in sorted(exact):
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py's exit-code contract.

Exercised through the CLI (subprocess) because the exit codes ARE the
interface CI scripts depend on: 0 clean, 1 regression, 2 usage/IO
error, 3 missing baseline.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "bench_compare.py"


def sidecar(throughput, identical=True):
    return {
        "schema": "pdd.telemetry.v1",
        "counters": {},
        "gauges": {"pairs_per_sec": throughput},
        "info": {"report_identical": "true" if identical else "false"},
        "histograms": {},
    }


def run(run_dir, baselines, *extra):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--run-dir", str(run_dir),
         "--baselines", str(baselines), *extra],
        capture_output=True, text=True)


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = pathlib.Path(self._tmp.name)
        self.run_dir = root / "run"
        self.baselines = root / "baselines"
        self.run_dir.mkdir()
        self.baselines.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, directory, name, doc):
        (directory / name).write_text(json.dumps(doc))

    def test_clean_compare_exits_zero(self):
        self.write(self.run_dir, "BENCH_x.json", sidecar(1000.0))
        self.write(self.baselines, "BENCH_x.json", sidecar(1000.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("clean", result.stdout)

    def test_regression_exits_one(self):
        self.write(self.run_dir, "BENCH_x.json", sidecar(100.0))
        self.write(self.baselines, "BENCH_x.json", sidecar(1000.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("REGRESSION", result.stderr)

    def test_broken_invariant_exits_one(self):
        self.write(self.run_dir, "BENCH_x.json",
                   sidecar(1000.0, identical=False))
        self.write(self.baselines, "BENCH_x.json", sidecar(1000.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("expected true", result.stderr)

    def test_gated_key_missing_from_the_run_is_a_regression(self):
        # Dropping or renaming a gated key must fail, not lose its gate.
        renamed = sidecar(1000.0)
        renamed["gauges"] = {"pairs_per_second": 1000.0}
        self.write(self.run_dir, "BENCH_x.json", renamed)
        self.write(self.baselines, "BENCH_x.json", sidecar(1000.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("BENCH_x.json:pairs_per_sec", result.stderr)
        self.assertIn("missing", result.stderr)

    def test_missing_invariant_key_is_a_regression(self):
        dropped = sidecar(1000.0)
        dropped["info"] = {}
        self.write(self.run_dir, "BENCH_x.json", dropped)
        self.write(self.baselines, "BENCH_x.json", sidecar(1000.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("BENCH_x.json:report_identical", result.stderr)

    def test_missing_baseline_is_a_hard_failure(self):
        # An unbaselined sidecar must fail with the distinct exit code
        # (3) and point at --update — never silently skip.
        self.write(self.run_dir, "BENCH_new.json", sidecar(1000.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 3, result.stdout)
        self.assertIn("missing baseline for BENCH_new.json", result.stderr)
        self.assertIn("--update", result.stderr)

    def test_missing_baseline_fails_even_when_others_compare(self):
        self.write(self.run_dir, "BENCH_old.json", sidecar(1000.0))
        self.write(self.baselines, "BENCH_old.json", sidecar(1000.0))
        self.write(self.run_dir, "BENCH_new.json", sidecar(1000.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 3, result.stdout)
        self.assertIn("missing baseline for BENCH_new.json", result.stderr)

    def test_regression_takes_priority_over_missing(self):
        self.write(self.run_dir, "BENCH_old.json", sidecar(100.0))
        self.write(self.baselines, "BENCH_old.json", sidecar(1000.0))
        self.write(self.run_dir, "BENCH_new.json", sidecar(1000.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("missing baseline for BENCH_new.json", result.stderr)

    def test_update_creates_the_baseline_and_then_compares_clean(self):
        self.write(self.run_dir, "BENCH_new.json", sidecar(1000.0))
        update = run(self.run_dir, self.baselines, "--update")
        self.assertEqual(update.returncode, 0, update.stderr)
        self.assertTrue((self.baselines / "BENCH_new.json").exists())
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_columnar_speedup_alone_is_gated_as_a_ratio(self):
        # columnar_speedup gets the 25% ratio tolerance (floor 3.6375 of
        # 4.85); every other speedup keeps the throughput class's 60%.
        def speedups(columnar, serving):
            doc = sidecar(1000.0)
            doc["gauges"].update({"columnar_speedup": columnar,
                                  "serving_speedup": serving})
            return doc
        self.write(self.baselines, "BENCH_x.json", speedups(4.85, 224.0))
        self.write(self.run_dir, "BENCH_x.json", speedups(3.5, 164.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("BENCH_x.json:columnar_speedup", result.stderr)
        self.assertIn("tolerance 25%", result.stderr)
        self.assertNotIn("serving_speedup", result.stderr)
        self.write(self.run_dir, "BENCH_x.json", speedups(3.7, 164.0))
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_empty_run_dir_is_a_usage_error(self):
        result = run(self.run_dir, self.baselines)
        self.assertEqual(result.returncode, 2, result.stdout)


if __name__ == "__main__":
    unittest.main()

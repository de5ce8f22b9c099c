#!/usr/bin/env python3
"""Regression tests for tools/bench_trend.py, run on fixture JSONs.

Each case materializes a current/previous pair of BENCH_*.json files in a
temp directory and invokes the real script as a subprocess, asserting on
the exit code and log lines. Covers:

  * provenance fields (git_sha, hostname, timestamp, ...) must not enter a
    configuration's identity — a run-unique value there would mark every
    config [new]/[gone] and silently disable the steps/op gate;
  * the E14 resilience gauges (retire_backlog / quarantine_depth), emitted
    as JSON integers, are likewise reported-not-gated — and must not be
    swallowed into the identity, which would mark every run [new].
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_trend.py")


def write_bench(directory, configs, name="BENCH_fixture.json"):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w") as f:
        json.dump({"experiment": "fixture", "configs": configs}, f)


def config(steps, provenance=None, workload="zipf"):
    entry = {
        "layout": "flat",
        "workload": workload,
        "threads": 8,
        "essential_steps_per_op": steps,
    }
    if provenance:
        entry.update(provenance)
    return entry


def run_trend(current, previous, tolerance=0.10):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--current", current, "--previous",
         previous, "--tolerance", str(tolerance)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.current = os.path.join(self.tmp.name, "current")
        self.previous = os.path.join(self.tmp.name, "previous")

    def tearDown(self):
        self.tmp.cleanup()

    def test_within_tolerance_passes(self):
        write_bench(self.previous, [config(10.0)])
        write_bench(self.current, [config(10.5)])
        code, out = run_trend(self.current, self.previous)
        self.assertEqual(code, 0, out)
        self.assertIn("within", out)

    def test_regression_fails(self):
        write_bench(self.previous, [config(10.0)])
        write_bench(self.current, [config(12.0)])
        code, out = run_trend(self.current, self.previous)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_provenance_fields_do_not_change_identity(self):
        # Same configuration, run-unique provenance scalars on both sides.
        # Without the ignore-list the identities would never match: the
        # config would print as [new], the regression would be skipped, and
        # the gate would pass a 2x steps/op blowup.
        write_bench(self.previous, [config(10.0, provenance={
            "git_sha": "aaaa111", "hostname": "runner-1",
            "timestamp": "2026-08-01T00:00:00Z"})])
        write_bench(self.current, [config(20.0, provenance={
            "git_sha": "bbbb222", "hostname": "runner-7",
            "timestamp": "2026-08-06T00:00:00Z"})])
        code, out = run_trend(self.current, self.previous)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)
        self.assertNotIn("[new]", out)
        self.assertNotIn("[gone]", out)

    def test_resilience_gauges_reported_not_gated(self):
        # retire_backlog / quarantine_depth are integers: a naive identity
        # builder would fold them in (every run [new], gate disabled), and
        # a naive gate would fail on their growth. They must do neither —
        # big swings surface as [info] lines, the exit code stays 0.
        write_bench(self.previous, [config(
            10.0, provenance={"retire_backlog": 120, "quarantine_depth": 3})])
        write_bench(self.current, [config(
            10.0, provenance={"retire_backlog": 9000,
                              "quarantine_depth": 700})])
        code, out = run_trend(self.current, self.previous)
        self.assertEqual(code, 0, out)
        self.assertNotIn("[new]", out)
        self.assertNotIn("[gone]", out)
        self.assertIn("retire_backlog", out)
        self.assertIn("quarantine_depth", out)
        self.assertIn("not gated", out)

    def test_unchanged_gauge_not_reported(self):
        write_bench(self.previous, [config(
            10.0, provenance={"retire_backlog": 120})])
        write_bench(self.current, [config(
            10.0, provenance={"retire_backlog": 120})])
        code, out = run_trend(self.current, self.previous)
        self.assertEqual(code, 0, out)
        self.assertNotIn("[info]", out)

    def test_new_and_gone_configs_skipped(self):
        write_bench(self.previous, [config(10.0, workload="uniform")])
        write_bench(self.current, [config(10.0, workload="zipf")])
        code, out = run_trend(self.current, self.previous)
        self.assertEqual(code, 0, out)
        self.assertIn("[new]", out)
        self.assertIn("[gone]", out)

    def test_missing_baseline_is_not_an_error(self):
        write_bench(self.current, [config(10.0)])
        code, out = run_trend(self.current,
                              os.path.join(self.tmp.name, "absent"))
        self.assertEqual(code, 0, out)
        self.assertIn("nothing to compare", out)

    def test_missing_current_is_an_error(self):
        write_bench(self.previous, [config(10.0)])
        code, _ = run_trend(os.path.join(self.tmp.name, "absent"),
                            self.previous)
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

The span and correctness-gate tests are pure Python.  The scenario and
injected-failure tests build and run perfbench_driver (first run: about
a minute of compilation).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(sid, name, parent, start, end):
    return {"id": sid, "name": name, "sim": 1, "parent": parent,
            "start": start, "end": end}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span(0, "pass", -1, 0.0, 10.0),
            span(1, "sim", 0, 1.0, 9.0),
            span(2, "construct", 1, 1.0, 3.0),
            span(3, "run", 1, 4.0, 8.0),
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0], 2.0)  # 10 - 8 covered by sim
        self.assertAlmostEqual(selfs[1], 2.0)  # 8 - (2 + 4)
        self.assertAlmostEqual(selfs[2], 2.0)  # leaves keep their length
        self.assertAlmostEqual(selfs[3], 4.0)

    def test_overlapping_and_clipped_children(self):
        spans = [
            span(0, "sim", -1, 0.0, 10.0),
            span(1, "a", 0, 1.0, 4.0),
            span(2, "b", 0, 3.0, 6.0),    # overlaps a: union is [1, 6)
            span(3, "c", 0, 9.0, 12.0),   # only [9, 10) lies inside
        ]
        self.assertAlmostEqual(run.self_times(spans)[0], 10.0 - 5.0 - 1.0)

    def test_totals_by_name(self):
        spans = [
            span(0, "pass", -1, 0.0, 5.0),
            span(1, "construct", 0, 0.0, 1.0),
            span(2, "construct", 0, 2.0, 3.5),
        ]
        totals = run.self_time_by_name(spans)
        self.assertAlmostEqual(totals["construct"], 2.5)
        self.assertAlmostEqual(totals["pass"], 2.5)


def sim(label, cycles=100, events=50, hash_="ab", ok=True, error=""):
    return {"label": label, "ok": ok, "cycles": cycles, "events": events,
            "hash": hash_, "error": error}


class CorrectnessGateTest(unittest.TestCase):
    def test_identical_passes_pass(self):
        passes = [{"sims": [sim("x"), sim("y")]} for _ in range(3)]
        self.assertEqual(run.count_failures(passes, None), [])

    def test_every_kind_of_failure_counts(self):
        passes = [
            {"sims": [sim("x"), sim("y")]},
            {"sims": [sim("x", cycles=101), sim("y")]},      # drifted
            {"sims": [sim("x", ok=False, error="hang"), sim("y")]},
            {"sims": [sim("x"), sim("y")], "write_share": 0.4},
        ]
        reasons = run.count_failures(passes, None)
        self.assertEqual(len(reasons), 4)
        self.assertIn("differs from the first", reasons[0])
        self.assertIn("hang", reasons[1])

    def test_reference_mismatch_fails_every_pass(self):
        passes = [{"sims": [sim("x")]} for _ in range(2)]
        good = {"x": [100, 50, "ab"]}
        bad = {"x": [100, 50, "cd"]}
        self.assertEqual(run.count_failures(passes, good), [])
        self.assertEqual(len(run.count_failures(passes, bad)), 2)

    def test_checker_on_replay_must_match(self):
        passes = [{"sims": [sim("s")]}]
        same = [sim("s", hash_="other")]  # stats differ, timing must not
        moved = [sim("s", cycles=99)]
        caught = [sim("s", ok=False, error="coherence violation")]
        self.assertEqual(run.count_failures(passes, None, same), [])
        self.assertEqual(len(run.count_failures(passes, None, moved)), 1)
        self.assertEqual(len(run.count_failures(passes, None, caught)), 1)


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()

    def digest(self, seed):
        out = subprocess.run([self.driver, "--scenario-digest", "--seed",
                              str(seed)], capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.splitlines()[-1])

    def test_scenario_bytes_follow_the_seed(self):
        a, b, c = self.digest(7), self.digest(7), self.digest(8)
        self.assertEqual((a["bytes"], a["fnv"]), (b["bytes"], b["fnv"]))
        self.assertNotEqual(a["fnv"], c["fnv"])
        for d in (a, c):
            self.assertGreaterEqual(d["write_share"], run.MIN_WRITE_SHARE)

    def test_injected_verify_failure_fails_the_command(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "scenario_write", "--seed", "3",
                             "--seconds", "0.1", "--fail-verify"])
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])
        frac = [l for l in lines if l.split()[:1] == ["fail_frac"]]
        self.assertGreater(float(frac[0].split()[1]), 0)


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that a perturbed op output counts as a failed op, that self time is
computed correctly on a synthetic span tree, and that the traced run can
report every per-layer metric BENCHMARK.json lists.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, span_stats  # noqa: E402
from worker import run_pass, tail  # noqa: E402


class Perturbed:
    """A workload whose op `bad` returns perturb(real output)."""

    def __init__(self, inner, bad: int, perturb):
        self.inner, self.bad, self.perturb = inner, bad, perturb
        self.calls = 0

    def run(self, op):
        raw = self.inner.run(op)
        self.calls += 1
        return self.perturb(raw) if self.calls - 1 == self.bad else raw

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _bump_errors(report):
    st = report.per_authorized[0]
    bad = dataclasses.replace(st, secret_errors=st.trials + 1)
    return dataclasses.replace(report, per_authorized=(bad,) + report.per_authorized[1:])


def _nudge_bound(report):
    bound = dataclasses.replace(report.rate_bound, rp_upper=report.rate_bound.rp_upper * (1 + 1e-6))
    return dataclasses.replace(report, rate_bound=bound)


def _swap_region_rows(raw):
    code, text = raw[1]
    lines = text.splitlines()
    lines[1], lines[-2] = lines[-2], lines[1]  # last grid row first: cs decreases
    return [raw[0], (code, "\n".join(lines) + "\n")] + raw[2:]


class PerturbedOutputFails(unittest.TestCase):
    def _failures(self, name, perturb, reference=None):
        wl = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
            ops = wl.generate(workloads.REFERENCE_SEED, 3, workdir)[1:]
            result = run_pass(Perturbed(wl, 1, perturb), ops, reference, time.monotonic() + 120)
        return result

    def test_unperturbed_ops_pass(self):
        result = self._failures("exact-leakage", lambda raw: raw)
        self.assertEqual(result["failed"], 0, result["errors"])

    def test_error_count_above_trials_fails(self):
        result = self._failures("mc-reconcile", _bump_errors)
        self.assertEqual(result["failed"], 1)
        self.assertIn("op 1:", result["errors"][0])
        self.assertIn("secret_errors", result["errors"][0])

    def test_float_off_reference_fails(self):
        reference = workloads.load_reference("mc-reconcile", workloads.REFERENCE_SEED)
        self.assertTrue(reference, "perfbench/reference.json holds no mc-reconcile entries")
        result = self._failures("mc-reconcile", _nudge_bound, reference)
        self.assertEqual(result["failed"], 1)
        self.assertIn("rp_upper", result["errors"][0])

    def test_decreasing_region_fails(self):
        result = self._failures("capacity-cli", _swap_region_rows)
        self.assertEqual(result["failed"], 1)
        self.assertIn("region", result["errors"][0])

    def test_nonzero_exit_fails(self):
        result = self._failures("capacity-cli", lambda raw: [(2, "")] + raw[1:])
        self.assertEqual(result["failed"], 1)
        self.assertIn("exit codes", result["errors"][0])

    def test_raising_op_fails(self):
        def boom(raw):
            raise RuntimeError("boom")

        result = self._failures("exact-leakage", boom)
        self.assertEqual(result["failed"], 1)
        self.assertIn("RuntimeError: boom", result["errors"][0])

    def test_time_limit_ends_without_result(self):
        wl = workloads.WORKLOADS["exact-leakage"]
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
            ops = wl.generate(workloads.REFERENCE_SEED, 2, workdir)
            with self.assertRaises(SystemExit):
                run_pass(wl, ops, None, time.monotonic() - 1.0)

    def test_compare_tolerances(self):
        self.assertEqual(workloads.compare({"a": 1.0, "n": 3}, {"a": 1.0 + 1e-12, "n": 3}), [])
        self.assertTrue(workloads.compare({"a": 1.0}, {"a": 1.0 + 1e-8}))
        self.assertTrue(workloads.compare({"n": 3}, {"n": 4}))
        self.assertTrue(workloads.compare({"s": "{1,2}"}, {"s": "{2,3}"}))


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        root = ["root", 0.0, 10.0, None]
        a = ["a", 1.0, 4.0, root]
        b = ["b", 5.0, 8.0, root]
        a1 = ["a1", 2.0, 3.0, a]
        stats = span_stats([root, a, b, a1])
        self.assertAlmostEqual(stats["root"]["self_s"], 10.0 - 3.0 - 3.0)
        self.assertAlmostEqual(stats["a"]["self_s"], 3.0 - 1.0)
        self.assertAlmostEqual(stats["b"]["self_s"], 3.0)
        self.assertAlmostEqual(stats["a1"]["self_s"], 1.0)
        self.assertAlmostEqual(stats["root"]["busy_s"], 10.0)

    def test_tracer_nesting_with_a_step_clock(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))

        def leaf():
            return 1

        leaf_w = tracer.spanned("leaf", leaf)
        outer_w = tracer.spanned("outer", lambda: leaf_w() + leaf_w())
        self.assertEqual(outer_w(), 2)
        # clock reads: outer start 0, leaf 1-2, leaf 3-4, outer end 5
        stats = span_stats(tracer.spans)
        self.assertEqual(stats["outer"], {"calls": 1, "busy_s": 5.0, "self_s": 3.0})
        self.assertEqual(stats["leaf"], {"calls": 2, "busy_s": 2.0, "self_s": 2.0})

    def test_tail_has_ten_beyond(self):
        value, pct = tail([float(i) for i in range(40)], 10)
        self.assertEqual(value, 29.0)
        self.assertEqual(pct, 75.0)


class Manifest(unittest.TestCase):
    def test_traced_run_reports_every_listed_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        metrics = layers.LayerProbe().metrics(0.0)
        self.assertEqual(list(metrics), [m["name"] for m in manifest["per_layer"]])
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

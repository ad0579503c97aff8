#!/usr/bin/env python3
"""Tests for the verdict logic of scripts/perf_gate.py.

Run: python3 scripts/test_perf_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

METRICS = {
    "instr_per_s": {"name": "instr_per_s", "better": "higher", "bound": 0.25},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
}


def run(metrics, correct=True, attempted=10, failed=0, rc=0):
    """One run.py result line holding {"workload.metric": value}."""
    return {"rc": rc, "result": {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    }}


def runs(key, values, **kw):
    return [run({key: v}, **kw) for v in values]


def verdicts(rows):
    return {(wl, name): verdict for wl, name, *_, verdict in rows}


class MetricVerdict(unittest.TestCase):
    def test_higher_metric_within_bound_passes(self):
        v, pm, cm, ratio, _ = perf_gate.metric_verdict(
            [100, 100, 100, 100, 100], [90, 90, 90, 90, 90], "higher", 0.25)
        self.assertEqual(v, "ok")
        self.assertEqual((pm, cm), (100, 90))
        self.assertAlmostEqual(ratio, 0.9)

    def test_lower_metric_worse_beyond_bound_fails(self):
        v, *_ = perf_gate.metric_verdict([10.0] * 5, [11.5] * 5, "lower", 0.1)
        self.assertEqual(v, "FAIL")

    def test_lower_metric_better_passes(self):
        v, *_ = perf_gate.metric_verdict([10.0] * 5, [5.0] * 5, "lower", 0.1)
        self.assertEqual(v, "ok")

    def test_value_exactly_at_the_bound_passes(self):
        v, *_ = perf_gate.metric_verdict([4e6] * 5, [3e6] * 5, "higher", 0.25)
        self.assertEqual(v, "ok")
        v, *_ = perf_gate.metric_verdict([2.0] * 5, [2.5] * 5, "lower", 0.25)
        self.assertEqual(v, "ok")

    def test_thirty_percent_instr_per_s_drop_fails(self):
        parent = [2.0e6, 2.02e6, 1.98e6, 2.01e6, 1.99e6]
        change = [x * 0.7 for x in parent]
        v, *_ = perf_gate.metric_verdict(parent, change, "higher", 0.25)
        self.assertEqual(v, "FAIL")

    def test_noisy_parent_is_unresolved_and_passes(self):
        # IQR/median = (1.3 - 0.7) / 1.0 = 0.6 > 0.25; the change overlaps.
        parent = [0.5, 0.7, 1.0, 1.3, 1.5]
        change = [0.6, 0.6, 0.6, 0.6, 1.4]
        v, _, _, _, sp = perf_gate.metric_verdict(parent, change, "higher", 0.25)
        self.assertEqual(v, "unresolved")
        self.assertGreater(sp, 0.25)

    def test_noisy_parent_fails_when_every_change_run_is_worse(self):
        parent = [0.5, 0.7, 1.0, 1.3, 1.5]
        change = [0.2, 0.3, 0.3, 0.4, 0.45]
        v, *_ = perf_gate.metric_verdict(parent, change, "higher", 0.25)
        self.assertEqual(v, "UNRESOLVED-FAIL")
        self.assertTrue(perf_gate.failing(v))
        v, *_ = perf_gate.metric_verdict(parent, [1.6] * 5, "lower", 0.25)
        self.assertEqual(v, "UNRESOLVED-FAIL")

    def test_noisy_parent_reads_ok_when_every_change_run_is_better(self):
        parent = [0.5, 0.7, 1.0, 1.3, 1.5]
        v, *_ = perf_gate.metric_verdict(parent, [1.6] * 5, "higher", 0.25)
        self.assertEqual(v, "ok")


class Gate(unittest.TestCase):
    def test_clean_pair_passes(self):
        rows, problems = perf_gate.gate(
            METRICS, runs("w.instr_per_s", [100] * 5),
            runs("w.instr_per_s", [101] * 5))
        self.assertEqual(problems, [])
        self.assertEqual(verdicts(rows), {("w", "instr_per_s"): "ok"})

    def test_correct_false_fails(self):
        _, problems = perf_gate.gate(
            METRICS, runs("w.setup_s", [1.0] * 5),
            runs("w.setup_s", [1.0] * 5, correct=False))
        self.assertTrue(any("correct is false" in p for p in problems))

    def test_nonzero_exit_fails(self):
        change = runs("w.setup_s", [1.0] * 5)
        change[2] = {"rc": 1, "result": None}
        _, problems = perf_gate.gate(METRICS, runs("w.setup_s", [1.0] * 5),
                                     change)
        self.assertEqual(problems, ["change run 3: exit 1, no result"])

    def test_higher_failed_share_fails(self):
        _, problems = perf_gate.gate(
            METRICS, runs("w.setup_s", [1.0] * 5, failed=0),
            runs("w.setup_s", [1.0] * 5, failed=1))
        self.assertTrue(any("failed share rose" in p for p in problems))

    def test_metric_missing_on_parent_is_reported_not_gated(self):
        parent = [run({"w.instr_per_s": 100}) for _ in range(5)]
        change = [run({"w.instr_per_s": 100, "w.peak_rss_mb": 50})
                  for _ in range(5)]
        rows, problems = perf_gate.gate(METRICS, parent, change)
        self.assertEqual(problems, [])
        got = verdicts(rows)
        self.assertEqual(got[("w", "peak_rss_mb")], "missing-parent")
        self.assertFalse(any(perf_gate.failing(v) for v in got.values()))
        self.assertIn("missing-parent", perf_gate.render(rows))

    def test_metric_missing_on_change_fails(self):
        parent = [run({"w.instr_per_s": 100, "w.peak_rss_mb": 50})
                  for _ in range(5)]
        change = [run({"w.instr_per_s": 100}) for _ in range(5)]
        rows, _ = perf_gate.gate(METRICS, parent, change)
        self.assertTrue(perf_gate.failing(verdicts(rows)[("w", "peak_rss_mb")]))

    def test_rows_cover_every_workload_and_metric(self):
        one = {f"{w}.{m}": 1.0 for w in ("a", "b") for m in METRICS}
        rows, _ = perf_gate.gate(METRICS, [run(one)] * 5, [run(one)] * 5)
        self.assertEqual(len(rows), 6)
        self.assertEqual({r[-1] for r in rows}, {"ok"})


class PerPair(unittest.TestCase):
    def test_values_print_in_pair_order_with_gaps_for_failed_runs(self):
        parent = runs("w.setup_s", [1.0, 2.0, 3.0])
        change = runs("w.setup_s", [10.0, 20.0, 30.0])
        change[1] = {"rc": 1, "result": None}
        rows, _ = perf_gate.gate(METRICS, parent, change)
        lines = perf_gate.render_pairs(rows, parent, change).splitlines()
        self.assertEqual(lines[0].split(),
                         ["workload", "metric", "pair", "1", "pair", "2",
                          "pair", "3"])
        self.assertEqual(lines[1].split(),
                         ["w", "setup_s", "1/10", "2/-", "3/30"])

    def test_one_line_per_verdict_row(self):
        one = {f"{w}.{m}": 1.0 for w in ("a", "b") for m in METRICS}
        rows, _ = perf_gate.gate(METRICS, [run(one)] * 5, [run(one)] * 5)
        lines = perf_gate.render_pairs(rows, [run(one)] * 5,
                                       [run(one)] * 5).splitlines()
        self.assertEqual(len(lines), 1 + len(rows))
        self.assertEqual([ln.split()[:2] for ln in lines[1:]],
                         [[wl, name] for wl, name, *_ in rows])


if __name__ == "__main__":
    unittest.main()

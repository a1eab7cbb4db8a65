#!/usr/bin/env python3
"""Unit tests for tools/perf_ab.py's decision (run by ctest as perf_ab_py).

Canned perfbench result lines go straight into perf_ab.decide(); no
benchmark runs.
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True  # ctest runs this from the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

BENCH = {
    "run_seconds": 30,
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "sim_ops", "unit": "1/s", "better": "higher",
         "bound": 0.05},
    ],
}
BASE = {"rate": 1000.0, "setup_s": 0.001, "sim_ops": 842195.83276308957}


def line(values=None, attempted=4, failed=0, drop=()):
    """A perfbench result line; metrics named in `drop` are left out."""
    metrics = {name: {"value": value, "unit": "x"}
               for name, value in dict(BASE, **(values or {})).items()
               if name not in drop}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def judge(base_lines, head_lines):
    pairs = [(perf_ab.result_of("report text\n" + b),
              perf_ab.result_of("report text\n" + h))
             for b, h in zip(base_lines, head_lines)]
    return perf_ab.decide(BENCH, {"w": pairs})


def kinds(report):
    return [(f["kind"], f.get("metric")) for f in report["failures"]]


class DecideTest(unittest.TestCase):
    def test_identical_runs_pass_with_exact_ratio_one(self):
        report = judge([line()] * 5, [line()] * 5)
        self.assertTrue(report["ok"], report["failures"])
        sim = report["workloads"]["w"]["metrics"]["sim_ops"]
        self.assertEqual(sim["median_ratio"], 1.0)
        self.assertEqual(sim["min_ratio"], 1.0)

    def test_higher_is_better_fails_only_past_its_bound(self):
        inside = judge([line()] * 3, [line({"rate": 800.0})] * 3)
        self.assertTrue(inside["ok"], inside["failures"])
        past = judge([line()] * 3, [line({"rate": 700.0})] * 3)
        self.assertEqual(kinds(past), [("regression", "rate")])
        faster = judge([line()] * 3, [line({"rate": 2000.0})] * 3)
        self.assertTrue(faster["ok"])

    def test_lower_is_better_fails_only_past_its_bound(self):
        inside = judge([line()] * 3, [line({"setup_s": 0.0012})] * 3)
        self.assertTrue(inside["ok"], inside["failures"])
        past = judge([line()] * 3, [line({"setup_s": 0.0013})] * 3)
        self.assertEqual(kinds(past), [("regression", "setup_s")])
        cheaper = judge([line()] * 3, [line({"setup_s": 0.0001})] * 3)
        self.assertTrue(cheaper["ok"])

    def test_median_of_pair_ratios_decides(self):
        # One slow pair out of five is noise, three are a regression.
        slow = line({"rate": 500.0})
        one = judge([line()] * 5, [slow] + [line()] * 4)
        self.assertTrue(one["ok"], one["failures"])
        three = judge([line()] * 5, [slow] * 3 + [line()] * 2)
        self.assertEqual(kinds(three), [("regression", "rate")])
        self.assertEqual(
            three["workloads"]["w"]["metrics"]["rate"]["median_ratio"], 0.5)

    def test_moved_simulated_metric_fails_its_tight_bound(self):
        moved = judge([line()] * 3,
                      [line({"sim_ops": BASE["sim_ops"] * 0.9})] * 3)
        self.assertEqual(kinds(moved), [("regression", "sim_ops")])

    def test_larger_head_failed_share_fails(self):
        report = judge([line()] * 3,
                       [line(failed=1)] + [line()] * 2)
        self.assertEqual(kinds(report), [("failed_share", None)])
        self.assertEqual(report["workloads"]["w"]["head_failed"], [1, 12])

    def test_head_without_result_counts_as_failed(self):
        report = judge([line()] * 3, ["perfbench: build failed"] * 3)
        self.assertIn(("failed_share", None), kinds(report))
        self.assertIn(("missing", "rate"), kinds(report))
        self.assertFalse(report["ok"])

    def test_base_failure_is_not_a_head_regression(self):
        report = judge([line(failed=1)] + [line()] * 2, [line()] * 3)
        self.assertFalse(report["ok"])
        self.assertEqual(kinds(report), [("base_failed", None)])

    def test_equal_failed_shares_are_a_base_failure_only(self):
        report = judge([line(failed=1)] * 3, [line(failed=1)] * 3)
        self.assertEqual(kinds(report), [("base_failed", None)])

    def test_metric_missing_from_either_side_fails(self):
        head_missing = judge([line()] * 3, [line(drop=("setup_s",))] * 3)
        self.assertEqual(kinds(head_missing), [("missing", "setup_s")])
        self.assertIn("head", head_missing["failures"][0]["detail"])
        base_missing = judge([line(drop=("rate",))] * 3, [line()] * 3)
        self.assertEqual(kinds(base_missing), [("missing", "rate")])
        self.assertIn("base", base_missing["failures"][0]["detail"])

    def test_repo_benchmark_declares_every_metric_it_gates(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        result = perf_ab.result_of(json.dumps({
            "attempted": 2, "failed": 0,
            "metrics": {spec["name"]: {"value": 1.5}
                        for spec in bench["end_to_end"]}}))
        report = perf_ab.decide(bench, {w["name"]: [(result, result)]
                                        for w in bench["workloads"]})
        self.assertTrue(report["ok"], report["failures"])
        for spec in bench["end_to_end"]:
            self.assertIn(spec["better"], ("higher", "lower"))
            self.assertGreater(spec["bound"], 0)

    def test_report_is_one_json_line(self):
        report = judge([line()] * 2, [line({"rate": 1100.0})] * 2)
        text = json.dumps(report, sort_keys=True)
        self.assertNotIn("\n", text)
        self.assertEqual(json.loads(text)["workloads"]["w"]["metrics"]
                         ["rate"]["median_ratio"], 1.1)


if __name__ == "__main__":
    unittest.main()

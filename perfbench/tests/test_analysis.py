"""Tests for the benchmark's own analysis code and BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import analysis  # noqa: E402
import run  # noqa: E402
from analysis import Span  # noqa: E402


def span(sid, parent, start, end, name="x.call", thread=0, request=0):
    return Span(sid, parent, thread, request, float(start), float(end), name)


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(analysis.tail_percentile(1000), 99.0)
        self.assertEqual(analysis.tail_percentile(999), 95.0)
        self.assertEqual(analysis.tail_percentile(200), 95.0)
        self.assertEqual(analysis.tail_percentile(199), 90.0)
        self.assertEqual(analysis.tail_percentile(20), 50.0)
        self.assertIsNone(analysis.tail_percentile(19))

    def test_reported_percentile_has_ten_samples_beyond(self):
        for n in (20, 57, 100, 333, 1000, 4321):
            p = analysis.tail_percentile(n)
            values = list(range(n))
            beyond = sum(v > analysis.percentile(values, p) for v in values)
            self.assertGreaterEqual(beyond, analysis.MIN_BEYOND, (n, p))

    def test_nearest_rank(self):
        self.assertEqual(analysis.percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertEqual(analysis.percentile(list(range(1, 101)), 99), 99)

    def test_end_to_end_reports_sample_counts_and_tail(self):
        raw = {"setup_s": [0.3, 0.1, 0.2],
               "series": {"op_ms": [float(i) for i in range(1, 301)],
                          "rate": [10.0, 30.0, 20.0, 40.0],
                          "rss_mb": [99.0]},
               "values": {"min_samples": 300}}
        e2e = run.end_to_end(raw)
        self.assertEqual(e2e["setup_s"][:2], (0.2, 3))
        self.assertEqual(e2e["throughput_per_s"][:2], (25.0, 4))
        self.assertEqual(e2e["latency_p50_ms"][:2], (150.0, 300))
        self.assertEqual(e2e["latency_tail_ms"], (285.0, 300, "p95"))

    def test_tail_follows_the_guaranteed_count(self):
        raw = {"series": {"op_ms": [float(i) for i in range(1, 1001)]},
               "values": {"min_samples": 40}}
        self.assertEqual(run.tail_of(raw, "op_ms"), (75.0, 750.0))

    def test_too_few_samples_is_an_error(self):
        raw = {"setup_s": [1.0], "values": {"min_samples": 40},
               "series": {"op_ms": [1.0] * 19, "rate": [1.0], "rss_mb": [1.0]}}
        with self.assertRaises(run.BenchError):
            run.end_to_end(raw)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 2, 5), span(3, 2, 3, 4)]
        self.assertEqual(analysis.self_times(spans), {1: 7.0, 2: 2.0, 3: 1.0})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 4), span(3, 1, 3, 6)]
        self.assertEqual(analysis.self_times(spans)[1], 5.0)

    def test_children_on_other_threads(self):
        spans = [span(1, 0, 0, 10, thread=0),
                 span(2, 1, 1, 6, thread=1), span(3, 1, 2, 8, thread=2),
                 span(4, 3, 2, 3, thread=2)]
        own = analysis.self_times(spans)
        self.assertEqual(own[1], 3.0)
        self.assertEqual(own[3], 5.0)

    def test_self_by_name_sums_calls(self):
        spans = [span(1, 0, 0, 4, "a.f"), span(2, 1, 1, 2, "b.g"),
                 span(3, 0, 5, 7, "a.f")]
        self.assertEqual(analysis.self_by_name(spans),
                         {"a.f": (2, 5.0), "b.g": (1, 1.0)})


class LayerSumTest(unittest.TestCase):
    def test_concurrent_spans_share_wall_time(self):
        spans = [span(1, 0, 0, 10, "bench.run"),
                 span(2, 1, 0, 4, "a.f", thread=1),
                 span(3, 1, 2, 6, "b.g", thread=2)]
        total, shares, unattributed = analysis.attribute_wall(spans)
        self.assertEqual(total, 10.0)
        self.assertEqual(shares, {"a.f": 3.0, "b.g": 3.0})
        self.assertEqual(unattributed, 4.0)

    def test_parent_gets_its_gaps_and_rows_add_up(self):
        spans = [span(1, 0, 0, 12, "bench.run"),
                 span(2, 1, 1, 11, "eval.step"),
                 span(3, 2, 2, 5, "nn.f", thread=1),
                 span(4, 2, 2, 7, "nn.f", thread=2),
                 span(5, 2, 8, 9, "nn.adam"),
                 span(6, 5, 9, 9, "nn.zero")]
        total, shares, unattributed = analysis.attribute_wall(spans)
        self.assertEqual(total, 12.0)
        self.assertAlmostEqual(shares["eval.step"], 4.0)
        self.assertAlmostEqual(shares["nn.f"], 5.0)
        self.assertAlmostEqual(shares["nn.adam"], 1.0)
        self.assertAlmostEqual(unattributed, 2.0)
        self.assertAlmostEqual(sum(shares.values()) + unattributed, total)

    def test_layer_table_checks_the_sum(self):
        spans = [span(1, 0, 0, 5, "bench.run"), span(2, 1, 1, 2, "a.f")]
        rows, unattributed, total = run.layer_table(spans)
        self.assertEqual(rows, [("a.f", 1, 1.0, 1.0)])
        self.assertEqual((unattributed, total), (4.0, 5.0))

    def test_shard_imbalance(self):
        spans = [span(1, 0, 0, 1, "eval.shard", request=1),
                 span(2, 0, 0, 3, "eval.shard", request=1),
                 span(3, 0, 4, 6, "eval.shard", request=2),
                 span(4, 0, 4, 6, "eval.shard", request=2)]
        self.assertAlmostEqual(analysis.shard_imbalance(spans), 1.25)


class BenchmarkSpecTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def metrics(self):
        return self.spec["end_to_end"] + self.spec["per_layer"]

    def test_metric_names(self):
        names = [m["name"] for m in self.metrics()]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, self.NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_units_and_bounds(self):
        for m in self.metrics():
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in self.spec["end_to_end"])}])

    def test_every_per_layer_metric_is_mapped(self):
        with open(os.path.join(BENCH, "layers.json")) as f:
            layers = json.load(f)
        self.assertEqual([m["name"] for m in self.spec["per_layer"]], list(layers))

    def test_workloads_match_the_runner(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py          # unit tests + smoke runs

The smoke runs build the programs (slow the first time) and run every
workload at a tiny size; they are skipped when the repository sources are
absent.
"""

import json
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

ROOT = HERE.parent


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [4, 1, 3, 2]
        self.assertEqual(stats.percentile(xs, 0.0), 1)
        self.assertEqual(stats.percentile(xs, 1.0), 4)
        self.assertAlmostEqual(stats.percentile(xs, 0.5), 2.5)
        self.assertAlmostEqual(stats.percentile(list(range(101)), 0.99), 99.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1], 1.5)

    def test_tail_keeps_ten_samples_beyond(self):
        xs = list(range(1000))
        rank, value = stats.tail(xs)
        self.assertEqual(rank, 0.99)
        self.assertGreaterEqual(sum(x > value for x in xs), 10)
        rank, value = stats.tail(list(range(100)))
        self.assertLess(rank, 0.99)
        self.assertEqual(sum(x > value for x in range(100)), 10)

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (1.0, 3.0))
        self.assertEqual(stats.tail(list(range(15))), (1.0, 14))
        self.assertEqual(stats.tail([2.5]), (1.0, 2.5))


class QuartileAndBoundTest(unittest.TestCase):
    def test_spread_uses_exclusive_quartiles(self):
        xs = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / med)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)

    def test_worse_by_follows_the_direction(self):
        self.assertAlmostEqual(stats.worse_by(100.0, 110.0, "lower"), 0.10)
        self.assertAlmostEqual(stats.worse_by(100.0, 110.0, "higher"), -0.10)
        self.assertAlmostEqual(stats.worse_by(100.0, 90.0, "higher"), 0.10)

    def test_regression_is_judged_on_medians(self):
        parent = [1.0, 1.0, 1.0, 5.0]
        self.assertFalse(stats.regressed(parent, [1.09, 1.09, 9.0], 0.10, "lower"))
        self.assertTrue(stats.regressed(parent, [1.11, 1.11, 0.1], 0.10, "lower"))
        self.assertFalse(stats.regressed(parent, [0.5, 0.5, 0.5], 0.10, "lower"))
        self.assertTrue(stats.regressed([100.0] * 3, [80.0] * 3, 0.10, "higher"))


def span(name, start, end, sid, parent=0, thread=1, work=0):
    return [name, start * 10**9, end * 10**9, sid, parent, thread, work]


class SpanTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        rows = [
            span("bench.campaign", 0, 10, 1),
            span("tracer.trace", 1, 4, 2, parent=1, work=7),
            span("core.index", 2, 3, 3, parent=2),
            span("core.index", 5, 6, 4, parent=1),
        ]
        layers, wall, covered = spans.layers(rows, "bench.campaign")
        self.assertAlmostEqual(layers["tracer.trace"]["busy_s"], 2.0)
        self.assertAlmostEqual(layers["core.index"]["busy_s"], 2.0)
        self.assertEqual(layers["core.index"]["calls"], 2)
        self.assertEqual(layers["tracer.trace"]["work"], 7)
        self.assertAlmostEqual(wall, 10.0)
        self.assertAlmostEqual(covered, 4.0)

    def test_parallel_workers_share_the_wall(self):
        # The root waits on two workers that replay side by side for 4 s;
        # one keeps going alone for 2 s more.
        rows = [
            span("bench.campaign", 0, 8, 1),
            span("dimemas.replay", 1, 5, 2, parent=1, thread=2),
            span("dimemas.replay", 1, 7, 3, parent=1, thread=3),
        ]
        layers, wall, covered = spans.layers(rows, "bench.campaign")
        self.assertAlmostEqual(layers["dimemas.replay"]["busy_s"], 10.0)
        self.assertAlmostEqual(layers["dimemas.replay"]["wall_s"], 6.0)
        self.assertAlmostEqual(covered, 6.0)
        self.assertAlmostEqual(wall, 8.0)

    def test_concurrent_layers_split_each_instant(self):
        rows = [
            span("bench.pass", 0, 4, 1),
            span("core.compile", 0, 4, 2, parent=1, thread=2),
            span("lab.attribution", 0, 2, 3, parent=1, thread=3),
        ]
        layers, _, covered = spans.layers(rows, "bench.pass")
        self.assertAlmostEqual(layers["core.compile"]["wall_s"], 3.0)
        self.assertAlmostEqual(layers["lab.attribution"]["wall_s"], 1.0)
        self.assertAlmostEqual(covered, 4.0)

    def test_a_coordinator_owns_only_the_instants_no_other_layer_runs(self):
        # The campaign runner waits 4 s on a worker that compiles for 1 s.
        rows = [
            span("bench.campaign", 0, 5, 1),
            span("lab.campaign", 0, 4, 2, parent=1),
            span("core.compile", 1, 2, 3, parent=1, thread=2),
        ]
        layers, wall, covered = spans.layers(rows, "bench.campaign")
        self.assertAlmostEqual(layers["lab.campaign"]["wall_s"], 3.0)
        self.assertAlmostEqual(layers["core.compile"]["wall_s"], 1.0)
        self.assertAlmostEqual(covered, 4.0)
        self.assertAlmostEqual(wall, 5.0)

    def test_only_spans_under_the_named_root_count(self):
        rows = [
            span("bench.warmup", 0, 2, 1),
            span("tracer.trace", 0, 2, 2, parent=1),
            span("bench.pass", 2, 3, 3),
            span("dimemas.replay", 2, 3, 4, parent=3),
        ]
        layers, wall, _ = spans.layers(rows, "bench.pass")
        self.assertNotIn("tracer.trace", layers)
        self.assertAlmostEqual(wall, 1.0)


class ProcsTest(unittest.TestCase):
    def test_output_is_drained_and_rss_measured(self):
        fin = procs.run([sys.executable, "-c", "print('x' * 1000000)"], ROOT, None, 30.0)
        self.assertTrue(fin.ok)
        self.assertEqual(len(fin.out), 1000001)
        self.assertGreater(fin.maxrss_mb, 1.0)

    def test_a_hung_child_is_killed(self):
        fin = procs.run([sys.executable, "-c", "import time; time.sleep(30)"], ROOT, None, 0.5)
        self.assertTrue(fin.timed_out)
        self.assertFalse(fin.ok)


@unittest.skipUnless(
    (ROOT / "Cargo.toml").is_file() and shutil.which("cargo"), "needs the repository sources"
)
class SmokeTest(unittest.TestCase):
    """Every workload end to end at a tiny size, through the real command."""

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_bench(self, workload, trace, seed=7):
        cmd = self.bench["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", "1", "--trace", str(trace), "--smoke"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def test_end_to_end_metrics_of_every_workload(self):
        names = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        for workload in (w["name"] for w in self.bench["workloads"]):
            for seed in (7, 8):
                metrics = self.run_bench(workload, 0, seed)
                self.assertEqual({k: v["unit"] for k, v in metrics.items()}, names)
                self.assertTrue(all(v["value"] > 0 for v in metrics.values()), metrics)

    def test_traced_run_reports_every_layer_metric(self):
        metrics = self.run_bench("paper", 1)
        names = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, names)
        self.assertEqual([k for k, v in metrics.items() if not v["value"] > 0], [])


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The arithmetic tests run on fixed inputs in milliseconds. SmokeTest
builds the simulator (first time only) and runs all three workloads
at the tiny --smoke scale, untraced and traced; it takes a few
minutes on a 4-core host. Set PERFBENCH_SKIP_SMOKE=1 to skip it.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        vals = [4.0, 1.0, 3.0, 2.0, 5.0]
        self.assertEqual(benchlib.percentile(vals, 0), 1.0)
        self.assertEqual(benchlib.percentile(vals, 50), 3.0)
        self.assertEqual(benchlib.percentile(vals, 100), 5.0)
        self.assertAlmostEqual(benchlib.percentile(vals, 90), 4.6)
        self.assertAlmostEqual(benchlib.percentile(list(range(11)), 90), 9.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 101)

    def test_sample_count_rule(self):
        # Ten samples must lie beyond the reported percentile.
        self.assertIsNone(benchlib.supported_percentile(19))
        self.assertEqual(benchlib.supported_percentile(20), 50.0)
        self.assertEqual(benchlib.supported_percentile(99), 50.0)
        self.assertEqual(benchlib.supported_percentile(100), 90.0)
        self.assertEqual(benchlib.supported_percentile(999), 90.0)
        self.assertEqual(benchlib.supported_percentile(1000), 99.0)
        self.assertEqual(benchlib.supported_percentile(10000), 99.9)

    def test_quartiles_match_statistics(self):
        vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        q = statistics.quantiles(vals, n=4)
        self.assertEqual(benchlib.quartiles(vals), (q[0], q[1], q[2]))
        self.assertAlmostEqual(benchlib.relative_spread(vals),
                               (q[2] - q[0]) / statistics.median(vals))
        self.assertEqual(benchlib.quartiles([7.0]), (7.0, 7.0, 7.0))


class AccuracyTest(unittest.TestCase):
    def test_error_is_relative_and_unsigned(self):
        self.assertAlmostEqual(benchlib.error_pct(110, 100), 10.0)
        self.assertAlmostEqual(benchlib.error_pct(90, 100), 10.0)
        self.assertEqual(benchlib.error_pct(100, 100), 0.0)
        with self.assertRaises(ValueError):
            benchlib.error_pct(1, 0)

    def test_coverage_compares_half_width_to_error(self):
        self.assertTrue(benchlib.ci_covers(0.05, 4.9))
        self.assertTrue(benchlib.ci_covers(0.05, 5.0))
        self.assertFalse(benchlib.ci_covers(0.05, 5.1))
        # A CI that was never computable covers no error.
        self.assertFalse(benchlib.ci_covers(0.0, 0.1))

    def test_sweep_figures(self):
        refs = [{"workload": "a", "seed": 1, "cycles": 1000},
                {"workload": "b", "seed": 1, "cycles": 2000}]
        recs = [
            {"workload": "a", "seed": 1, "cycles": 1100, "adaptive": False,
             "half_width": 0.0},
            {"workload": "a", "seed": 1, "cycles": 1010, "adaptive": True,
             "half_width": 0.02},
            {"workload": "b", "seed": 1, "cycles": 1900, "adaptive": False,
             "half_width": 0.0},
            {"workload": "b", "seed": 1, "cycles": 2200, "adaptive": True,
             "half_width": 0.05},
        ]
        acc = benchlib.accuracy(recs, refs)
        self.assertEqual([round(e, 9) for e in acc["errors"]], [10.0, 1.0, 5.0, 10.0])
        self.assertAlmostEqual(acc["error_pct_mean"], 6.5)
        self.assertAlmostEqual(acc["error_pct_max"], 10.0)
        self.assertAlmostEqual(acc["error_pct_p50"], 7.5)
        self.assertAlmostEqual(acc["error_pct_p90"], 10.0)
        # 2% admits 1% error; 5% does not admit 10%.
        self.assertEqual(acc["adaptive_jobs"], 2)
        self.assertAlmostEqual(acc["ci_coverage"], 0.5)

    def test_missing_reference_is_an_error(self):
        with self.assertRaises(KeyError):
            benchlib.accuracy([{"workload": "x", "seed": 2, "cycles": 1,
                                "adaptive": False, "half_width": 0.0}], [])


class ResidualTest(unittest.TestCase):
    def test_bounds_either_sign(self):
        self.assertIsNone(benchlib.residual_failure(3.0, 10.0, 0.35))
        self.assertIsNone(benchlib.residual_failure(-3.5, 10.0, 0.35))
        self.assertIn("36.0%", benchlib.residual_failure(3.6, 10.0, 0.35))
        self.assertIn("-40.0%", benchlib.residual_failure(-4.0, 10.0, 0.35))


class ReportTest(unittest.TestCase):
    CSV = ("index,label,sampled_cycles,reference_cycles,error_pct,"
           "detail_fraction,ref_cached,sam_cached,wall_speedup,host_seconds\n"
           "0,a/lazy,100,,,0.5,0,0,,0.25\n"
           "1,b/lazy,200,,,0.25,0,0,,1.5\n")

    def test_strips_host_timing_columns(self):
        det = benchlib.deterministic_csv(self.CSV)
        self.assertEqual(det.splitlines()[1], "0,a/lazy,100,,,0.5,0,0")
        other = self.CSV.replace(",0.25\n", ",9.75\n")
        self.assertEqual(benchlib.deterministic_csv(other), det)
        changed = self.CSV.replace("0,a/lazy,100", "0,a/lazy,101")
        self.assertNotEqual(benchlib.deterministic_csv(changed), det)

    def test_host_seconds(self):
        self.assertEqual(benchlib.csv_host_seconds(self.CSV), [0.25, 1.5])

    def test_digest_is_order_independent_for_keys(self):
        self.assertEqual(benchlib.digest({"a": 1, "b": [2]}),
                         benchlib.digest({"b": [2], "a": 1}))
        self.assertNotEqual(benchlib.digest({"a": 1}), benchlib.digest({"a": 2}))


class CompareTest(unittest.TestCase):
    BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_pair_order_alternates(self):
        self.assertEqual([benchlib.pair_order(i)[0] for i in range(4)],
                         ["base", "head", "base", "head"])

    def test_clear_gain(self):
        head = [v * 0.8 for v in self.BASE]
        v = benchlib.compare_metric(self.BASE, head, "lower", 0.1)
        self.assertEqual(v["verdict"], "head better")
        self.assertEqual(v["head_wins"], 10)

    def test_higher_is_better(self):
        head = [v * 1.2 for v in self.BASE]
        self.assertEqual(benchlib.compare_metric(self.BASE, head, "higher", 0.1)
                         ["verdict"], "head better")
        self.assertEqual(benchlib.compare_metric(self.BASE, head, "lower", 0.1)
                         ["verdict"], "head worse")

    def test_eight_of_ten_wins_is_no_gain(self):
        head = [v * 0.97 for v in self.BASE]
        head[0] = self.BASE[0] * 1.01
        head[1] = self.BASE[1] * 1.01
        v = benchlib.compare_metric(self.BASE, head, "lower", 0.1)
        self.assertEqual(v["head_wins"], 8)
        self.assertEqual(v["verdict"], "within bound")

    def test_gap_inside_iqr_is_no_gain(self):
        base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        head = [b - 0.5 for b in base]
        v = benchlib.compare_metric(base, head, "lower", 0.5)
        self.assertEqual(v["head_wins"], 10)
        self.assertEqual(v["verdict"], "within bound")

    def test_worse_than_bound(self):
        head = [v * 1.04 for v in self.BASE]
        head[0] = self.BASE[0] * 0.99
        head[1] = self.BASE[1] * 0.99
        v = benchlib.compare_metric(self.BASE, head, "lower", 0.03)
        self.assertLess(v["base_spread"], 0.03)
        self.assertEqual(v["verdict"], "worse than bound")

    def test_noisy_base_is_unresolved(self):
        base = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
        head = [b * (0.95 if i % 2 else 1.05) for i, b in enumerate(base)]
        v = benchlib.compare_metric(base, head, "lower", 0.1)
        self.assertGreater(v["base_spread"], 0.1)
        self.assertEqual(v["verdict"], "unresolved")

    def test_unbounded_metric_has_no_winner(self):
        head = list(self.BASE)
        self.assertEqual(benchlib.compare_metric(self.BASE, head, "lower", None)
                         ["verdict"], "no winner")

    def test_deterministic_change_is_an_error(self):
        same = benchlib.compare_metric([3, 3], [3, 3], "lower", None, deterministic=True)
        self.assertEqual(same["verdict"], "identical")
        moved = benchlib.compare_metric([3, 3], [3, 4], "lower", None, deterministic=True)
        self.assertTrue(moved["verdict"].startswith("error"))

    def test_needs_paired_runs(self):
        with self.assertRaises(ValueError):
            benchlib.compare_metric([1.0], [1.0, 2.0], "lower", 0.1)


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE") == "1", "smoke disabled")
class SmokeTest(unittest.TestCase):
    """All three workloads at tiny scale, through the real command."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def run_bench(self, workload, trace):
        r = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        lines = r.stdout.strip().splitlines()
        self.assertTrue(any(l.startswith("fingerprint ") for l in lines))
        self.assertTrue(any(l.startswith("digest %s" % workload) for l in lines))
        return json.loads(lines[-1])

    def check(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            line = self.run_bench(workload, trace)
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"])
            self.assertEqual(line["failed"], 0)
            self.assertGreaterEqual(line["attempted"], 1)
            names = {m["name"] for m in self.spec[key]}
            self.assertEqual(set(line["metrics"]), names)
            units = {m["name"]: m["unit"] for m in self.spec[key]}
            for name, m in line["metrics"].items():
                self.assertEqual(m["unit"], units[name])
                self.assertIsInstance(m["value"], (int, float))
                if trace == 0:
                    self.assertGreater(m["value"], 0, name)

    def test_detailed_ref(self):
        self.check("detailed-ref")

    def test_sampled_sweep(self):
        self.check("sampled-sweep")

    def test_ckpt_campaign(self):
        self.check("ckpt-campaign")

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(HERE.parent / "BENCHMARK.json", d)
            shutil.copytree(HERE, Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "detailed-ref",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertFalse(r.stdout.strip().endswith("}"))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that pinned and unpinned seeds both pass on unchanged code,
and that a perturbed pin is caught: failed_frac > 0 and a nonzero exit.
"""

import math
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = ["--size", "small"]
PINNED_SEED = 0
UNPINNED_SEED = 987654321


def failed_frac_line(lines):
    for line in lines:
        m = re.match(r"failed_frac (\S+)", line)
        if m:
            return float(m.group(1))
    return None


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        cls.spec = run.bench_spec()

    def expect_metrics(self, result, listed):
        want = {m["name"]: m["unit"] for m in listed}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, m in got.items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_every_metric_prints_with_its_unit(self):
        for w in run.WORKLOADS:
            for trace, listed in ((0, self.spec["end_to_end"]), (1, self.spec["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    code, lines, result = run.run_one(w, PINNED_SEED, 1, trace, SMALL)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(failed_frac_line(lines), 0.0)
                    self.assertTrue(any(l.startswith("# pins pinned") for l in lines))
                    self.expect_metrics(result, listed)

    def test_unpinned_seed_falls_back_to_self_comparison(self):
        # The traced b32_complement run checks its 2-worker passes.
        for w, trace in (("incast_checkpoint", 0), ("b32_complement", 1)):
            with self.subTest(workload=w, trace=trace):
                code, lines, result = run.run_one(w, UNPINNED_SEED, 1, trace, SMALL)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertTrue(any(l.startswith("# pins unpinned") for l in lines))

    def test_perturbed_pin_fails(self):
        for seed in (PINNED_SEED, UNPINNED_SEED):
            with self.subTest(seed=seed):
                code, lines, result = run.run_one(
                    "paper64_sweep", seed, 1, 0, SMALL + ["--perturb-pin"])
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(failed_frac_line(lines), 0.0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the result comparison (compare.py).

    python3 e2ebench/test_compare.py
"""

import copy
import json
import os
import tempfile
import unittest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def result(workload, seed, spec, scale=1.0):
    metrics = {m["name"]: {"value": 10.0 * scale + seed * 0.01, "unit": m["unit"], "samples": 100}
               for m in spec["end_to_end"]}
    return {"workload": workload, "seed": seed, "trace": 0, "seconds": 10,
            "stamp": {"nproc": 4, "cpu_model": "cpu", "compiler": "GNU 12", "build_type": "Release",
                      "git_describe": "abc", "seed": seed},
            "attempted": 1000, "failed": 0, "error_rate": 0.0, "invalid": [], "metrics": metrics}


class CompareTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        self.base = [result(w["name"], seed, self.spec)
                     for w in self.spec["workloads"] for seed in range(1, 6)]

    def test_identical_sets_pass(self):
        regressions, _, stamps = compare.compare(self.base, copy.deepcopy(self.base), self.spec)
        self.assertEqual(regressions, [])
        self.assertEqual(stamps, [])

    def test_every_end_to_end_metric_scaled_2x_worse_is_flagged(self):
        workload = self.spec["workloads"][0]["name"]
        for metric in self.spec["end_to_end"]:
            new = copy.deepcopy(self.base)
            factor = 2.0 if metric["better"] == "lower" else 0.5
            for r in new:
                if r["workload"] == workload:
                    r["metrics"][metric["name"]]["value"] *= factor
            regressions, _, _ = compare.compare(self.base, new, self.spec)
            self.assertEqual(len(regressions), 1, metric["name"])
            self.assertIn(workload + " " + metric["name"], regressions[0])

    def test_2x_better_is_not_flagged(self):
        new = copy.deepcopy(self.base)
        for r in new:
            r["metrics"]["primary_rel.p50"]["value"] /= 2.0
        regressions, _, _ = compare.compare(self.base, new, self.spec)
        self.assertEqual(regressions, [])

    def test_higher_error_rate_is_flagged(self):
        new = copy.deepcopy(self.base)
        new[0]["failed"] = 1
        new[0]["error_rate"] = 0.001
        regressions, _, _ = compare.compare(self.base, new, self.spec)
        self.assertEqual(len(regressions), 1)
        self.assertIn("error_rate", regressions[0])

    def test_different_stamps_are_reported_not_compared(self):
        new = copy.deepcopy(self.base)
        for r in new:
            r["stamp"]["nproc"] = 8
            r["metrics"]["primary_rel.p50"]["value"] *= 2.0
        regressions, _, stamps = compare.compare(self.base, new, self.spec)
        self.assertEqual(regressions, [])
        self.assertEqual(len(stamps), 1)
        self.assertIn("stamps differ", stamps[0])

    def test_invalid_runs_are_reported_not_compared(self):
        new = copy.deepcopy(self.base)
        new[0]["invalid"] = ["the load generator fell behind: lateness p99 150 ms"]
        new[0]["metrics"] = {}
        regressions, _, problems = compare.compare(self.base, new, self.spec)
        self.assertEqual(regressions, [])
        self.assertEqual(len(problems), 1)
        self.assertIn("invalid run", problems[0])

    def test_main_reads_result_directories(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for directory, scale in ((a, 1.0), (b, 2.0)):
                for i, r in enumerate(self.base):
                    r = copy.deepcopy(r)
                    r["metrics"]["setup_s"]["value"] *= scale
                    with open(os.path.join(directory, "%d.json" % i), "w") as f:
                        json.dump(r, f)
            self.assertEqual(compare.main(["compare.py", a, a]), 0)
            self.assertEqual(compare.main(["compare.py", a, b]), 1)
            with open(os.path.join(b, "0.json")) as f:
                r = json.load(f)
            r["invalid"], r["metrics"] = ["lateness p99 150 ms"], {}
            with open(os.path.join(b, "0.json"), "w") as f:
                json.dump(r, f)
            self.assertEqual(compare.main(["compare.py", a, b]), 2)


if __name__ == "__main__":
    unittest.main()

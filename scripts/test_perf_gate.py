#!/usr/bin/env python3
"""Unit tests of scripts/perf_gate.py's verdict() on synthetic runs.

Usage (from the repository root): python3 scripts/test_perf_gate.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import perf_gate  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BOUNDS = json.load(f)["end_to_end"]

# One steady perfbench result; each timed metric jitters by +-1% across
# seeds, while the fractions and the seed-exact volume do not.
STEADY = {"setup_s": 0.2, "rps": 250.0, "p50_ms": 8.5, "slo_frac": 1.0,
          "ok_frac": 1.0, "cpu_us_per_req": 8400.0, "rss_mb": 135.0,
          "volume_mb": 4200.0}
JITTER = (-0.01, 0.004, -0.006, 0.01, 0.0, -0.003, 0.008, -0.008, 0.002,
          0.006)
EXACT = ("slo_frac", "ok_frac", "volume_mb")


def perfbench_runs(scale=None, correct=True, failed=0, code=0,
                   jitter=JITTER):
    """Ten runs of one workload; `scale` maps a metric to a factor, or to
    a list of ten per-seed factors."""
    runs = []
    for i, j in enumerate(jitter):
        metrics = {}
        for name, value in STEADY.items():
            f = (scale or {}).get(name, 1.0)
            f = f[i] if isinstance(f, list) else f
            if name not in EXACT:
                f *= 1.0 + j
            metrics[name] = {"value": value * f, "unit": "-"}
        runs.append({"seed": i + 1, "code": code,
                     "result": {"correct": correct, "attempted": 1000,
                                "failed": failed, "metrics": metrics}})
    return runs


def micro_runs(scale=1.0, drop=None, code=0):
    cases = {"dist2_batch": 2.2e-4, "capped_sum": 5.0e-5,
             "matrix_fill": 1.4e-3}
    jitter = (0.0, 0.2, -0.15, 0.1, -0.05)
    return [{"code": code,
             "cases": {n: v * (1.0 + j) * scale for n, v in cases.items()
                       if n != drop}}
            for j in jitter]


def side(micro=None, **perfbench):
    return {"micro": {"micro_kernels": micro or micro_runs()},
            "perfbench": {"cold_paper": perfbench_runs(**perfbench)}}


def row(v, metric, workload="cold_paper"):
    return next(r for r in v["perfbench"][workload] if r["metric"] == metric)


class VerdictTest(unittest.TestCase):
    def test_a_a_passes(self):
        head = side(jitter=tuple(reversed(JITTER)))
        v = perf_gate.verdict(side(), head, BOUNDS)
        self.assertEqual(v["code"], 0, v["failures"])
        self.assertTrue(all(r["verdict"] == "ok"
                            for r in v["perfbench"]["cold_paper"]))
        self.assertTrue(all(r["verdict"] == "ok"
                            for r in v["micro"]["micro_kernels"]))

    def test_uniform_micro_slowdown_fails(self):
        # Every case 3x slower: the per-case runtime shares do not move.
        v = perf_gate.verdict(side(), side(micro=micro_runs(scale=3.0)),
                              BOUNDS)
        self.assertEqual(v["code"], 1)
        self.assertTrue(all(r["verdict"] == "regression"
                            for r in v["micro"]["micro_kernels"]))

    def test_micro_slowdown_within_bound_passes(self):
        v = perf_gate.verdict(side(), side(micro=micro_runs(scale=1.8)),
                              BOUNDS)
        self.assertEqual(v["code"], 0, v["failures"])

    def test_missing_micro_case_fails(self):
        v = perf_gate.verdict(
            side(), side(micro=micro_runs(drop="capped_sum")), BOUNDS)
        self.assertEqual(v["code"], 1)
        verdicts = {r["case"]: r["verdict"]
                    for r in v["micro"]["micro_kernels"]}
        self.assertEqual(verdicts["capped_sum"], "missing")

    def test_new_micro_case_is_listed_ungated(self):
        def runs(names):
            return [{"code": 0, "cases": {n: 1.0e-4 for n in names}}
                    for _ in range(5)]
        v = perf_gate.verdict(side(micro=runs(["a"])),
                              side(micro=runs(["a", "b"])), BOUNDS)
        self.assertEqual(v["code"], 0, v["failures"])
        verdicts = {r["case"]: r["verdict"]
                    for r in v["micro"]["micro_kernels"]}
        self.assertEqual(verdicts, {"a": "ok", "b": "new, ungated"})

    def test_aborted_micro_head_fails(self):
        v = perf_gate.verdict(side(), side(micro=micro_runs(code=134)),
                              BOUNDS)
        self.assertEqual(v["code"], 1)

    def test_ok_frac_drop_fails(self):
        v = perf_gate.verdict(side(), side(scale={"ok_frac": 0.97}), BOUNDS)
        self.assertEqual(v["code"], 1)
        self.assertEqual(row(v, "ok_frac")["verdict"], "regression")

    def test_cpu_regression_fails(self):
        v = perf_gate.verdict(side(), side(scale={"cpu_us_per_req": 2.0}),
                              BOUNDS)
        self.assertEqual(v["code"], 1)
        self.assertEqual(row(v, "cpu_us_per_req")["verdict"], "regression")
        self.assertTrue(any("cold_paper cpu_us_per_req" in f
                            for f in v["failures"]))

    def test_higher_failed_share_fails(self):
        v = perf_gate.verdict(side(), side(failed=3), BOUNDS)
        self.assertEqual(v["code"], 1)
        self.assertTrue(any("failed share" in f for f in v["failures"]))

    def test_head_incorrect_fails(self):
        v = perf_gate.verdict(side(), side(correct=False, code=1), BOUNDS)
        self.assertEqual(v["code"], 1)

    def test_wide_spread_reads_unresolved(self):
        # Base p50 spread far wider than the 25% bound; head the same.
        spread = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.1]
        base = side(scale={"p50_ms": spread})
        head = side(scale={"p50_ms": list(reversed(spread))})
        v = perf_gate.verdict(base, head, BOUNDS)
        self.assertEqual(v["code"], 0, v["failures"])
        self.assertEqual(row(v, "p50_ms")["verdict"], "unresolved")

    def test_wide_spread_beaten_everywhere_is_not_unresolved(self):
        spread = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.1]
        base = side(scale={"p50_ms": spread})
        head = side(scale={"p50_ms": 0.2})
        v = perf_gate.verdict(base, head, BOUNDS)
        self.assertNotEqual(row(v, "p50_ms")["verdict"], "unresolved")

    def test_nine_of_ten_wins_reads_gain(self):
        # The head is 10% faster on nine seeds and 5% slower on one.
        f = [0.9] * 9 + [1.05]
        v = perf_gate.verdict(side(), side(scale={"cpu_us_per_req": f}),
                              BOUNDS)
        self.assertEqual(v["code"], 0, v["failures"])
        r = row(v, "cpu_us_per_req")
        self.assertEqual(r["wins"], 9)
        self.assertEqual(r["verdict"], "gain")

    def test_small_gap_is_not_gain(self):
        # Nine wins, but the median gap (0.1%) is inside the base IQR.
        f = [0.999] * 9 + [1.05]
        v = perf_gate.verdict(side(), side(scale={"cpu_us_per_req": f}),
                              BOUNDS)
        self.assertEqual(row(v, "cpu_us_per_req")["verdict"], "ok")

    def test_base_incorrect_exits_2(self):
        v = perf_gate.verdict(side(correct=False, code=1), side(), BOUNDS)
        self.assertEqual(v["code"], 2)
        self.assertEqual(v["perfbench"], {})

    def test_base_micro_abort_exits_2(self):
        v = perf_gate.verdict(side(micro=micro_runs(code=134)), side(),
                              BOUNDS)
        self.assertEqual(v["code"], 2)

    def test_unsteady_exits_4(self):
        head = side()
        head["perfbench"]["cold_paper"][3] = {"seed": 4, "code": 4,
                                              "result": None}
        v = perf_gate.verdict(side(), head, BOUNDS)
        self.assertEqual(v["code"], 4)
        self.assertEqual(v["perfbench"], {})


if __name__ == "__main__":
    unittest.main()

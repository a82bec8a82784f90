"""The benchmark's own smoke test.

    python3 bench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each prints every metric BENCHMARK.json names, with its unit, and passes its
correctness gates.  It then plants wrong outputs (a fabricated triple in a
sweep record, a fabricated oracle triple) and checks that the gates count
them as failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from sqsearch import campaign, search  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload: str, trace: int = 0):
    """One tiny run; returns its result, gates and printed report."""
    result, batches, gates, rows = run.run(workload, seed=7, seconds=0, trace=trace,
                                           scale="tiny")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        run._print_report(workload, 7, result, batches, gates, rows)
    return result, gates, printed.getvalue()


class TinyWorkloads(unittest.TestCase):

    def _check_metrics(self, result, printed, declared):
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
        lines = printed.splitlines()
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(any(line.split()[:1] == [name] and line.split()[-1] == units[name]
                                for line in lines), f"{name} not printed with its unit")
        self.assertIn("error_rate", printed)

    def test_every_workload_untraced(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                result, gates, printed = _tiny(workload)
                self.assertTrue(result["correct"], gates.messages)
                self.assertEqual(result["failed"], 0)
                self._check_metrics(result, printed, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                result, gates, printed = _tiny(workload, trace=1)
                self.assertTrue(result["correct"], gates.messages)
                self._check_metrics(result, printed, SPEC["per_layer"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                if workload == "lemmas":
                    for name, value in metrics.items():
                        if name.startswith(("diolog.", "reduce.")):
                            self.assertEqual(value, 0, name)
                    self.assertGreater(metrics["arith.as_s_unit_calls"], 0)
                else:
                    self.assertGreater(metrics["reduce.initial_bound_share"], 0.5)
                if workload == "resume-odd":
                    # tiny window: 4 primes, 6 pairs, first leg capped at 3
                    self.assertEqual(metrics["campaign.records_resumed"], 3)

    def test_workload_names_match_spec(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOAD_NAMES)


class PlantedErrors(unittest.TestCase):

    def test_fabricated_triple_in_sweep_record_is_counted(self):
        original = campaign.record_from_report

        def planted(report):
            rec = original(report)
            rec["triples"] = rec["triples"] + [[1, 2, 3]]
            return rec

        campaign.record_from_report = planted
        try:
            result, gates, _ = _tiny("sweep-2q")
        finally:
            campaign.record_from_report = original
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_fabricated_oracle_triple_is_counted(self):
        original = search.brute_force_oracle

        def planted(pair, N, m, *args):
            out = original(pair, N, m, *args)
            return out + [(1, 2, 3)] if m == 3 else out

        search.brute_force_oracle = planted
        try:
            result, gates, _ = _tiny("lemmas")
        finally:
            search.brute_force_oracle = original
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()

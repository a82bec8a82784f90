"""Steadiness mode: repeat workloads over several seeds and report the spread.

    python3 bench/steady.py --runs 10 [--workload sweep-2q ...] [--seconds 20]

Runs `bench/run.py --trace 0` once per seed (seeds 1..runs), one run at a
time, and prints for every end-to-end metric the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median.  Each spread is set against a
third of the metric's bound in BENCHMARK.json, the margin the bounds were
chosen to leave.
Raw results go to .bench_work/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed} printed nothing:\n{out.stderr}")
    return json.loads(lines[-1])


def summarize(workload: str, results: list[dict], bounds: dict[str, float]) -> bool:
    """Print the per-metric table; True when every spread is within a third
    of its bound and every run was correct."""
    ok = all(r["correct"] for r in results)
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{workload}: {len(results)} runs, {failed} failed of {attempted} checked")
    print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound/3':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("nan")
        limit = bounds[name] / 3
        verdict = "ok" if spread < limit else "WIDE"
        ok = ok and verdict == "ok"
        print(f"  {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{limit:8.3f} {unit} {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", action="append",
                        help="workload to repeat (default: every workload)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    all_ok = True
    for workload in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            t0 = time.perf_counter()
            results.append(_one_run(workload, seed, seconds))
            print(f"  {workload} seed {seed}: correct={results[-1]['correct']}, "
                  f"run took {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(results), encoding="utf-8")
        all_ok = summarize(workload, results, bounds) and all_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

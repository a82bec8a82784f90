"""sqsearch benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload sweep-2q --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  With `--trace 0` the run measures the end-to-end metrics
with no instrumentation; with `--trace 1` it measures half its time untraced
and half traced, and reports the per-layer metrics plus the tracing overhead.
Every outcome is checked against `bench/reference.json`.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it give the run's metadata and a
table of every metric with its unit.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOAD_NAMES = ("sweep-2q", "pairs-small", "resume-odd", "lemmas")
SETUP_REPEATS = {"full": 7, "tiny": 2}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "pair_ms_p50": "ms",
    "pair_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "reduce.initial_bound_ms": "ms",
    "reduce.initial_bound_share": "ratio",
    "diolog.log_of_fraction_calls": "count",
    "diolog.certified_log_calls": "count",
    "reduce.reduce_once_ms": "ms",
    "reduce.steps": "count",
    "diolog.linear_form_gap_ms": "ms",
    "diolog.linear_form_gap_calls": "count",
    "diolog.precision_bits_max": "bits",
    "diolog.convergents_checked": "count",
    "reduce.exponent_box_ms": "ms",
    "reduce.box_volume": "count",
    "search.scan_ms": "ms",
    "search.candidate_pairs": "count",
    "search.triple_candidates": "count",
    "search.triples": "count",
    "search.triple_yield": "ratio",
    "search.quad_candidates": "count",
    "arith.as_s_unit_calls": "count",
    "arith.as_s_unit_ms": "ms",
    "arith.prime_pair_ms": "ms",
    "search.oracle_ms": "ms",
    "search.lemma_ms": "ms",
    "campaign.worker_busy_s": "s",
    "campaign.worker_util": "ratio",
    "campaign.dispatch_wait_s": "s",
    "campaign.records_written": "count",
    "campaign.checkpoint_bytes": "bytes",
    "campaign.load_checkpoint_ms": "ms",
    "campaign.records_resumed": "count",
    "bench.trace_overhead_s": "s",
}


# -- measuring ------------------------------------------------------------------

def _measure(fn, state, gates, workdir: Path, seconds: float) -> list:
    """Repeat batches until `seconds` have passed; the first always completes."""
    batches = []
    deadline = time.perf_counter() + seconds
    while True:
        try:
            batches.append(fn(state, gates, workdir, deadline if batches else None))
        except Exception as exc:  # the program failed: count it and stop
            gates.check(False, f"batch raised {type(exc).__name__}: {exc}")
            break
        if time.perf_counter() >= deadline:
            break
    return batches


def _median_wall(batches) -> float:
    return statistics.median(b.wall_s for b in batches if b.complete)


def _quantile(values: list[float], k: int) -> float:
    # k-th decile, interpolated; a single sample is its own quantile.
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def _setup_seconds(workload: str, seed: int, scale: str) -> float:
    """Median wall time of setting the workload up in a fresh interpreter:
    start-up, importing sqsearch, loading the reference, seeding inputs."""
    code = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
            "workloads.setup({w!r}, {s}, {scale!r})").format(
                src=str(SRC), bench=str(BENCH_DIR), w=workload, s=seed, scale=scale)
    times = []
    for _ in range(SETUP_REPEATS[scale]):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  Children is the largest reaped child's
    # peak; the only children before this call are sweep-2q's pool workers,
    # so it is read before the set-up interpreters start.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def end_to_end_metrics(batches) -> dict[str, float]:
    pair_ms = [ms for b in batches for ms in b.pair_ms]
    return {
        "wall_s": _median_wall(batches),
        "pairs_per_s": sum(b.pairs for b in batches) / sum(b.wall_s for b in batches),
        "pair_ms_p50": _quantile(pair_ms, 5),
        "pair_ms_p90": _quantile(pair_ms, 9),
    }


def per_layer_metrics(tracer, traced, untraced) -> dict[str, float]:
    """Per-layer numbers from the traced batches.  Times and counts are per
    pair processed; campaign.* are per batch (one sweep, or one
    kill-and-resume), load_checkpoint_ms per call."""
    n = max(1, sum(b.pairs for b in traced))
    total, calls, counts = tracer.total, tracer.calls, tracer.counts

    def ms(name):
        return total[name] * 1000 / n

    sweeps = [b for b in traced if b.records_written]
    nb = max(1, len(sweeps))
    busy = sum(b.busy_s for b in sweeps)
    slots = sum(b.wall_s * b.workers for b in sweeps)
    loads = calls["campaign.load_checkpoint"]
    pair_total = total["search.search_pair"]
    return {
        "reduce.initial_bound_ms": ms("reduce.initial_bound"),
        "reduce.initial_bound_share": total["reduce.initial_bound"] / pair_total if pair_total else 0.0,
        "diolog.log_of_fraction_calls": calls["diolog.log_of_fraction"] / n,
        "diolog.certified_log_calls": calls["diolog.certified_log"] / n,
        "reduce.reduce_once_ms": ms("reduce.reduce_once"),
        "reduce.steps": counts["reduce.steps"] / n,
        "diolog.linear_form_gap_ms": ms("diolog.linear_form_gap"),
        "diolog.linear_form_gap_calls": calls["diolog.linear_form_gap"] / n,
        "diolog.precision_bits_max": tracer.maxes.get("diolog.precision_bits_max", 0),
        "diolog.convergents_checked": counts["diolog.convergents_checked"] / n,
        "reduce.exponent_box_ms": ms("reduce.exponent_box"),
        "reduce.box_volume": counts["reduce.box_volume"] / n,
        "search.scan_ms": (pair_total - total["reduce.reduce_full"]
                           - total["reduce.exponent_box"]) * 1000 / n,
        "search.candidate_pairs": counts["search.candidate_pairs"] / n,
        "search.triple_candidates": counts["search.triple_candidates"] / n,
        "search.triples": counts["search.triples"] / n,
        "search.triple_yield": (counts["search.triples"] / counts["search.triple_candidates"]
                                if counts["search.triple_candidates"] else 0.0),
        "search.quad_candidates": counts["search.quad_candidates"] / n,
        "arith.as_s_unit_calls": calls["arith.as_s_unit"] / n,
        "arith.as_s_unit_ms": ms("arith.as_s_unit"),
        "arith.prime_pair_ms": ms("arith.prime_pair"),
        "search.oracle_ms": ms("search.brute_force_oracle"),
        "search.lemma_ms": ms("search.lemma_predicates"),
        "campaign.worker_busy_s": busy / nb,
        "campaign.worker_util": busy / slots if slots else 0.0,
        "campaign.dispatch_wait_s": (slots - busy) / nb,
        "campaign.records_written": sum(b.records_written for b in sweeps) / nb,
        "campaign.checkpoint_bytes": sum(b.checkpoint_bytes for b in sweeps) / nb,
        "campaign.load_checkpoint_ms": (total["campaign.load_checkpoint"] * 1000 / loads
                                        if loads else 0.0),
        "campaign.records_resumed": sum(b.records_resumed for b in sweeps) / nb,
        "bench.trace_overhead_s": _median_wall(traced) - _median_wall(untraced),
    }


# -- metadata -------------------------------------------------------------------

def _commit() -> str:
    # Read from .git directly: a `git` child process would count in the
    # children's share of peak_rss_mb.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def _src_lines() -> dict[str, int]:
    physical = code = 0
    for path in sorted(SRC.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            physical += 1
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                code += 1
    return {"src_lines": physical, "src_code_lines": code}


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from workloads import nproc
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": _commit(), "python": platform.python_version(),
            "nproc": nproc(), **_src_lines()}


# -- one run --------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: int, scale: str = "full"):
    """Set up, measure and check one workload.  Returns the result line's
    object, the batches, the gates and (traced runs only) the self-time rows."""
    import workloads
    from tracer import Tracer

    fn = workloads.WORKLOADS[workload]
    state = workloads.setup(workload, seed, scale)
    rows = []
    gates = workloads.Gates()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        if not trace:
            batches = _measure(fn, state, gates, workdir, seconds)
            metrics = end_to_end_metrics(batches) if batches else {}
            metrics["peak_rss_mb"] = _peak_rss_mb()
            metrics["setup_s"] = _setup_seconds(workload, seed, scale)
            units = END_TO_END_UNITS
        else:
            untraced = _measure(fn, state, gates, workdir, seconds / 2)
            tracer = Tracer(workdir)
            tracer.install()
            try:
                traced = _measure(fn, state, gates, workdir, seconds / 2)
            finally:
                tracer.uninstall()
            tracer.collect()
            tracer.write_spans(WORK_ROOT / f"spans-{workload}-seed{seed}.jsonl")
            batches = untraced + traced
            metrics = per_layer_metrics(tracer, traced, untraced) if traced and untraced else {}
            units = PER_LAYER_UNITS
            rows = tracer.self_time_rows(max(1, sum(b.pairs for b in traced)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": gates.failed == 0 and set(metrics) == set(units),
        "attempted": max(1, gates.attempted),
        "failed": gates.failed if gates.attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    return result, batches, gates, rows


def _print_report(workload, seed, result, batches, gates, rows) -> None:
    complete = sum(1 for b in batches if b.complete)
    pairs = sum(b.pairs for b in batches)
    samples = sum(len(b.pair_ms) for b in batches)
    print(f"{workload} seed {seed}: {len(batches)} batches ({complete} complete), "
          f"{pairs} pairs, {samples} latency samples, "
          f"{sum(b.wall_s for b in batches):.2f} s measured")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':32s} {rate:14.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} checked)")
    if rows:
        print(f"  {'traced span, per pair':32s} {'calls':>10s} {'incl ms':>10s} {'self ms':>10s}")
        for name, calls, incl, own in rows:
            print(f"  {name:32s} {calls:10.4g} {incl:10.4g} {own:10.4g}")
    for message in gates.messages:
        print(f"  FAILED: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqsearch" / "__init__.py").is_file():
        print(f"error: no sqsearch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    print(json.dumps({"meta": metadata(args.workload, args.seed, args.seconds, args.trace)}))
    result, batches, gates, rows = run(args.workload, args.seed, args.seconds, args.trace)
    _print_report(args.workload, args.seed, result, batches, gates, rows)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

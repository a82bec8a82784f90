"""Batch campaigns: the prime sieve, sweeps on forked workers with resume,
and the command-line interface.

`sqsearch.checkpoint` owns the checkpoint file; a forced restart skips the
resume and empties the file through its append handle.

A sweep at workers = N splits the pairs left into n = min(N, pairs left)
fixed strides.  The sweep's own process runs the first and alone writes the
checkpoint; it forks n - 1 workers (the `fork` start method, pinned, not the
platform default) for the others, each streaming its records over a pipe of
its own.  Workers share nothing, so a dead worker is a pipe that ended
early: its current pair gets an error record, and the sweep finishes the
rest.  A signal that kills the sweep's own process ends the sweep, at any N;
a resume continues from the last record written.

Exit codes: 0 completed with nothing notable, 2 completed and at least one
quadruple found (which would contradict the two-prime conjecture) or one
tuple flagged by a lemma predicate, 1 runtime error or, for sweep and report,
at least one error record and nothing notable, 3 invalid arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .arith import PrimePair, is_prime
from .checkpoint import (Appender, CheckpointError, dec15, error_record, iter_records,
                         record_from_report, summarize)
from .search import (
    MAX_ORACLE_HEIGHT,
    PairReport,
    brute_force_oracle,
    lemma_predicates,
    search_pair,
)

__all__ = [
    "SweepSpec",
    "SweepSummary",
    "primes_in_range",
    "load_checkpoint",
    "sweep",
    "main",
    "entry",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOTABLE = 2
EXIT_USAGE = 3


# -- primes -------------------------------------------------------------------

def primes_in_range(lo: int, hi: int, segment: int = 1 << 20) -> list[int]:
    """Primes in [lo, hi] by a segmented sieve; hi can be large without
    memory pressure.  The sieving primes up to sqrt(hi) come from the same
    function, one level down."""
    if hi < 2 or hi < lo:
        return []
    lo = max(lo, 2)
    base = primes_in_range(2, math.isqrt(hi), segment)
    out: list[int] = []
    for start in range(lo, hi + 1, segment):
        end = min(start + segment - 1, hi)
        marks = bytearray([1]) * (end - start + 1)
        for p in base:
            first = max(p * p, ((start + p - 1) // p) * p)
            if first <= end:
                marks[first - start::p] = bytearray(len(range(first, end + 1, p)))
        out.extend(start + i for i, ok in enumerate(marks) if ok)
    return out


# -- checkpoint ---------------------------------------------------------------

def load_checkpoint(path: Path) -> dict[tuple[int, int], dict]:
    """The records of a checkpoint by pair, the last one of a pair winning
    (see checkpoint.iter_records)."""
    return {(rec["p"], rec["q"]): rec for rec in iter_records(path)}


# -- sweep --------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    mode: str = "fixed-p"                 # or "all-pairs"
    p_fixed: int | None = 2
    q_min: int = 3
    q_max: int = 100
    workers: int = 1
    checkpoint_path: Path | None = None
    max_pairs: int | None = None

    def __post_init__(self):
        # Either would run short of the pair list without an error: a sweep
        # capped before its last pair, or a silently serial run.
        for name, n in (("max_pairs (--max)", self.max_pairs),
                        ("workers (--workers)", self.workers)):
            if n is not None and n < 1:
                raise ValueError(f"{name} must be at least 1, got {n}")


@dataclass
class SweepSummary:
    pairs_total: int = 0
    pairs_skipped: int = 0
    pairs_processed: int = 0
    quadruples_found: int = 0
    errors: int = 0                       # pairs that ended in an error record
    notable: list[tuple[int, int]] = field(default_factory=list)  # quadruples or flags
    wall_ms: int = 0

    @property
    def violations(self) -> int:
        # Former name of `errors`, still read by bench/make_reference.py.
        return self.errors


def _pair_list(spec: SweepSpec) -> list[tuple[int, int]]:
    if spec.mode == "fixed-p":
        if spec.p_fixed is None or not is_prime(spec.p_fixed):
            raise ValueError("fixed-p mode needs a prime --p")
        qs = primes_in_range(spec.q_min, spec.q_max)
        pairs = [(spec.p_fixed, q) for q in qs if q != spec.p_fixed]
    elif spec.mode == "all-pairs":
        ps = primes_in_range(max(3, spec.q_min), spec.q_max)
        pairs = [(ps[i], ps[j]) for i in range(len(ps)) for j in range(i + 1, len(ps))]
    else:
        raise ValueError(f"unknown sweep mode {spec.mode!r}")
    if spec.max_pairs is not None:
        pairs = pairs[: spec.max_pairs]
    return pairs


def _run_pair(task: tuple[int, int]) -> dict:
    p, q = task
    try:
        return record_from_report(search_pair(PrimePair.of(p, q)))
    except Exception as exc:  # worker failures isolate to their pair
        return error_record(p, q, f"{type(exc).__name__}: {exc}")


def _run_stride(tasks: list[tuple[int, int]], conn) -> None:
    # A forked worker's whole life: one record per pair, in stride order.
    for task in tasks:
        conn.send(_run_pair(task))
    conn.close()


def _run_strides(pending: list[tuple[int, int]], workers: int, consume) -> None:
    """Run pending as n = min(workers, len(pending)) fixed strides, stride k
    being pending[k::n], and hand every record to consume.  This process
    runs stride 0 and, after each of its pairs, reads every record that is
    ready; strides 1 .. n - 1 run on forked workers, each sending its
    records over a pipe of its own.  A worker whose pipe ends before its
    stride does has died: the pair it was on gets an error record naming
    the exit code, and one fresh worker takes the rest of its stride.  Each
    replacement's stride is shorter, so the loop ends; at most n - 1
    workers are ever alive, and none outlives the call.  At n = 1, and with
    nothing pending, nothing is forked or imported."""
    n = min(workers, len(pending)) or 1
    running = {}  # reader -> [process, stride, records read]
    if n > 1:
        # Imported here: only a sweep with a second stride forks, and the
        # import adds about 1 MB to the resident size of every other command.
        import multiprocessing
        from multiprocessing.connection import wait
        ctx = multiprocessing.get_context("fork")

    def start(stride: list[tuple[int, int]]) -> None:
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_run_stride, args=(stride, writer), daemon=True)
        proc.start()
        # Only the child may hold the write end, or its death is no EOF.
        writer.close()
        running[reader] = [proc, stride, 0]

    def read(reader) -> None:
        proc, stride, done = running[reader]
        try:
            rec = reader.recv()
        except (EOFError, OSError):  # OSError: it died mid-message
            del running[reader]
            reader.close()
            proc.join()
            if done < len(stride):
                p, q = stride[done]
                consume(error_record(p, q, f"worker exited with code {proc.exitcode}"))
                if done + 1 < len(stride):
                    start(stride[done + 1:])
            return
        running[reader][2] = done + 1
        consume(rec)

    try:
        for k in range(1, n):
            start(pending[k::n])
        for task in pending[::n]:
            consume(_run_pair(task))
            while running and (ready := wait(list(running), timeout=0)):
                for reader in ready:
                    read(reader)
        while running:
            for reader in wait(list(running)):
                read(reader)
    finally:
        for proc, *_ in running.values():
            proc.terminate()
            proc.join()


def sweep(spec: SweepSpec, force_restart: bool = False) -> SweepSummary:
    """Run the pair list, append one checkpoint record per completion, and
    resume past already-checkpointed pairs.  The pairs left run as
    min(workers, pairs left) fixed strides, the first in this process and
    each other on a forked worker (see _run_strides); a worker that dies
    costs an error record for the pair it was on, while one fresh worker
    runs the rest of its stride.  The summary counts only records of this
    sweep's own pairs.  A range with no pair raises ValueError before the
    checkpoint is touched."""
    t0 = time.perf_counter()
    pairs = _pair_list(spec)
    if not pairs:
        # A sweep of nothing would certify nothing and still succeed.
        raise ValueError(f"no prime pair for q_min (--q-min) {spec.q_min} "
                         f"and q_max (--q-max) {spec.q_max}")
    summary = SweepSummary(pairs_total=len(pairs))

    def tally(rec: dict) -> None:
        if rec.get("status") == "error":
            summary.errors += 1
        summary.quadruples_found += len(rec.get("quadruples", []))
        if rec.get("quadruples") or rec.get("flags"):
            summary.notable.append((rec["p"], rec["q"]))

    done: dict[tuple[int, int], dict] = {}
    ckpt = None
    if spec.checkpoint_path is not None:
        path = Path(spec.checkpoint_path)
        if not force_restart:
            done = load_checkpoint(path)
        ckpt = Appender(path, restart=force_restart)

    pending = []
    for pq in pairs:
        if pq in done:
            tally(done[pq])
        else:
            pending.append(pq)
    summary.pairs_skipped = len(pairs) - len(pending)

    def consume(rec: dict) -> None:
        summary.pairs_processed += 1
        tally(rec)
        if ckpt is not None:
            ckpt.append(rec)

    try:
        _run_strides(pending, spec.workers, consume)
    finally:
        if ckpt is not None:
            ckpt.close()

    summary.wall_ms = int((time.perf_counter() - t0) * 1000)
    return summary


# -- CLI ----------------------------------------------------------------------

class _UsageError(Exception):
    """Invalid input found after argument parsing; main exits with EXIT_USAGE."""


def _print_report(report: PairReport) -> None:
    pair = report.pair
    print(f"pair ({pair.p}, {pair.q})")
    print(f"  initial bound on log d : {dec15(report.trace.B0)}")
    for i, s in enumerate(report.trace.steps, start=1):
        print(f"  step {i}: log d < {dec15(s.B2)}   (delta = {dec15(s.delta)})")
    print(f"  final bound            : {dec15(report.trace.final_bound)}")
    box = report.box
    print(f"  exponent caps          : a1,a2 <= {box.a12_cap}; b1,b2 <= {box.b12_cap}; "
          f"a3..a6 <= {box.a_cap}; b3..b6 <= {box.b_cap}")
    print(f"  candidate pairs        : {report.pair_count}")
    print(f"  triple candidates      : {report.triple_candidates}")
    print(f"  triples                : {len(report.triples)}")
    for t in report.triples:
        print(f"    ({t.a}, {t.b}, {t.c})")
    print(f"  quadruple candidates   : {report.quad_candidates}")
    print(f"  {len(report.quadruples)} quadruples")
    for w in report.quadruples:
        print(f"    NOTABLE: ({w.a}, {w.b}, {w.c}, {w.d})")
    for f in report.flags:
        print(f"  NOTABLE lemma flag     : {f}")


def _report_json(report: PairReport) -> dict:
    rec = record_from_report(report)
    rec["initial_bound"] = dec15(report.trace.B0)
    rec["steps"] = [
        {"B_in": dec15(s.B_in), "B1": dec15(s.B1), "B2": dec15(s.B2),
         "delta": dec15(s.delta),
         "delta_exact": f"{s.delta.numerator}/{s.delta.denominator}"}
        for s in report.trace.steps
    ]
    rec["box"] = dataclasses.asdict(report.box)
    return rec


def _pair_arg(p: int, q: int) -> PrimePair:
    try:
        return PrimePair.of(p, q)
    except ValueError as exc:  # equal, not prime, or beyond the primality range
        raise _UsageError(str(exc)) from exc


def _check_oracle_height(n: int, flag: str) -> None:
    if not 2 <= n <= MAX_ORACLE_HEIGHT:
        raise _UsageError(f"{flag} must be between 2 and {MAX_ORACLE_HEIGHT}, got {n}")


def _cmd_pair(args) -> int:
    pair = _pair_arg(args.p, args.q)
    t0 = time.perf_counter()
    report = search_pair(pair)
    ms = int((time.perf_counter() - t0) * 1000)
    _print_report(report)
    print(f"  wall time              : {ms} ms")
    if args.json:
        Path(args.json).write_text(json.dumps(_report_json(report), indent=2) + "\n",
                                   encoding="utf-8")
    return EXIT_NOTABLE if report.notable else EXIT_OK


def _exit_code(notable: bool, errors: int) -> int:
    # Quadruples and lemma flags outrank errors; errors never count as success.
    if notable:
        return EXIT_NOTABLE
    return EXIT_ERROR if errors else EXIT_OK


def _cmd_sweep(args) -> int:
    if args.all_pairs and args.p is not None:  # or the sweep would run other pairs
        raise _UsageError("--p does not apply to --all-pairs")
    try:  # a --p that is not prime fails in _pair_list, before the checkpoint
        spec = SweepSpec(
            mode="all-pairs" if args.all_pairs else "fixed-p",
            p_fixed=2 if args.p is None else args.p,
            q_min=args.q_min, q_max=args.q_max,
            workers=args.workers,
            checkpoint_path=Path(args.checkpoint) if args.checkpoint else None,
            max_pairs=args.max,
        )
        summary = sweep(spec, force_restart=args.force_restart)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    print(f"pairs total      : {summary.pairs_total}")
    print(f"pairs resumed    : {summary.pairs_skipped}")
    print(f"pairs processed  : {summary.pairs_processed}")
    print(f"quadruples found : {summary.quadruples_found}")
    print(f"errors           : {summary.errors}")
    print(f"wall time        : {summary.wall_ms} ms")
    for (p, q) in summary.notable:
        print(f"NOTABLE pair ({p}, {q})")
    return _exit_code(bool(summary.notable), summary.errors)


def _cmd_oracle(args) -> int:
    pair = _pair_arg(args.p, args.q)
    _check_oracle_height(args.max, "--max")
    tuples = brute_force_oracle(pair, args.max, args.arity)
    for t in tuples:
        print("(" + ", ".join(str(x) for x in t) + ")")
    print(f"{len(tuples)} tuples of arity {args.arity} up to {args.max}")
    return EXIT_NOTABLE if args.arity == 4 and tuples else EXIT_OK


def _cmd_verify_lemmas(args) -> int:
    _check_oracle_height(args.height, "--height")
    primes = primes_in_range(2, args.p_max)
    if len(primes) < 2:
        raise _UsageError(f"--p-max {args.p_max} leaves fewer than two primes, so no pair")
    total = 0
    violations: list[str] = []
    quadruple_found = False
    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            pair = PrimePair.of(primes[i], primes[j])
            triples = brute_force_oracle(pair, args.height, 3)
            quads = brute_force_oracle(pair, args.height, 4)
            quadruple_found = quadruple_found or bool(quads)
            found = lemma_predicates(pair, triples + quads)
            for v in found:
                violations.append(f"({primes[i]},{primes[j]}) {v}")
            total += len(triples) + len(quads)
    print(f"checked {total} tuples over {len(primes)} primes up to {args.p_max}")
    print(f"{len(violations)} violations")
    for v in violations:
        print("  " + v)
    if quadruple_found or violations:
        return EXIT_NOTABLE
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.checkpoint)
    if not path.exists():
        raise _UsageError(f"no checkpoint file at {path}")
    records = load_checkpoint(path)
    agg = summarize(records.values())
    print(f"{'p':>10} {'q':>10} {'status':>7} {'triples':>8} {'quads':>6}")
    for (p, q) in sorted(records):
        r = records[(p, q)]
        print(f"{p:>10} {q:>10} {r['status']:>7} "
              f"{len(r.get('triples', [])):>8} {len(r.get('quadruples', [])):>6}")
    for p, q, what in agg["quadruples"] + agg["flagged"]:  # a quadruple as `pair` prints it
        print(f"NOTABLE pair ({p}, {q}): {what if isinstance(what, str) else tuple(what)}")
    print(json.dumps(agg, sort_keys=True))
    return _exit_code(bool(agg["quadruples"] or agg["flagged"]), agg["error"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqsearch", description="Search for S-Diophantine quadruples over {p, q}")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("pair", help="run the full pipeline for one prime pair")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--json", type=str, default=None,
                    help="also write the report as JSON to this path")
    sp.set_defaults(func=_cmd_pair)

    sp = sub.add_parser("sweep", help="sweep a range of prime pairs")
    sp.add_argument("--p", type=int, default=None, help="the fixed prime (default 2)")
    sp.add_argument("--q-min", type=int, required=True)
    sp.add_argument("--q-max", type=int, required=True)
    sp.add_argument("--all-pairs", action="store_true",
                    help="all odd prime pairs p < q in [q-min, q-max]")
    sp.add_argument("--max", type=int, default=None,
                    help="process at most this many pairs")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--checkpoint", type=str, default=None)
    sp.add_argument("--force-restart", action="store_true",
                    help="discard an existing checkpoint")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("oracle", help="brute-force tuple enumeration by value")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--arity", type=int, choices=(2, 3, 4), required=True)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("verify-lemmas",
                        help="check the structural lemmas on oracle output")
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--height", type=int, required=True)
    sp.set_defaults(func=_cmd_verify_lemmas)

    sp = sub.add_parser("report", help="summarize a checkpoint file")
    sp.add_argument("--checkpoint", type=str, required=True)
    sp.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

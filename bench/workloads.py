"""The benchmark's workloads, their seeded inputs and their correctness gates.

Each workload repeats a batch of user-level work (one sweep, one pass of
`search_pair` calls, one kill-and-resume, one pass of oracle cross-checks)
with fresh seeded inputs.  Every outcome is checked against
`reference.json`, which was built once from the seed code by
`make_reference.py`; README.md says why each workload exists.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from sqsearch import arith, campaign, search

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

GROUND_TRUTH_23 = [[1, 3, 5], [1, 5, 7], [1, 7, 23], [1, 15, 17], [1, 31, 47]]

# Batch sizes.  "tiny" is the smoke test's scale.
SCALES = {
    "full": {"sweep_window": 24, "small_pass": 100, "resume_primes": 7, "lemma_pass": 30},
    "tiny": {"sweep_window": 3, "small_pass": 3, "resume_primes": 4, "lemma_pass": 2},
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Gates:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class Batch:
    """One batch of user-level work and what it measured."""

    wall_s: float
    pairs: int
    # Latency samples.  A pass of single-pair calls times each call; a sweep
    # gives one sample, its core-milliseconds per pair (wall x workers / pairs).
    pair_ms: list[float]
    complete: bool = True
    workers: int = 1
    busy_s: float = 0.0              # sum of the records' own `ms`
    records_written: int = 0
    checkpoint_bytes: int = 0
    records_resumed: int = 0


@dataclass
class State:
    rng: random.Random
    scale: dict
    reference: dict
    population: list    # what batches draw their seeded inputs from


def _pair_list(lo: int, hi: int) -> list[tuple[int, int]]:
    ps = campaign.primes_in_range(lo, hi)
    return [(p, q) for i, p in enumerate(ps) for q in ps[i + 1:]]


def _population(name: str) -> list:
    if name == "sweep-2q":
        return campaign.primes_in_range(3, 9999)
    if name == "pairs-small":
        return [pq for pq in _pair_list(2, 100) if pq != (2, 3)]
    if name == "resume-odd":
        return campaign.primes_in_range(3, 299)
    if name == "lemmas":
        return [pq for pq in _pair_list(2, 50) if pq != (3, 5)]
    raise ValueError(f"unknown workload {name!r}")


def setup(name: str, seed: int, scale: str = "full") -> State:
    """Load the reference and build the seeded input population."""
    return State(rng=random.Random(seed), scale=SCALES[scale],
                 reference=json.loads(REFERENCE_PATH.read_text(encoding="utf-8")),
                 population=_population(name))


# -- checkpoint records ---------------------------------------------------------

def _read_records(path: Path, gates: Gates) -> list[dict]:
    # Parsed here rather than with campaign.load_checkpoint, so the check is
    # independent of the reader it checks and stays out of the traced counts.
    raw = path.read_bytes()
    gates.check(raw.endswith(b"\n"), f"{path.name}: last record not terminated")
    records = []
    for i, line in enumerate(raw.splitlines()):
        try:
            records.append(json.loads(line))
        except ValueError:
            gates.check(False, f"{path.name}: line {i + 1} is not a JSON record")
    return records


def _check_records(records: list[dict], expected: list[tuple[int, int]],
                   reference: dict, gates: Gates) -> None:
    keys = [(r.get("p"), r.get("q")) for r in records]
    gates.check(Counter(keys) == Counter(expected),
                f"checkpoint holds {len(keys)} records, expected {len(expected)} distinct pairs")
    for rec in records:
        key = f"{rec.get('p')},{rec.get('q')}"
        ref = reference["pairs"].get(key)
        gates.check(ref is not None and rec.get("status") == "done"
                    and rec.get("triples") == ref[0] and rec.get("quadruples") == ref[1],
                    f"record {key} differs from the reference: {rec}")


def _sweep_batch(spec: campaign.SweepSpec, expected, state: State, gates: Gates) -> Batch:
    path = Path(spec.checkpoint_path)
    t0 = time.perf_counter()
    campaign.sweep(spec)
    wall = time.perf_counter() - t0
    records = _read_records(path, gates)
    _check_records(records, expected, state.reference, gates)
    return Batch(wall_s=wall, pairs=len(records),
                 pair_ms=[wall * spec.workers * 1000 / len(expected)], workers=spec.workers,
                 busy_s=sum(r.get("ms", 0) for r in records) / 1000,
                 records_written=len(records), checkpoint_bytes=path.stat().st_size)


# -- workloads ------------------------------------------------------------------

def sweep_2q(state: State, gates: Gates, workdir: Path, deadline: float | None) -> Batch:
    """One {2, q} sweep over a seeded window of consecutive primes q < 10^4,
    all cores, fresh checkpoint."""
    width = state.scale["sweep_window"]
    qs = state.population
    i = state.rng.randrange(len(qs) - width + 1)
    window = qs[i:i + width]
    path = workdir / f"sweep-{time.perf_counter_ns()}.jsonl"
    spec = campaign.SweepSpec(mode="fixed-p", p_fixed=2, q_min=window[0], q_max=window[-1],
                              workers=nproc(), checkpoint_path=path)
    batch = _sweep_batch(spec, [(2, q) for q in window], state, gates)
    path.unlink()
    return batch


def resume_odd(state: State, gates: Gates, workdir: Path, deadline: float | None) -> Batch:
    """Kill-and-resume of an all-pairs sweep over a seeded window of
    consecutive odd primes below 300, one worker.  The first leg is capped,
    a torn partial record is appended as a kill mid-write would leave it, and
    the second leg repairs the file and finishes."""
    k = state.scale["resume_primes"]
    ps = state.population
    i = state.rng.randrange(len(ps) - k + 1)
    window = ps[i:i + k]
    expected = [(p, q) for j, p in enumerate(window) for q in window[j + 1:]]
    cap = len(expected) // 2
    path = workdir / f"resume-{time.perf_counter_ns()}.jsonl"
    spec = campaign.SweepSpec(mode="all-pairs", q_min=window[0], q_max=window[-1],
                              workers=1, checkpoint_path=path)
    capped = dataclasses.replace(spec, max_pairs=cap)
    torn_p, torn_q = expected[cap]

    t0 = time.perf_counter()
    campaign.sweep(capped)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f'{{"p": {torn_p}, "q": {torn_q}, "status": "do')
    resumed = campaign.sweep(spec)
    wall = time.perf_counter() - t0

    gates.check(resumed.pairs_skipped == cap,
                f"resume skipped {resumed.pairs_skipped} pairs, expected {cap}")
    gates.check(resumed.pairs_processed == len(expected) - cap,
                f"resume processed {resumed.pairs_processed}, expected {len(expected) - cap}")
    records = _read_records(path, gates)
    _check_records(records, expected, state.reference, gates)
    batch = Batch(wall_s=wall, pairs=len(records), pair_ms=[wall * 1000 / len(expected)],
                  busy_s=sum(r.get("ms", 0) for r in records) / 1000,
                  records_written=len(records),
                  checkpoint_bytes=path.stat().st_size, records_resumed=resumed.pairs_skipped)
    path.unlink()
    return batch


def _pass(state: State, first: tuple[int, int], size: int) -> list[tuple[int, int]]:
    pairs = state.rng.sample(state.population, size - 1)
    pairs.insert(state.rng.randrange(size), first)
    return pairs


def _timed_pass(pairs, op, gates: Gates, deadline: float | None) -> Batch:
    ms: list[float] = []
    t0 = time.perf_counter()
    for p, q in pairs:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        t = time.perf_counter()
        verify = op(p, q)
        ms.append((time.perf_counter() - t) * 1000)
        verify()  # the checks run outside the timed call
    wall = time.perf_counter() - t0
    return Batch(wall_s=wall, pairs=len(ms), pair_ms=ms, complete=len(ms) == len(pairs))


def pairs_small(state: State, gates: Gates, workdir: Path, deadline: float | None) -> Batch:
    """`search_pair` in sequence, in this process, on {2,3} plus a seeded
    sample of pairs p < q <= 100: the `sqsearch pair` latency."""
    ref = state.reference["pairs"]

    def op(p, q):
        try:
            report = search.search_pair(arith.PrimePair.of(p, q))
        except Exception as exc:  # a failing pair is counted, not fatal
            return lambda: gates.check(False, f"search_pair({p},{q}) raised {exc!r}")

        def verify():
            triples = [[t.a, t.b, t.c] for t in report.triples]
            quads = [[w.a, w.b, w.c, w.d] for w in report.quadruples]
            gates.check([triples, quads] == ref[f"{p},{q}"],
                        f"search_pair({p},{q}) differs from the reference")
            if (p, q) == (2, 3):
                gates.check(triples == GROUND_TRUTH_23 and quads == [],
                            f"{{2,3}} yields {triples} and {quads}")
        return verify

    return _timed_pass(_pass(state, (2, 3), state.scale["small_pass"]), op, gates, deadline)


def lemmas(state: State, gates: Gates, workdir: Path, deadline: float | None) -> Batch:
    """Brute-force oracle at arity 3 and 4 plus the lemma predicates on
    {3,5} and a seeded sample of pairs p < q <= 50 (the verify-lemmas path)."""
    ref = state.reference["oracle"]
    height = state.reference["oracle_height"]

    def op(p, q):
        try:
            pair = arith.PrimePair.of(p, q)
            o3 = search.brute_force_oracle(pair, height, 3)
            o4 = search.brute_force_oracle(pair, height, 4)
            violations = search.lemma_predicates(pair, o3 + o4)
        except Exception as exc:  # a failing pair is counted, not fatal
            return lambda: gates.check(False, f"oracle({p},{q}) raised {exc!r}")

        def verify():
            gates.check([[list(t) for t in o3], [list(t) for t in o4]] == ref[f"{p},{q}"],
                        f"oracle({p},{q}) differs from the reference")
            gates.check(violations == [], f"lemma violations for ({p},{q}): {violations}")
            if (p, q) == (3, 5):
                gates.check((1, 2, 4) in o3, "(1,2,4) missing for {3,5}")
        return verify

    return _timed_pass(_pass(state, (3, 5), state.scale["lemma_pass"]), op, gates, deadline)


WORKLOADS = {
    "sweep-2q": sweep_2q,
    "pairs-small": pairs_small,
    "resume-odd": resume_odd,
    "lemmas": lemmas,
}

"""Spans and counts for the traced benchmark run.

The tracer wraps public sqsearch functions at the module globals through
which the pipeline looks them up (for example `initial_bound` as `reduce_full`
sees it, or `search_pair` as a sweep worker sees it), so no program file
changes.  Each wrapped call is a span with a name, start, end, parent and the
prime pair it belongs to; self time is the span's duration minus the time its
traced children cover.  Counts come from the wrapped functions' public return
values (ReductionTrace, GapCertificate, ExponentBox, PairReport).

Hot leaf functions (`as_s_unit`, `certified_log`, `log_of_fraction`, about
250k calls per oracle pair) are aggregated in place instead of being stored
one span each, which would not fit in memory.

Sweep workers are forked from the benchmark process and inherit the wrappers.
A worker holds its spans in memory for one pair and appends them to a file of
its own when the pair's outermost span closes, because pool workers are
terminated without running exit hooks; the parent merges those files after
the sweep returns.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

from sqsearch import arith, campaign, reduce, search

# (module, attribute, span name, keep one span per call)
_SPAN_SITES = (
    (reduce, "initial_bound", "reduce.initial_bound", True),
    (reduce, "reduce_once", "reduce.reduce_once", True),
    (reduce, "linear_form_gap", "diolog.linear_form_gap", True),
    (reduce, "log_of_fraction", "diolog.log_of_fraction", False),
    (reduce, "certified_log", "diolog.certified_log", False),
    (search, "reduce_full", "reduce.reduce_full", True),
    (search, "exponent_box", "reduce.exponent_box", True),
    (search, "as_s_unit", "arith.as_s_unit", False),
    (campaign, "search_pair", "search.search_pair", True),
    (campaign, "load_checkpoint", "campaign.load_checkpoint", True),
    # Call sites of the benchmark itself, which looks these up on the module.
    (search, "search_pair", "search.search_pair", True),
    (search, "brute_force_oracle", "search.brute_force_oracle", True),
    (search, "lemma_predicates", "search.lemma_predicates", True),
)


def _box_volume(box) -> int:
    return (box.a12_cap + 1) * (box.b12_cap + 1) * (box.a_cap + 1) * (box.b_cap + 1)


class Tracer:
    """In-memory span store with online self-time accounting."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self._in_worker = False
        self._patches: list[tuple[object, str, object]] = []
        self.pair: str | None = None
        # Containers are cleared in place, never replaced: wrappers bind them.
        self.spans: list[list] = []         # [name, start, end, parent, pair, pid]
        self._stack: list[list] = []        # [span index, name, start, child seconds]
        self.calls: Counter = Counter()     # name -> calls
        self.total: Counter = Counter()     # name -> inclusive seconds
        self.self_time: Counter = Counter() # name -> self seconds
        self.counts: Counter = Counter()    # counter name -> sum over calls
        self.maxes: dict[str, int] = {}
        self._leaves: dict[str, list] = {}  # name -> [calls, seconds], folded in later
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A freshly forked worker starts empty instead of with the parent's data.
        self._in_worker = True
        self._reset()

    def _reset(self) -> None:
        self.pair = None
        for container in (self.spans, self._stack, self.calls, self.total,
                          self.self_time, self.counts, self.maxes):
            container.clear()
        for acc in self._leaves.values():
            acc[:] = [0, 0.0]

    def _fold_leaves(self) -> None:
        for name, acc in self._leaves.items():
            self.calls[name] += acc[0]
            self.total[name] += acc[1]
            self.self_time[name] += acc[1]
            acc[:] = [0, 0.0]

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.pair, os.getpid()])
        frame = [index, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, name, start, child = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        self.spans[index][1] = start
        self.spans[index][2] = end
        if self._in_worker and not self._stack and name == "search.search_pair":
            self._spill()

    def _record(self, name: str, out) -> None:
        # Counts from the public return values of the wrapped calls.
        if name == "search.search_pair":
            self.counts["search.candidate_pairs"] += out.pair_count
            self.counts["search.triple_candidates"] += out.triple_candidates
            self.counts["search.triples"] += len(out.triples)
            self.counts["search.quad_candidates"] += out.quad_candidates
        elif name == "reduce.reduce_full":
            self.counts["reduce.steps"] += len(out.steps)
            self._max("diolog.precision_bits_max", out.precision_bits)
        elif name == "diolog.linear_form_gap":
            self.counts["diolog.convergents_checked"] += len(out.convergents_checked)
            self._max("diolog.precision_bits_max", out.precision_bits)
        elif name == "reduce.exponent_box":
            self.counts["reduce.box_volume"] += _box_volume(out)

    def _max(self, key: str, value: int) -> None:
        self.maxes[key] = max(self.maxes.get(key, 0), value)

    # -- installation ----------------------------------------------------------

    def _leaf_wrapper(self, fn, name: str):
        # Lean path for functions called ~10^5 times per pair: no span record,
        # and plain list cells instead of Counter updates.
        perf = time.perf_counter
        acc = self._leaves.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                acc[0] += 1
                acc[1] += duration
                if stack:
                    stack[-1][3] += duration

        return traced

    def _wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "search.search_pair":
                pair = args[0]
                tracer.pair = f"{pair.p}-{pair.q}"
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
                tracer._record(name, out)
                return out
            finally:
                tracer._exit(frame)

        return traced

    def install(self) -> None:
        for module, attr, name, keep in _SPAN_SITES:
            fn = getattr(module, attr)
            self._patches.append((module, attr, fn))
            wrapped = self._wrapper(fn, name) if keep else self._leaf_wrapper(fn, name)
            setattr(module, attr, wrapped)
        # PrimePair.of is a classmethod on the class every module shares.
        of = arith.PrimePair.__dict__["of"]
        traced_of = self._wrapper(of.__func__, "arith.prime_pair")

        def of_with_pair(cls, p, q):
            self.pair = f"{p}-{q}"
            return traced_of(cls, p, q)

        self._patches.append((arith.PrimePair, "of", of))
        arith.PrimePair.of = classmethod(of_with_pair)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- workers ---------------------------------------------------------------

    def _spill(self) -> None:
        self._fold_leaves()
        blob = {"spans": self.spans, "calls": self.calls, "total": self.total,
                "self": self.self_time, "counts": self.counts, "maxes": self.maxes}
        with open(self.spill_dir / f"worker-{os.getpid()}.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(blob) + "\n")
        self._reset()

    def collect(self) -> None:
        """Fold the in-place leaf tallies and every spilled worker record
        into this (parent) tracer."""
        self._fold_leaves()
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                blob = json.loads(line)
                offset = len(self.spans)
                for span in blob["spans"]:
                    if span[3] is not None:
                        span[3] += offset
                    self.spans.append(span)
                self.calls.update(blob["calls"])
                self.total.update(blob["total"])
                self.self_time.update(blob["self"])
                self.counts.update(blob["counts"])
                for key, value in blob["maxes"].items():
                    self._max(key, value)
            path.unlink()

    def self_time_rows(self, per: int) -> list[tuple[str, float, float, float]]:
        """(name, calls, inclusive ms, self ms) per `per` units, by self time."""
        rows = [(name, self.calls[name] / per, self.total[name] * 1000 / per,
                 self.self_time[name] * 1000 / per) for name in self.calls]
        return sorted(rows, key=lambda row: -row[3])

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pair, pid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pair": pair, "pid": pid}) + "\n")

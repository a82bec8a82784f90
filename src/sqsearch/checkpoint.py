"""The checkpoint file: one JSON record per pair and line, appended as pairs
complete.  This module alone builds, reads, validates and writes records, so
a sweep's resume and a report cannot read one differently.  A record is a
function of its pair alone, with no timing in it, so sweeps of one range
write the same lines, in an order that depends on the workers.

A record counts only once its newline is written: the bytes after the last
newline are a torn tail, which a reader skips with a warning and the append
handle cuts off.
"""

from __future__ import annotations

import decimal
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .search import PairReport

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "dec15",
    "record_from_report",
    "error_record",
    "iter_records",
    "Appender",
]

SCHEMA_VERSION = 1
_TAIL_BLOCK = 1 << 16  # bytes read per step when Appender looks for the last newline


class CheckpointError(Exception):
    """Unreadable or corrupt checkpoint file."""


def dec15(x: Fraction) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = 15
        return str(decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator))


def record_from_report(report: PairReport) -> dict:
    rec = {
        "v": SCHEMA_VERSION,
        "p": report.pair.p,
        "q": report.pair.q,
        "status": "done",
        "final_bound": dec15(report.trace.final_bound),
        "b1": dec15(report.trace.final_B1),
        "pair_count": report.pair_count,
        "triple_candidates": report.triple_candidates,
        "triples": [[t.a, t.b, t.c] for t in report.triples],
        "quad_candidates": report.quad_candidates,
        "quadruples": [[w.a, w.b, w.c, w.d] for w in report.quadruples],
    }
    if report.flags:
        rec["flags"] = list(report.flags)
    return rec


def error_record(p: int, q: int, message: str) -> dict:
    return {"v": SCHEMA_VERSION, "p": p, "q": q, "status": "error", "error": message}


def _well_formed(rec) -> bool:
    # A record without a known status would count its pair as done; a p or q
    # that is no int, or an ill-typed triples, quadruples or flags, would
    # fail later without naming its line, or fake a quadruple.  A missing
    # optional field reads as empty, and a bool is no int here.  A field no
    # reader reads is not checked.  An error record carries no result: the
    # writer never puts one there.
    def rows(v, n: int) -> bool:
        return type(v) is list and all(
            type(t) is list and len(t) == n and all(type(x) is int for x in t) for t in v)
    if not isinstance(rec, dict) or rec.get("status") not in ("done", "error"):
        return False
    if rec["status"] == "error" and rec.keys() & {"triples", "quadruples", "flags"}:
        return False
    flags = rec.get("flags", [])
    return (type(rec.get("p")) is int and type(rec.get("q")) is int
            and rows(rec.get("triples", []), 3) and rows(rec.get("quadruples", []), 4)
            and type(flags) is list and all(type(f) is str for f in flags))


def iter_records(path: Path) -> Iterator[dict]:
    """Yield the records of a checkpoint one line at a time, without
    modifying it; a missing file has none.  A torn tail is skipped with a
    warning; a corrupt line anywhere else raises CheckpointError naming it."""
    if not path.exists():
        return
    with open(path, "rb") as fh:
        for i, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                if line.strip():
                    print(f"warning: skipping torn trailing line in {path}", file=sys.stderr)
                return
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not _well_formed(rec):
                    raise ValueError("missing or malformed fields")
            except ValueError as exc:
                raise CheckpointError(
                    f"corrupt checkpoint line {i} in {path}; "
                    f"use --force-restart to discard") from exc
            yield rec


class Appender:
    """The one handle that writes a checkpoint.  Binary, as a torn tail can
    end inside a multi-byte sequence; opening cuts the tail that iter_records
    skips, so appends start a fresh line, or with `restart` cuts the whole
    file."""

    def __init__(self, path: Path, restart: bool = False):
        path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(path, "a+b")
        self._fh.truncate(0 if restart else self._last_line_end())

    def _last_line_end(self) -> int:
        # The offset just past the last newline, or 0: blocks read backward
        # from the end, so the cost is the torn tail's, not the file's.
        end = self._fh.seek(0, os.SEEK_END)
        while end > 0:
            start = max(0, end - _TAIL_BLOCK)
            self._fh.seek(start)
            cut = self._fh.read(end - start).rfind(b"\n")
            if cut >= 0:
                return start + cut + 1
            end = start
        return 0

    def append(self, rec: dict) -> None:
        self._fh.write((json.dumps(rec, sort_keys=True) + "\n").encode())
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

"""Build bench/reference.json, the expected outputs the benchmark checks against.

Run once, from the root of the repository, against the code whose outputs are
taken as ground truth:

    python3 bench/make_reference.py

It sweeps every {2, q} pair with q < 10^4 and every odd pair p < q < 300 (the
populations criteria 5 and 6 cover), and runs the brute-force oracle at
height 500 on every pair p < q <= 50.  Only `status`, `triples` and
`quadruples` are kept for sweep records: the reported bounds are left out
because a certified speed-up may move their last digits.

Regenerating the file against changed code would hide the very changes it is
there to catch; it is rebuilt only when the expected results themselves are
meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from sqsearch.arith import PrimePair  # noqa: E402
from sqsearch.campaign import SweepSpec, load_checkpoint, primes_in_range, sweep  # noqa: E402
from sqsearch.search import brute_force_oracle  # noqa: E402

ORACLE_P_MAX = 50
ORACLE_HEIGHT = 500
SWEEPS = {
    "2q": dict(mode="fixed-p", p_fixed=2, q_min=3, q_max=9999),
    "odd": dict(mode="all-pairs", q_min=3, q_max=299),
}


def _sweep_records(spec_kwargs: dict, workers: int) -> dict[str, list]:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        ck = Path(tmp) / "ref.jsonl"
        summary = sweep(SweepSpec(**spec_kwargs, workers=workers, checkpoint_path=ck))
        if summary.violations:
            raise SystemExit(f"reference sweep {spec_kwargs} had {summary.violations} errors")
        records = load_checkpoint(ck)
    return {f"{p},{q}": [rec["triples"], rec["quadruples"]]
            for (p, q), rec in sorted(records.items())}


def main() -> None:
    workers = len(os.sched_getaffinity(0))
    t0 = time.perf_counter()
    pairs: dict[str, list] = {}
    for name, spec_kwargs in SWEEPS.items():
        pairs.update(_sweep_records(spec_kwargs, workers))
        print(f"sweep {name}: {len(pairs)} pairs so far, {time.perf_counter() - t0:.0f} s",
              file=sys.stderr)
    primes = primes_in_range(2, ORACLE_P_MAX)
    oracle: dict[str, list] = {}
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            pair = PrimePair.of(p, q)
            oracle[f"{p},{q}"] = [[list(t) for t in brute_force_oracle(pair, ORACLE_HEIGHT, m)]
                                  for m in (3, 4)]
    print(f"oracle: {len(oracle)} pairs, {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    out = {"oracle_height": ORACLE_HEIGHT, "pairs": pairs, "oracle": oracle}
    text = json.dumps(out, separators=(",", ":"), sort_keys=True)
    (BENCH_DIR / "reference.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

"""Exhaustive enumeration inside the exponent box, plus the independent
brute-force oracle and the lemma predicates, which search_pair applies to
the tuples it finds and verify-lemmas to the oracle's.

The pipeline is: candidate (ab+1, ac+1) pairs -> triples via common divisors
of s1-1 and s2-1 -> quadruple extension through d = (p^a6 q^b6 - 1)/c.  The
oracle enumerates tuple values directly and shares none of that logic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterator

from .arith import PrimePair, SUnit, as_s_unit
from .reduce import ExponentBox, ReductionTrace, exponent_box, reduce_full

__all__ = [
    "Triple",
    "QuadrupleWitness",
    "PairReport",
    "ResourceBudgetError",
    "enumerate_candidate_pairs",
    "triples_from_pair",
    "extend_to_quadruples",
    "search_pair",
    "brute_force_oracle",
    "lemma_predicates",
    "two_smallest_equal",
]


class ResourceBudgetError(Exception):
    """Search space or oracle range exceeds the budget below."""


MAX_BOX_VOLUME = 10 ** 8      # (a12+1)(b12+1)(a+1)(b+1)
MAX_ORACLE_HEIGHT = 200_000


def _verify(tup, members: tuple[int, ...], witnesses, pair: PrimePair) -> None:
    # Strict order of the members, then each x*y+1 over the pairs in
    # combinations order against its witness.
    if not all(x < y for x, y in zip(members, members[1:])):
        raise AssertionError(f"ordering violated: {tup}")
    for (x, y), s in zip(combinations(members, 2), witnesses):
        if as_s_unit(x * y + 1, pair) != s:
            raise AssertionError(f"S-unit witness mismatch on {x}*{y}+1")


@dataclass(frozen=True)
class Triple:
    """S-Diophantine triple a < b < c with its three S-unit witnesses."""

    a: int
    b: int
    c: int
    s1: SUnit  # ab + 1
    s2: SUnit  # ac + 1
    s4: SUnit  # bc + 1

    @property
    def extendable(self) -> bool:
        # Quadruple members obey ab >= 3 and c >= 5; smaller triples are kept
        # in the report but never extended.
        return self.a * self.b >= 3 and self.c >= 5

    def verify(self, pair: PrimePair) -> None:
        """Ordering and S-unit witnesses; the lemmas are lemma_predicates'."""
        _verify(self, (self.a, self.b, self.c), (self.s1, self.s2, self.s4), pair)


def two_smallest_equal(values: tuple[int, int, int, int]) -> bool:
    """True when the two smallest entries of the quadruple coincide."""
    s = sorted(values)
    return s[0] == s[1]


# Indices into (s1..s6) for the three valuation identities: the two
# smallest exponents of each group must coincide.
_VALUATION_GROUPS = ((1, 2, 3, 4), (0, 1, 4, 5), (0, 2, 3, 5))


@dataclass(frozen=True)
class QuadrupleWitness:
    """Quadruple a < b < c < d with all six S-unit witnesses, ordered
    (ab+1, ac+1, ad+1, bc+1, bd+1, cd+1)."""

    a: int
    b: int
    c: int
    d: int
    s: tuple[SUnit, SUnit, SUnit, SUnit, SUnit, SUnit]

    def verify(self, pair: PrimePair) -> None:
        """Ordering and S-unit witnesses; the lemmas are lemma_predicates'."""
        _verify(self, (self.a, self.b, self.c, self.d), self.s, pair)


@dataclass(frozen=True)
class PairReport:
    """Everything search_pair establishes for one prime pair."""

    pair: PrimePair
    trace: ReductionTrace
    box: ExponentBox
    pair_count: int
    triple_candidates: int
    triples: tuple[Triple, ...]
    quad_candidates: int
    quadruples: tuple[QuadrupleWitness, ...]
    wall_ms: int
    flags: tuple[str, ...] = ()       # lemma_predicates on the tuples found

    @property
    def notable(self) -> bool:
        return bool(self.quadruples or self.flags)


def _box_values(pair: PrimePair, a_cap: int, b_cap: int) -> list[SUnit]:
    out = []
    pa = 1
    for a in range(a_cap + 1):
        v = pa
        for b in range(b_cap + 1):
            out.append(SUnit(value=v, alpha=a, beta=b))
            v *= pair.q
        pa *= pair.p
    out.sort(key=lambda s: s.value)
    return out


def enumerate_candidate_pairs(box: ExponentBox, pair: PrimePair) -> Iterator[tuple[SUnit, SUnit]]:
    """All (s1, s2) = (ab+1, ac+1) candidates inside the a12/b12 caps.

    a < b < c alone forces ab >= 2 and ac >= 3, hence s1 >= 3, s2 >= 4 and
    s1 < s2; those are the only value filters applied here, so the triple
    stage stays faithful to every triple the box can represent.
    """
    values = _box_values(pair, box.a12_cap, box.b12_cap)
    for i, s1 in enumerate(values):
        if s1.value < 3:
            continue
        for s2 in values[i + 1:]:
            if s2.value >= 4:
                yield s1, s2


def triples_from_pair(s1: SUnit, s2: SUnit, box: ExponentBox,
                      pair: PrimePair) -> tuple[list[Triple], int]:
    """Triples (a, b, c) recovered from one candidate pair via the common
    divisors of s1-1 and s2-1, with bc+1 checked against the a/b caps.
    Returns the triples and the number of common divisors tried."""
    if not s1.value < s2.value:
        raise ValueError("s1 must be smaller than s2")
    # Common divisors a of s1-1 and s2-1 with a^2 < s1-1 are exactly the
    # admissible smallest elements; b and c divide out exactly.  a divides
    # both exactly when it divides g = gcd(s1-1, s2-1), so the scan runs to
    # min(g, sqrt(s1-1)) and tests g alone: g is often small where s1-1 is
    # not (s1-1 reaches 5.6e7 on {2, 83}).
    v1, v2 = s1.value - 1, s2.value - 1
    g = gcd(v1, v2)
    triples: list[Triple] = []
    candidates = 0
    a = 1
    while a <= g and a * a < v1:
        if g % a == 0:
            b, c = v1 // a, v2 // a
            candidates += 1
            s4 = as_s_unit(b * c + 1, pair)
            if s4 is not None and s4.alpha <= box.a_cap and s4.beta <= box.b_cap:
                triples.append(Triple(a=a, b=b, c=c, s1=s1, s2=s2, s4=s4))
        a += 1
    return triples, candidates


def extend_to_quadruples(t: Triple, box: ExponentBox,
                         pair: PrimePair) -> tuple[list[QuadrupleWitness], int]:
    """Quadruples extending t through d = (p^a6 q^b6 - 1)/c inside the box.
    Returns the quadruples and the number of exponent pairs (a6, b6) for
    which c divides p^a6 q^b6 - 1.  ad+1 and bd+1 need only be S-units: the
    box bounds every genuine quadruple, so one beyond it means a wrong box,
    and it is reported, not dropped."""
    if not t.extendable:
        return [], 0
    found: list[QuadrupleWitness] = []
    candidates = 0
    q_powers = [pair.q ** b for b in range(box.b_cap + 1)]
    pa = 1
    for a6 in range(box.a_cap + 1):
        for b6 in range(box.b_cap + 1):
            n = pa * q_powers[b6] - 1
            if n == 0 or n % t.c != 0:
                continue
            candidates += 1
            d = n // t.c
            if d <= t.c:
                continue
            s3 = as_s_unit(t.a * d + 1, pair)
            if s3 is None:
                continue
            s5 = as_s_unit(t.b * d + 1, pair)
            if s5 is None:
                continue
            s6 = SUnit(value=n + 1, alpha=a6, beta=b6)
            witness = QuadrupleWitness(a=t.a, b=t.b, c=t.c, d=d,
                                       s=(t.s1, t.s2, s3, t.s4, s5, s6))
            witness.verify(pair)
            found.append(witness)
        pa *= pair.p
    return found, candidates


def search_pair(pair: PrimePair) -> PairReport:
    """Full pipeline for one prime pair: reduce, box, enumerate, extend,
    re-verify.  Reported tuples have been re-checked from scratch, and a
    lemma they break is reported in `flags`, not raised."""
    t0 = time.perf_counter()
    trace = reduce_full(pair)
    box = exponent_box(trace)
    volume = ((box.a12_cap + 1) * (box.b12_cap + 1)
              * (box.a_cap + 1) * (box.b_cap + 1))
    if volume > MAX_BOX_VOLUME:
        raise ResourceBudgetError(f"box volume {volume} exceeds budget {MAX_BOX_VOLUME}")

    pair_count = 0
    triple_candidates = 0
    triples: list[Triple] = []
    for s1, s2 in enumerate_candidate_pairs(box, pair):
        pair_count += 1
        found, cand = triples_from_pair(s1, s2, box, pair)
        triple_candidates += cand
        triples.extend(found)
    triples.sort(key=lambda t: (t.a, t.b, t.c))

    quad_candidates = 0
    quadruples: list[QuadrupleWitness] = []
    for t in triples:
        found, cand = extend_to_quadruples(t, box, pair)
        quad_candidates += cand
        quadruples.extend(found)
    quadruples.sort(key=lambda w: (w.a, w.b, w.c, w.d))

    # Independent re-verification pass before anything is reported.
    for t in triples:
        t.verify(pair)
    for w in quadruples:
        w.verify(pair)
    flags = lemma_predicates(pair, [(t.a, t.b, t.c) for t in triples]
                             + [(w.a, w.b, w.c, w.d) for w in quadruples])

    wall_ms = int((time.perf_counter() - t0) * 1000)
    return PairReport(pair=pair, trace=trace, box=box, pair_count=pair_count,
                      triple_candidates=triple_candidates, triples=tuple(triples),
                      quad_candidates=quad_candidates, quadruples=tuple(quadruples),
                      wall_ms=wall_ms, flags=tuple(flags))


def brute_force_oracle(pair: PrimePair, N: int, m: int) -> list[tuple[int, ...]]:
    """Every S-Diophantine m-tuple with entries up to N, by direct value
    enumeration: cliques of the graph on 1..N whose edges a < b have
    a*b + 1 an S-unit.  Shares no enumeration logic with search_pair.
    Consecutive calls for one (pair, N) share a single graph build."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if m not in (2, 3, 4):
        raise ValueError("m must be 2, 3 or 4")
    if N > MAX_ORACLE_HEIGHT:
        raise ResourceBudgetError(f"oracle height {N} exceeds budget")
    return list(_oracle_cliques(pair, N)[m - 2])


@lru_cache(maxsize=1)
def _oracle_cliques(pair: PrimePair, N: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    # Sorted cliques of arity 2, 3 and 4 from one build: callers ask arity 3
    # and then 4 of one (pair, N), and the cached entry holds no graph.
    # Every edge a < b <= N has a*b + 1 <= N(N-1) + 1, so the S-units s up
    # to that bound propose all of them: b = t/a for t = s - 1 in (a^2, aN].
    # The units only prune; as_s_unit still decides each edge.
    top = N * (N - 1) + 1
    units: list[int] = []
    pa = 1
    while pa <= top:
        v = pa
        while v <= top:
            units.append(v - 1)
            v *= pair.q
        pa *= pair.p
    units.sort()
    units.append(N * N + 1)  # sentinel above every window's end aN
    # Larger neighbours of each vertex; vertices with none are left out, so
    # memory follows the edges, not N.  Both window ends only move up.
    larger: dict[int, set[int]] = {}
    lo = hi = 0
    for a in range(1, N + 1):
        while units[lo] <= a * a:
            lo += 1
        while units[hi] <= a * N:
            hi += 1
        for t in units[lo:hi]:
            if t % a == 0 and as_s_unit(t + 1, pair) is not None:
                larger.setdefault(a, set()).add(t // a)
    # Each clique is grown once, in increasing order, so every k-clique is
    # met as a prefix of the walk; an explicit stack leaves no cycles.
    found = ([], [], [])  # arity 2, 3, 4
    stack = [((a,), nb) for a, nb in larger.items()]
    while stack:
        prefix, common = stack.pop()
        for x in common:
            clique = prefix + (x,)
            found[len(clique) - 2].append(clique)
            if len(clique) < 4 and x in larger:
                stack.append((clique, common & larger[x]))
    return tuple(tuple(sorted(f)) for f in found)


def lemma_predicates(pair: PrimePair, tuples: list[tuple[int, ...]]) -> list[str]:
    """Check the paper's structural lemmas on raw tuples; returns violations.

    This is the only place the lemmas are written.  Divisibility (ac+1
    never divides bc+1) applies to every triple, and the valuation groups
    to every 4-tuple whose six products are S-units; the exponent-zero,
    parity and mod-4 statements apply only to S = {2, q} with q = 3 mod 4.
    """
    violations: list[str] = []
    # When 2 is in S, the odd prime's exponent is beta if p = 2, else alpha.
    odd_prime, odd_exp = (pair.q, "beta") if pair.p == 2 else (pair.p, "alpha")
    two_q3 = 2 in (pair.p, pair.q) and odd_prime % 4 == 3
    for t in tuples:
        # (ab+1, ac+1, bc+1), or (ab+1, ac+1, ad+1, bc+1, bd+1, cd+1)
        products = [x * y + 1 for x, y in combinations(t, 2)]
        if len(t) == 3:
            if products[2] % products[1] == 0:
                violations.append(f"div: {t}: {products[1]} | {products[2]}")
            if two_q3:
                sus = [as_s_unit(n, pair) for n in products]
                if None in sus:
                    violations.append(f"exp_zero: {t}: not an S-Diophantine triple")
                elif all(getattr(s, odd_exp) for s in sus):
                    violations.append(f"exp_zero: {t}: all of b1,b2,b4 nonzero")
        elif len(t) == 4:
            sus = [as_s_unit(n, pair) for n in products]
            if None in sus:
                violations.append(f"s_unit: {t}: not an S-Diophantine quadruple")
            else:
                for grp in _VALUATION_GROUPS:
                    for name in ("alpha", "beta"):
                        if not two_smallest_equal(tuple(getattr(sus[i], name) for i in grp)):
                            violations.append(f"valuation: {t}: {name} group {grp}")
            if two_q3 and any(x % 2 == 0 for x in t):
                violations.append(f"odd: {t}: even member")
            if two_q3 and sorted(x % 4 for x in t) != [1, 1, 3, 3]:
                violations.append(f"mod4: {t}: residues not (1,1,3,3)")
    return violations

"""Initial bound on log d and its continued-fraction reduction to a fixpoint.

Every bound produced here is an exact rational that provably majorizes the
true quantity: all logarithms enter through certified enclosures and every
formula is evaluated with outward rounding toward larger bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import PrimePair
from .diolog import (
    START_BITS,
    GapCertificate,
    certified_log,
    linear_form_gap,
    log_of_fraction,
    log_upper,
    product,
    scale,
)

__all__ = [
    "ReductionStep",
    "ReductionTrace",
    "ExponentBox",
    "initial_bound",
    "reduce_once",
    "reduce_full",
    "exponent_box",
]

# Relative improvement threshold below which iterating the reduction lemma
# stops.  It is applied relative to the current bound so the chain
# terminates as soon as a step stops making a real dent.
STOP_RATIO = Fraction(1, 10)

_BISECTION_REL = 1000  # initial-bound bisection to relative width 1/1000
_CAP = 1 << 4096  # initial bound: no crossing at or below it means out of range
# Relative margin 2^-60 of a check that stands in for exact work: it must
# exceed the rounding of what it compares, at most 2^-(bits-4) on a rung of
# bits > 2 * 60 (see initial_bound and _b1_b2); _MARGIN is 2^60 (1 + 2^-60).
_MARGIN_BITS = 60
_MARGIN = (1 << _MARGIN_BITS) + 1


@dataclass(frozen=True)
class ReductionStep:
    """One reduction-lemma step B_in -> (delta, B1, B2), delta certified at precision_bits."""

    B_in: Fraction
    delta: Fraction
    B1: Fraction
    B2: Fraction
    precision_bits: int

    @property
    def improvement(self) -> Fraction:
        return self.B_in - self.B2


@dataclass(frozen=True)
class ReductionTrace:
    """The full bound chain B0 -> steps -> final_bound for one prime pair."""

    pair: PrimePair
    B0: Fraction
    steps: tuple[ReductionStep, ...]
    final_bound: Fraction
    final_B1: Fraction
    precision_bits: int


@dataclass(frozen=True)
class ExponentBox:
    """Per-position exponent caps defining the finite search space."""

    a12_cap: int
    b12_cap: int
    a_cap: int
    b_cap: int


@lru_cache(maxsize=256)
def _rung_logs(p: int, q: int, bits: int) -> tuple:
    # The rung's scale w, and (lo, hi) mantissas at 2^-w of log p, log q,
    # log p * log q and ln(log p * log q).
    w, lp, lq = scale(bits), certified_log(p, bits), certified_log(q, bits)
    lpq = product(lp, lq, w)
    # ln of the enclosure lpq, outward rounded.
    ln_lpq = (log_of_fraction(lpq[0], 1 << w, bits)[0],
              log_of_fraction(lpq[1], 1 << w, bits)[1])
    return w, lp, lq, lpq, ln_lpq


@lru_cache(maxsize=256)
def _majorant(p: int, q: int) -> tuple:
    # At START_BITS: the scale w; the majorant's leading factor c = 1.36e23 *
    # (log p * log q)^3 and its three offsets 1.63, 2.71 and 2.08 - ln(log p *
    # log q); last, the least m with m * lo(ln 2) + min(o1.lo, o3.lo) > 4,
    # lo(ln 2) being the low end that _split gives log_of_fraction.
    w, _, _, lpq, ln_lpq = _rung_logs(p, q, START_BITS)
    # 1.36e23 is the integer k, so k * lpq is exact on the mantissas.
    k = 136 * 10 ** 21
    c = product(product((k * lpq[0], k * lpq[1]), lpq, w), lpq, w)
    o1, o2, o3 = (((n << w) // 100, -(-(n << w) // 100)) for n in (163, 271, 208))
    o3 = (o3[0] - ln_lpq[1], o3[1] - ln_lpq[0])
    m_falls = ((4 << w) - min(o1[0], o3[0])) // certified_log(2, START_BITS)[0] + 1
    return w, c, o1, o2, o3, m_falls


def _f_upper(x: int, pair: PrimePair) -> int:
    # Upper endpoint, a mantissa at scale(START_BITS), of the Baker-type
    # majorant evaluated at log d = x, as c * (lx + 1.63) * (lx + 2.71) *
    # (t3 * t3) with t3 = lx + o3, each product rounded outward on the
    # mantissas.
    w, c, o1, o2, o3, m_falls = _majorant(pair.p, pair.q)
    if x.bit_length() > m_falls:
        # lo(ln x) >= floor(log2 x) * lo(ln 2) (_split's e_lo) puts the low
        # end of every lx + o_i above 4, so each product's high end is the
        # product of the high ends: the same mantissa, read on high ends alone.
        lx = log_upper(x, 1, START_BITS)
        f = -(-(c[1] * (lx + o1[1])) >> w)
        f = -(-(f * (lx + o2[1])) >> w)
        t3 = lx + o3[1]
        return -(-(f * -(-(t3 * t3) >> w)) >> w)
    lx = log_of_fraction(x, 1, START_BITS)
    t1, t2, t3 = ((lx[0] + o[0], lx[1] + o[1]) for o in (o1, o2, o3))
    return product(product(product(c, t1, w), t2, w), product(t3, t3, w), w)[1]


def _bracket(majorant) -> tuple[int, int]:
    # The search on F(x) < x with F = majorant: four steps x <- ceil(F(x))
    # from the cap 2^4096 pick hi on the grid 16 * 2^k; hi steps down while
    # F(hi/2) < hi/2 and up while F(hi) >= hi, and integer bisection tightens
    # [hi/2, hi] to relative width 1/1000.  Returns the final (lo, hi).
    x = _CAP
    for _ in range(4):
        x = math.ceil(majorant(x))
    hi = min(_CAP, 16 << ((x - 1) // 16).bit_length())
    while hi > 16 and majorant(hi // 2) < hi // 2:
        hi //= 2
    while not majorant(hi) < hi:
        hi *= 2
        if hi > _CAP:
            raise ArithmeticError("no crossing found; inputs out of range")
    lo = hi // 2 if hi > 16 else 4
    while hi - lo > max(1, hi // _BISECTION_REL):
        mid = (lo + hi) // 2
        if majorant(mid) < mid:
            hi = mid
        else:
            lo = mid
    return lo, hi


def initial_bound(pair: PrimePair) -> Fraction:
    """Certified B0 with log d < B0 for every solution, where F(B0) < B0.

    B0 is the hi of _bracket on F, the majorant at START_BITS, evaluated at
    B0 itself.  B0 equals an upward scan's from 16 whenever the grid has one
    crossing x*, as that scan assumed: above x*, t3 = ln x + 2.08 - ln(log p
    log q) > 0, so F increases up to the cap and the iterates fall
    monotonically to x*.  Near 16, where t3 < 0 for large p and q, F need
    not increase, and the stepping loops settle the bracket.

    _bracket runs first on a float model of F, and F itself is evaluated
    only at the final lo and hi; the comment below says why that gives the
    B0 of _bracket on F, which is the fallback when a check fails.
    """
    w, c, o1, o2, o3, m_falls = _majorant(pair.p, pair.q)
    cf, f1, f2, f3 = (v[1] / (1 << w) for v in (c, o1, o2, o3))

    def floats(x: int) -> float:
        lx = math.log(x)
        return cf * (lx + f1) * (lx + f2) * (lx + f3) ** 2

    lo, hi = _bracket(floats)
    # Let G be F's formula on the high ends of c and the o_i, exact in ln x.
    # Where ln x + o_i > 4 for every i, d ln G / d ln x = sum k_i / (ln x +
    # o_i) < 1 with k = (1, 1, 2), so G(x) / x falls and G rises.  There
    # G <= F <= G * (1 + r): log_upper exceeds ln x by at most 2^-bits, on
    # factors above 4, and each of four ceilings adds one unit of 2^-w, so
    # r < 2^-(bits-4), far below the margin u = 2^-60.  Let g be the grid
    # point of the bracket, g/2 = 2^m with m >= m_falls above that threshold:
    # - F(hi) (1 + u) < hi gives F(x) < x for every x >= hi;
    # - F(lo) >= lo (1 + u) gives F(x) >= x for g/2 <= x <= lo, and puts G's
    #   crossing x* above lo.
    # So _bracket on F takes the same steps: its iterates stay above x*, as
    # G rises, so it starts at a grid point >= g; it steps down to g, as
    # F(g/2) >= g/2; and each bisection midpoint that the floats put below
    # the crossing is at most lo, each one above it at least hi.
    g = 16 << ((hi - 1) // 16).bit_length()
    if (g.bit_length() - 2 >= m_falls
            and _f_upper(hi, pair) * _MARGIN < hi << w + _MARGIN_BITS
            and _f_upper(lo, pair) << _MARGIN_BITS >= (lo << w) * _MARGIN):
        return Fraction(hi)
    return Fraction(_bracket(lambda x: Fraction(_f_upper(x, pair), 1 << w))[1])


def _b1_b2(pair: PrimePair, B: Fraction, cert: GapCertificate) -> tuple[Fraction, Fraction]:
    # B1 = max(ln(2/delta), ln(8B / (log p log q))) and B2 = 2 B1 + u_q log q +
    # u_p log p + ln(2 B1^2 / (log p log q)), each log at its high end and
    # ln(y / (log p log q)) <= (ln y).hi - ln_lpq.lo; mantissas at 2^-w.
    bits = cert.precision_bits
    w, lp, lq, lpq, ln_lpq = _rung_logs(pair.p, pair.q, bits)
    dn, dd = cert.delta.numerator, cert.delta.denominator
    # Each log reads at most 2^-bits above the truth, so b1_gap lies in
    # [ln(2/delta), +2^-bits] and b1_size in [ln(8B / lpq.hi), ln(8B /
    # lpq.lo) + 2^-(bits-1)].  Where one argument exceeds the other by the
    # factor 1 + 2^-60 with lpq at its end against it, its log is the max:
    # 2 dd / dn against 8B 2^w / lpq is gap * lpq against size, integers.
    gap, size = 2 * dd * B.denominator, 8 * B.numerator * dn << w
    decided = bits > 2 * _MARGIN_BITS
    logs = []
    if not (decided and size << _MARGIN_BITS > gap * lpq[1] * _MARGIN):
        logs.append(log_upper(2 * dd, dn, bits))
    if not (decided and gap * lpq[0] << _MARGIN_BITS > size * _MARGIN):
        logs.append(log_upper(8 * B.numerator, B.denominator, bits) - ln_lpq[0])
    b1 = max(logs)
    tail = log_upper(2 * b1 * b1, 1 << 2 * w, bits) - ln_lpq[0]
    b2 = 2 * b1 + pair.u_q * lq[1] + pair.u_p * lp[1] + tail
    return Fraction(b1, 1 << w), Fraction(b2, 1 << w)


def reduce_once(pair: PrimePair, B) -> ReductionStep:
    """One reduction-lemma application at the current bound B >= log d."""
    B = B if type(B) is Fraction else Fraction(B)
    cert = linear_form_gap(pair, B)
    B1, B2 = _b1_b2(pair, B, cert)
    return ReductionStep(B_in=B, delta=cert.delta, B1=B1, B2=B2,
                         precision_bits=cert.precision_bits)


def reduce_full(pair: PrimePair) -> ReductionTrace:
    """Iterate reduce_once from the initial bound until the relative
    improvement drops below STOP_RATIO or a step fails to improve.  A step
    whose B2 is below 1, where no further step can start, counts as one that
    did not improve."""
    B0 = initial_bound(pair)
    steps: list[ReductionStep] = []
    B = B0
    num, den = STOP_RATIO.numerator, STOP_RATIO.denominator
    for _ in range(64):
        step = reduce_once(pair, B)
        steps.append(step)
        B2 = step.B2
        # B - B2 < (num/den) B, as (den - num) B < den B2 on numerators and
        # denominators; it holds whenever B2 >= B.
        if (B2.numerator < B2.denominator or (den - num) * B.numerator * B2.denominator
                < den * B2.numerator * B.denominator):
            break
        B = B2
    # The final bound is the least of B0 and every B2 that is at least 1.
    # Each B2 but the last is the next step's B_in, and each step but the
    # last improved, so the B_in strictly fall: that least is the last step's
    # B_in when it did not improve, and its B2 when it did.  linear_form_gap
    # and _b1_b2 are deterministic in (pair, B), so a last step that did not
    # improve already holds the final B1 and its rung; otherwise one more
    # step at its B2 certifies them, and is not part of the chain.
    last = steps[-1]
    stuck = last.B2 < 1 or last.improvement <= 0
    final = last if stuck else reduce_once(pair, last.B2)
    return ReductionTrace(pair=pair, B0=B0, steps=tuple(steps),
                          final_bound=final.B_in, final_B1=final.B1,
                          precision_bits=final.precision_bits)


def exponent_box(trace: ReductionTrace) -> ExponentBox:
    """Integer caps on the exponents, rounded so they are never too small.

    Upper bounds divide by the certified lower endpoints of log p, log q at
    the trace's precision, so recomputing at higher precision can only
    shrink the caps.
    """
    w, lp, lq, _, _ = _rung_logs(trace.pair.p, trace.pair.q, trace.precision_bits)
    lp_lo, lq_lo = Fraction(lp[0], 1 << w), Fraction(lq[0], 1 << w)
    return ExponentBox(
        a12_cap=trace.final_B1 // lp_lo,
        b12_cap=trace.final_B1 // lq_lo,
        a_cap=trace.final_bound // lp_lo,
        b_cap=trace.final_bound // lq_lo,
    )

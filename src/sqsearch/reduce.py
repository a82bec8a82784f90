"""Initial bound on log d and its continued-fraction reduction to a fixpoint.

Every bound produced here is an exact rational that provably majorizes the
true quantity: all logarithms enter through certified enclosures and every
formula is evaluated with outward rounding toward larger bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import PrimePair
from .diolog import (
    START_BITS,
    CertifiedReal,
    GapCertificate,
    certified_log,
    linear_form_gap,
    log_of_fraction,
    product,
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


@dataclass(frozen=True)
class ReductionStep:
    """One application of the reduction lemma: B_in -> (delta, B1, B2)."""

    B_in: Fraction
    delta: Fraction
    B1: Fraction
    B2: Fraction

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
def _pair_constants(p: int, q: int, bits: int) -> tuple:
    # The rung's scale w, and (lo, hi) mantissas at 2^-w of log p, log q,
    # ln(log p * log q), the majorant's leading factor c = 1.36e23 * (log p *
    # log q)^3 and its three offsets 1.63, 2.71 and 2.08 - ln(log p * log q).
    lp = certified_log(p, bits)
    lq = certified_log(q, bits)
    lpq = lp * lq
    c = Fraction(136, 100) * 10 ** 23 * lpq * lpq * lpq
    # ln of the enclosure lpq, outward rounded.
    ln_lpq = CertifiedReal(log_of_fraction(lpq.lo, bits).m_lo,
                           log_of_fraction(lpq.hi, bits).m_hi, lp.w)
    o1, o2, o3 = (CertifiedReal(0, 0, lp.w) + Fraction(n, 100) for n in (163, 271, 208))
    return lp.w, *((x.m_lo, x.m_hi) for x in (lp, lq, ln_lpq, c, o1, o2, o3 - ln_lpq))


def _f_upper(x: int, pair: PrimePair, bits: int) -> Fraction:
    # Upper endpoint of the Baker-type majorant evaluated at log d = x, as
    # c * (lx + 1.63) * (lx + 2.71) * (t3 * t3) with t3 = lx + o3, each
    # product rounded outward on the mantissas.
    w, *_, c, o1, o2, o3 = _pair_constants(pair.p, pair.q, bits)
    lx = log_of_fraction(x, bits)
    t1, t2, t3 = ((lx.m_lo + o[0], lx.m_hi + o[1]) for o in (o1, o2, o3))
    f = product(product(product(c, t1, w), t2, w), product(t3, t3, w), w)
    return Fraction(f[1], 1 << w)


def initial_bound(pair: PrimePair) -> Fraction:
    """Certified B0 with log d < B0 for every solution, where F(B0) < B0.

    Four steps x <- ceil(F(x)) from the cap 2^4096 pick hi on the grid
    16 * 2^k; hi steps down while F(hi/2) < hi/2 and up while F(hi) >= hi,
    and integer bisection tightens [hi/2, hi] to relative width 1/1000.  F
    is the majorant at START_BITS, evaluated at B0 itself.  B0 equals an
    upward scan's from 16 whenever the grid has one crossing x*, as that
    scan assumed: above x*, t3 = ln x + 2.08 - ln(log p log q) > 0, so F
    increases up to the cap and the iterates fall monotonically to x*.
    Near 16, where t3 < 0 for large p and q, F need not increase, and the
    stepping loops settle the bracket.
    """
    x = _CAP
    for _ in range(4):
        x = -(-_f_upper(x, pair, START_BITS) // 1)
    hi = min(_CAP, 16 << ((x - 1) // 16).bit_length())
    while hi > 16 and _f_upper(hi // 2, pair, START_BITS) < hi // 2:
        hi //= 2
    while not _f_upper(hi, pair, START_BITS) < hi:
        hi *= 2
        if hi > _CAP:
            raise ArithmeticError("no crossing found; inputs out of range")
    lo = hi // 2 if hi > 16 else 4
    while hi - lo > max(1, hi // _BISECTION_REL):
        mid = (lo + hi) // 2
        if _f_upper(mid, pair, START_BITS) < mid:
            hi = mid
        else:
            lo = mid
    return Fraction(hi)


def _b1_b2(pair: PrimePair, B: Fraction, cert: GapCertificate) -> tuple[Fraction, Fraction]:
    # B1 = max(ln(2/delta), ln(8B / (log p log q))) and B2 = 2 B1 + u_q log q +
    # u_p log p + ln(2 B1^2 / (log p log q)), each log at its high end and
    # ln(y / (log p log q)) <= (ln y).hi - ln_lpq.lo; mantissas at 2^-w.
    bits = cert.precision_bits
    w, lp, lq, ln_lpq, *_ = _pair_constants(pair.p, pair.q, bits)
    b1_gap = log_of_fraction(2 / cert.delta, bits).m_hi
    b1_size = log_of_fraction(8 * B, bits).m_hi - ln_lpq[0]
    b1 = max(b1_gap, b1_size)
    tail = log_of_fraction(Fraction(2 * b1 * b1, 1 << 2 * w), bits).m_hi - ln_lpq[0]
    b2 = 2 * b1 + pair.u_q * lq[1] + pair.u_p * lp[1] + tail
    return Fraction(b1, 1 << w), Fraction(b2, 1 << w)


def reduce_once(pair: PrimePair, B) -> ReductionStep:
    """One reduction-lemma application at the current bound B >= log d."""
    B = Fraction(B)
    if B < 1:
        raise ValueError("B must be at least 1")
    cert = linear_form_gap(pair, B)
    B1, B2 = _b1_b2(pair, B, cert)
    return ReductionStep(B_in=B, delta=cert.delta, B1=B1, B2=B2)


def reduce_full(pair: PrimePair) -> ReductionTrace:
    """Iterate reduce_once from the initial bound until the relative
    improvement drops below STOP_RATIO or a step fails to improve."""
    B0 = initial_bound(pair)
    steps: list[ReductionStep] = []
    B = B0
    for _ in range(64):
        step = reduce_once(pair, B)
        steps.append(step)
        if step.improvement <= 0 or step.improvement < STOP_RATIO * B:
            break
        B = step.B2
    final = min([B0] + [s.B2 for s in steps])
    final_cert = linear_form_gap(pair, final)
    final_B1, _ = _b1_b2(pair, final, final_cert)
    return ReductionTrace(pair=pair, B0=B0, steps=tuple(steps),
                          final_bound=final, final_B1=final_B1,
                          precision_bits=final_cert.precision_bits)


def exponent_box(trace: ReductionTrace) -> ExponentBox:
    """Integer caps on the exponents, rounded so they are never too small.

    Upper bounds divide by the certified lower endpoints of log p, log q at
    the trace's precision, so recomputing at higher precision can only
    shrink the caps.
    """
    lp_lo = certified_log(trace.pair.p, trace.precision_bits).lo
    lq_lo = certified_log(trace.pair.q, trace.precision_bits).lo
    return ExponentBox(
        a12_cap=trace.final_B1 // lp_lo,
        b12_cap=trace.final_B1 // lq_lo,
        a_cap=trace.final_bound // lp_lo,
        b_cap=trace.final_bound // lq_lo,
    )

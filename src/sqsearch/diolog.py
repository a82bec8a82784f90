"""Certified logarithms, continued fractions of log q / log p, and linear-form gaps.

All enclosures are pairs of exact rationals, so every comparison made against
them is exact and the whole module is deterministic bit for bit.  Logarithms
are produced by an integer-only atanh series with directed rounding; nothing
here touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "PrecisionError",
    "PrecisionPolicy",
    "DEFAULT_POLICY",
    "CertifiedReal",
    "Convergent",
    "GapCertificate",
    "certified_log",
    "log_of_fraction",
    "cf_convergents",
    "linear_form_gap",
]


class PrecisionError(Exception):
    """Raised when the hard precision cap is exhausted."""


@dataclass(frozen=True)
class PrecisionPolicy:
    """Working-precision ladder: start at start_bits, double up to max_bits."""

    start_bits: int = 128
    max_bits: int = 16384

    def ladder(self):
        bits = self.start_bits
        while bits <= self.max_bits:
            yield bits
            bits *= 2


DEFAULT_POLICY = PrecisionPolicy()


@dataclass(frozen=True)
class CertifiedReal:
    """Two-sided rational enclosure lo <= x <= hi of a real number."""

    lo: Fraction
    hi: Fraction
    precision_bits: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty enclosure")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other):
        if isinstance(other, CertifiedReal):
            return CertifiedReal(self.lo + other.lo, self.hi + other.hi,
                                 min(self.precision_bits, other.precision_bits))
        other = Fraction(other)
        return CertifiedReal(self.lo + other, self.hi + other, self.precision_bits)

    __radd__ = __add__

    def __neg__(self):
        return CertifiedReal(-self.hi, -self.lo, self.precision_bits)

    def __sub__(self, other):
        if isinstance(other, CertifiedReal):
            return self + (-other)
        return self + (-Fraction(other))

    def __mul__(self, other):
        if isinstance(other, CertifiedReal):
            products = (self.lo * other.lo, self.lo * other.hi,
                        self.hi * other.lo, self.hi * other.hi)
            return CertifiedReal(min(products), max(products),
                                 min(self.precision_bits, other.precision_bits))
        other = Fraction(other)
        if other >= 0:
            return CertifiedReal(self.lo * other, self.hi * other, self.precision_bits)
        return CertifiedReal(self.hi * other, self.lo * other, self.precision_bits)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("divisor enclosure contains zero")
        other = Fraction(other)
        inv = CertifiedReal(1 / self.hi, 1 / self.lo, self.precision_bits)
        return inv * other


# -- integer-only certified logarithm ---------------------------------------
#
# ln(n) for n >= 2 is reduced to ln(n) = e*ln(2) + 2*atanh(a/b) with
# e = bit_length(n) - 1, a = n - 2^e, b = n + 2^e, so 0 <= a/b < 1/3 and the
# series atanh(x) = sum x^(2k+1)/(2k+1) gains at least three bits per term.
# Working values are integers scaled by 2^w; the running power of x is kept
# as a (floor, ceil) pair so each partial sum brackets the truth.

_GUARD_BITS = 32
_ln2_cache: dict[int, tuple[int, int]] = {}


def _atanh_scaled(a: int, b: int, w: int) -> tuple[int, int]:
    # Requires 0 <= a/b <= 1/3.  Returns lo, hi with lo <= atanh(a/b)*2^w <= hi.
    if a == 0:
        return 0, 0
    a2, b2 = a * a, b * b
    xp_lo = (a << w) // b
    xp_hi = -((-(a << w)) // b)
    s_lo = 0
    s_hi = 0
    k = 0
    while True:
        d = 2 * k + 1
        s_lo += xp_lo // d
        s_hi += -((-xp_hi) // d)
        if xp_hi <= 8:
            break
        xp_lo = xp_lo * a2 // b2
        xp_hi = -((-xp_hi * a2) // b2)
        k += 1
    # Once x^(2k+1)*2^w <= 8, the tail sum_{j>k} x^(2j+1)/(2j+1) is at most
    # x^(2k+1)*2^w * (x^2/(1-x^2)) <= 8 * (1/8) = 1 scaled unit.
    return s_lo, s_hi + 2


def _ln2_scaled(w: int) -> tuple[int, int]:
    if w not in _ln2_cache:
        lo, hi = _atanh_scaled(1, 3, w)
        _ln2_cache[w] = (2 * lo, 2 * hi)
    return _ln2_cache[w]


def _ln_scaled(n: int, w: int) -> tuple[int, int]:
    # Enclosure of ln(n) * 2^w for n >= 1.
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 0, 0
    e = n.bit_length() - 1
    m = 1 << e
    l2_lo, l2_hi = _ln2_scaled(w)
    if n == m:
        return e * l2_lo, e * l2_hi
    at_lo, at_hi = _atanh_scaled(n - m, n + m, w)
    return e * l2_lo + 2 * at_lo, e * l2_hi + 2 * at_hi


@lru_cache(maxsize=4096)
def _certified_log_cached(n: int, bits: int) -> tuple[Fraction, Fraction]:
    w = bits + _GUARD_BITS + max(0, n.bit_length().bit_length())
    lo, hi = _ln_scaled(n, w)
    scale = 1 << w
    return Fraction(lo, scale), Fraction(hi, scale)


def certified_log(n: int, bits: int) -> CertifiedReal:
    """Enclosure of ln(n) with relative width at most 2^-bits."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if bits < 16:
        raise ValueError("bits must be at least 16")
    lo, hi = _certified_log_cached(n, bits)
    out = CertifiedReal(lo, hi, bits)
    if out.width > Fraction(1, 1 << bits) * max(1, out.lo):
        raise ArithmeticError(f"ln({n}) enclosure wider than 2^-{bits}")
    return out


def log_of_fraction(x: Fraction, bits: int) -> CertifiedReal:
    """Enclosure of ln(x) for a positive rational x, outward rounded."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    w = bits + _GUARD_BITS + max(x.numerator.bit_length(),
                                 x.denominator.bit_length()).bit_length()
    nlo, nhi = _ln_scaled(x.numerator, w)
    dlo, dhi = _ln_scaled(x.denominator, w)
    scale = 1 << w
    return CertifiedReal(Fraction(nlo - dhi, scale), Fraction(nhi - dlo, scale), bits)


# -- continued fraction of log q / log p ------------------------------------

@dataclass(frozen=True)
class Convergent:
    """Convergent P/Q of the continued fraction of log q / log p."""

    P: int
    Q: int
    index: int


class _Ambiguous(Exception):
    # Internal: the current enclosure does not pin down the next partial
    # quotient; the caller escalates precision and retries.
    pass


def _expand(lp: CertifiedReal, lq: CertifiedReal, Q_cut: Fraction,
            P_cut: Fraction) -> list[Convergent]:
    # Expands the enclosure lq / lp of log q / log p.
    t_lo, t_hi = lq.lo / lp.hi, lq.hi / lp.lo
    out: list[Convergent] = []
    P0, P1 = 1, 0   # P_{k-1}, P_{k-2}
    Q0, Q1 = 0, 1
    for index in range(10000):
        a = math.floor(t_lo)
        if math.floor(t_hi) != a:
            raise _Ambiguous
        P = a * P0 + P1
        Q = a * Q0 + Q1
        out.append(Convergent(P=P, Q=Q, index=index))
        if not (Q < Q_cut and P < P_cut):
            return out
        P1, P0 = P0, P
        Q1, Q0 = Q0, Q
        u_lo, u_hi = t_lo - a, t_hi - a
        if u_lo <= 0:
            raise _Ambiguous
        t_lo, t_hi = 1 / u_hi, 1 / u_lo
    raise _Ambiguous


def cf_convergents(p: int, q: int, Q_cut, P_cut,
                   policy: PrecisionPolicy = DEFAULT_POLICY) -> list[Convergent]:
    """All convergents of log q / log p with Q < Q_cut and P < P_cut, plus the
    first convergent violating either cutoff (conservative boundary guard).

    Partial quotients are only emitted when the certified enclosure of the
    ratio pins them down; otherwise the expansion restarts at the next rung
    of the precision ladder.
    """
    Q_cut = Fraction(Q_cut)
    P_cut = Fraction(P_cut)
    if Q_cut <= 0 or P_cut <= 0:
        raise ValueError("cutoffs must be positive")
    for bits in policy.ladder():
        try:
            return _expand(certified_log(p, bits), certified_log(q, bits), Q_cut, P_cut)
        except _Ambiguous:
            continue
    raise PrecisionError(
        f"continued fraction of log {q}/log {p} not resolved within {policy.max_bits} bits")


# -- certified linear-form gap ----------------------------------------------

@dataclass(frozen=True)
class GapCertificate:
    """A positive rational delta with |P log p - Q log q| > delta certified
    for every convergent listed in convergents_checked."""

    delta: Fraction
    convergents_checked: tuple[Convergent, ...]
    precision_bits: int


def _abs_linear_form(c: Convergent, lp: CertifiedReal, lq: CertifiedReal) -> tuple[Fraction, Fraction]:
    lo = c.P * lp.lo - c.Q * lq.hi
    hi = c.P * lp.hi - c.Q * lq.lo
    if lo > 0:
        return lo, hi
    if hi < 0:
        return -hi, -lo
    raise _Ambiguous


def linear_form_gap(pair, B, policy: PrecisionPolicy = DEFAULT_POLICY) -> GapCertificate:
    """Certified delta > 0 below |P log p - Q log q| for every convergent of
    log q / log p within the reduction cutoffs Q < 2B/log q, P < 2B/log p.

    delta is 0.999 times the certified lower endpoint of the minimum over the
    within-cutoff convergents (cutoffs taken with their certified upper
    bounds, so doubt adds convergents).  Only those convergents enter the
    certificate; the extra boundary guard that cf_convergents emits marks
    where the expansion stopped but is not part of the minimum.  When no
    convergent lies inside the cutoffs the hypothesis is vacuous and the
    guard alone supplies a valid positive delta.
    """
    B = Fraction(B)
    if B < 1:
        raise ValueError("B must be at least 1")
    p, q = min(pair.p, pair.q), max(pair.p, pair.q)
    last_error: Exception | None = None
    for bits in policy.ladder():
        lp = certified_log(p, bits)
        lq = certified_log(q, bits)
        Q_cut = 2 * B / lq.lo
        P_cut = 2 * B / lp.lo
        try:
            convs = _expand(lp, lq, Q_cut, P_cut)
            pool = convs[:-1] if len(convs) > 1 else convs
            lows = [_abs_linear_form(c, lp, lq)[0] for c in pool]
        except _Ambiguous as exc:
            last_error = exc
            continue
        min_low = min(lows)
        if min_low <= 0:
            continue
        delta = min_low * Fraction(999, 1000)
        return GapCertificate(delta=delta, convergents_checked=tuple(pool),
                              precision_bits=bits)
    raise PrecisionError(
        f"gap for ({p},{q}) at B={float(B):.6g} not certified within "
        f"{policy.max_bits} bits") from last_error

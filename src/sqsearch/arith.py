"""Exact big-integer primitives: valuations, S-units, orders, lifting constants.

Everything here is pure integer arithmetic; no floats enter any code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SUnit",
    "PrimePair",
    "is_prime",
    "padic_valuation",
    "as_s_unit",
    "multiplicative_order",
    "lifting_constant",
    "lb1_modulus",
]

# Strong-pseudoprime witnesses making Miller-Rabin deterministic for all
# n < 3317044064679887385961981 (~3.3e24).  Desk-scale inputs (sweep primes
# below 1e9, gcd cofactors below ~2^64) sit far inside this range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)


def is_prime(n: int) -> bool:
    """Deterministic primality check for n below ~3.3e24."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    if n >= _MR_DETERMINISTIC_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic primality range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_valuation(n: int, r: int) -> tuple[int, int]:
    """Largest v with r^v | n, plus the cofactor n / r^v."""
    if n < 1:
        raise ValueError("n must be positive")
    if r < 2:
        raise ValueError("r must be at least 2")
    v = 0
    while n % r == 0:
        n //= r
        v += 1
    return v, n


@dataclass(frozen=True)
class SUnit:
    """A positive integer of the form p^alpha * q^beta with its exponents."""

    value: int
    alpha: int
    beta: int


@dataclass(frozen=True)
class PrimePair:
    """Two distinct primes p, q with their lifting constants.

    u_q is the exact q-adic valuation of p^ord_pq - 1, where ord_pq is the
    multiplicative order of p modulo q (modulo 4 when q = 2); u_p is the
    symmetric valuation with p and q swapped.  The pipeline reads only u_q
    and u_p, so ord_pq is computed when read.
    """

    p: int
    q: int
    u_q: int
    u_p: int

    @classmethod
    def of(cls, p: int, q: int) -> "PrimePair":
        if p == q:
            raise ValueError("p and q must be distinct")
        for r in (p, q):
            if not is_prime(r):
                raise ValueError(f"{r} is not prime")
        # u = v_q(p^(q-1) - 1) for odd q, with no order to find: ord divides
        # q - 1 and (q - 1)/ord is prime to q, so by the lifting-the-exponent
        # lemma it is v_q(p^ord - 1).  q = 2 keeps the order mod 4, 1 or 2.
        u_q, u_p = (_lift(a, b, b - 1 if b > 2 else multiplicative_order(a, 4))
                    for a, b in ((p, q), (q, p)))
        return cls(p=p, q=q, u_q=u_q, u_p=u_p)

    @property
    def ord_pq(self) -> int:
        return lifting_constant(self.p, self.q)[0]


def as_s_unit(n: int, pair: PrimePair) -> SUnit | None:
    """Exponent pair of n if n = p^a * q^b exactly, else None.

    Repeated exact division; works for integers of any size.
    """
    if n < 1:
        raise ValueError("n must be positive")
    a, rest = padic_valuation(n, pair.p)
    b, rest = padic_valuation(rest, pair.q)
    if rest != 1:
        return None
    return SUnit(value=n, alpha=a, beta=b)


def _factor_by_trial(n: int) -> dict[int, int]:
    # Group orders here are at most q - 1 for sweep-scale q, so plain trial
    # division up to sqrt(n) is enough.
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def multiplicative_order(base: int, modulus: int) -> int:
    """Smallest k >= 1 with base^k = 1 (mod modulus); modulus an odd prime or 4."""
    if modulus == 4:
        group_order = 2
    elif modulus > 2 and modulus % 2 == 1 and is_prime(modulus):
        group_order = modulus - 1
    else:
        raise ValueError("modulus must be an odd prime or 4")
    if math.gcd(base, modulus) != 1:
        raise ValueError("base must be coprime to the modulus")
    order = group_order
    for r, e in _factor_by_trial(group_order).items():
        for _ in range(e):
            if pow(base, order // r, modulus) == 1:
                order //= r
            else:
                break
    return order


def _lift(p: int, q: int, e: int) -> int:
    # q-adic valuation of p^e - 1 without forming p^e: test ever higher
    # prime-power moduli.  Callers pass a multiple e of the order, so u >= 1.
    u = 1
    while pow(p, e, q ** (u + 1)) == 1:
        u += 1
    return u


def lifting_constant(p: int, q: int) -> tuple[int, int]:
    """(ord, u) with ord the order of p mod q (mod 4 if q = 2) and q^u || p^ord - 1."""
    ord_ = multiplicative_order(p, 4 if q == 2 else q)
    return ord_, _lift(p, q, ord_)


def lb1_modulus(pair: PrimePair, z: int) -> int:
    """M = ord_pq * q^(z - u_q), so that q^z | p^x - 1 forces M | x."""
    if z < pair.u_q:
        raise ValueError(f"z must be at least u_q = {pair.u_q}")
    return pair.ord_pq * pair.q ** (z - pair.u_q)

"""Exact big-integer primitives: primality, valuations, S-units and the
lifting constants of a prime pair.

Everything here is pure integer arithmetic; no floats enter any code path.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SUnit",
    "PrimePair",
    "is_prime",
    "padic_valuation",
    "as_s_unit",
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

    u_q = v_q(p^ord - 1), where ord is the multiplicative order of p modulo
    q (modulo 4 when q = 2); u_p is the same valuation with p and q swapped.
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
        # lemma it is v_q(p^ord - 1).  q = 2 takes the order of p mod 4: 1
        # when p = 1 (mod 4), else 2.
        u_q, u_p = (_lift(a, b, b - 1 if b > 2 else (1 if a % 4 == 1 else 2))
                    for a, b in ((p, q), (q, p)))
        return cls(p=p, q=q, u_q=u_q, u_p=u_p)


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


def _lift(p: int, q: int, e: int) -> int:
    # q-adic valuation of p^e - 1 without forming p^e: test ever higher
    # prime-power moduli.  Callers pass a multiple e of the order, so u >= 1.
    u = 1
    while pow(p, e, q ** (u + 1)) == 1:
        u += 1
    return u

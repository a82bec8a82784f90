"""Reference multiplicative orders and LB1 moduli for the tests.

The package needs only u_q and u_p of a pair, which `PrimePair.of` finds
without an order.  These helpers compute the order itself, so tests can
check those lifting constants, and the LB1 divisibility rule built on them,
against an independent route.
"""

import math

from sqsearch.arith import PrimePair, is_prime


def _factor_by_trial(n: int) -> dict[int, int]:
    # Group orders here are at most q - 1 for small q, so plain trial
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


def lifting_constant(p: int, q: int) -> tuple[int, int]:
    """(ord, u) with ord the order of p mod q (mod 4 if q = 2) and q^u || p^ord - 1."""
    ord_ = multiplicative_order(p, 4 if q == 2 else q)
    u = 1
    while pow(p, ord_, q ** (u + 1)) == 1:
        u += 1
    return ord_, u


def ord_pq(pair: PrimePair) -> int:
    """The order of p mod q (mod 4 if q = 2)."""
    return multiplicative_order(pair.p, 4 if pair.q == 2 else pair.q)


def lb1_modulus(pair: PrimePair, z: int) -> int:
    """M = ord_pq * q^(z - u_q), so that q^z | p^x - 1 forces M | x."""
    if z < pair.u_q:
        raise ValueError(f"z must be at least u_q = {pair.u_q}")
    return ord_pq(pair) * pair.q ** (z - pair.u_q)

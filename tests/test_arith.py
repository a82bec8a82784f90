import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _orders import lb1_modulus, lifting_constant, multiplicative_order, ord_pq
from sqsearch.arith import (
    PrimePair,
    SUnit,
    as_s_unit,
    is_prime,
    padic_valuation,
)

PAIR_23 = PrimePair.of(2, 3)
PAIR_27 = PrimePair.of(2, 7)

PRIMES_UNDER_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(97) and is_prime(10 ** 9 + 7)
    assert not is_prime(1) and not is_prime(4) and not is_prime(561)
    assert not is_prime(10 ** 9 + 8)


def test_padic_valuation_examples():
    assert padic_valuation(8, 2) == (3, 1)
    assert padic_valuation(1, 7) == (0, 1)
    assert padic_valuation(36, 3) == (2, 4)


def test_padic_valuation_rejects_nonpositive():
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


def test_as_s_unit_examples():
    assert as_s_unit(36, PAIR_23) == SUnit(36, 2, 2)
    assert as_s_unit(1, PAIR_23) == SUnit(1, 0, 0)
    assert as_s_unit(35, PAIR_23) is None


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 4) == 2


def test_multiplicative_order_rejects_bad_modulus():
    with pytest.raises(ValueError):
        multiplicative_order(3, 8)
    with pytest.raises(ValueError):
        multiplicative_order(3, 15)
    with pytest.raises(ValueError):
        multiplicative_order(7, 7)


def test_lifting_constant_examples():
    assert lifting_constant(2, 3) == (2, 1)   # 2^2-1 = 3
    assert lifting_constant(3, 2) == (2, 3)   # 3^2-1 = 8 = 2^3
    assert lifting_constant(2, 7) == (3, 1)   # 2^3-1 = 7


def test_lb1_modulus_examples():
    assert lb1_modulus(PAIR_23, 1) == 2
    assert lb1_modulus(PAIR_23, 2) == 6
    assert lb1_modulus(PAIR_27, 1) == 3
    with pytest.raises(ValueError):
        lb1_modulus(PAIR_23, 0)


def test_lb1_modulus_brute_force_small():
    # 9 | 2^x - 1 exactly when 6 | x.
    hits = [x for x in range(1, 200) if pow(2, x, 9) == 1]
    assert hits[0] == 6
    assert all(x % 6 == 0 for x in hits)


def test_prime_pair_validation():
    with pytest.raises(ValueError):
        PrimePair.of(4, 3)
    with pytest.raises(ValueError):
        PrimePair.of(5, 5)


def test_prime_pair_constants_exact_division():
    for p, q in [(2, 3), (3, 2), (5, 7), (11, 2), (2, 13)]:
        pair = PrimePair.of(p, q)
        modulus = 4 if q == 2 else q
        assert pow(p, ord_pq(pair), modulus) == 1
        assert pow(p, ord_pq(pair), q ** pair.u_q) == 1
        assert pow(p, ord_pq(pair), q ** (pair.u_q + 1)) != 1


# Pairs with q^2 | p^(q-1) - 1, so u_q = 2 (q is a base-p Wieferich prime).
WIEFERICH_TYPE = [(2, 1093), (2, 3511), (3, 11), (3, 1006003), (5, 20771), (7, 491531)]


def test_prime_pair_lifts_match_lifting_constant():
    # PrimePair.of finds u without the order (lifting the exponent from
    # q - 1); lifting_constant finds it from the order itself.
    primes = [n for n in range(1000) if is_prime(n)]
    pairs = [(p, q) for p in primes for q in primes if p != q]
    assert len(pairs) == 28056
    pairs += WIEFERICH_TYPE + [(q, p) for p, q in WIEFERICH_TYPE]
    u = {(p, q): lifting_constant(p, q)[1] for p, q in pairs}
    for p, q in pairs:
        pair = PrimePair.of(p, q)
        assert (pair.u_q, pair.u_p) == (u[p, q], u[q, p])
    assert [u[pq] for pq in WIEFERICH_TYPE] == [2] * 6


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30),
       st.sampled_from(PRIMES_UNDER_100), st.sampled_from(PRIMES_UNDER_100))
@settings(max_examples=300, deadline=None)
def test_as_s_unit_round_trip(alpha, beta, p, q):
    if p == q:
        return
    pair = PrimePair.of(p, q)
    value = p ** alpha * q ** beta
    su = as_s_unit(value, pair)
    assert su == SUnit(value, alpha, beta)


@given(st.integers(min_value=1, max_value=10 ** 9),
       st.integers(min_value=1, max_value=10 ** 9),
       st.sampled_from([2, 3, 5, 7, 11, 13]))
@settings(max_examples=200, deadline=None)
def test_valuation_additivity(m, n, r):
    vm, _ = padic_valuation(m, r)
    vn, _ = padic_valuation(n, r)
    vmn, _ = padic_valuation(m * n, r)
    assert vmn == vm + vn


@given(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
       st.integers(min_value=2, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_order_minimality(q, base):
    if base % q == 0:
        return
    k = multiplicative_order(base, q)
    assert pow(base, k, q) == 1
    assert all(pow(base, j, q) != 1 for j in range(1, k))


def test_lb1_soundness_brute_force():
    # For every small pair and admissible z, q^z | p^x - 1 forces M | x.
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    for p in primes:
        for q in primes:
            if p == q:
                continue
            pair = PrimePair.of(p, q)
            for z in range(pair.u_q, pair.u_q + 3):
                M = lb1_modulus(pair, z)
                mod = q ** z
                acc = 1
                for x in range(1, 2001):
                    acc = acc * p % mod
                    if acc == 1:
                        assert x % M == 0, (p, q, z, x, M)

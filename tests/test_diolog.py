from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from sqsearch import diolog
from sqsearch.arith import PrimePair
from sqsearch.diolog import (
    Convergent,
    PrecisionError,
    certified_log,
    linear_form_gap,
    log_of_fraction,
)

mp.dps = 60

PAIR_23 = PrimePair.of(2, 3)


def cf_convergents(p, q, Q_cut, P_cut, bits=256):
    # The continued-fraction expansion that linear_form_gap runs, at one
    # fixed precision: convergents of log q / log p with Q < Q_cut and
    # P < P_cut, plus the first one past either cutoff.
    return diolog._expand(certified_log(p, bits), certified_log(q, bits),
                          Fraction(Q_cut), Fraction(P_cut))


def mp_contains(enclosure, value):
    return Fraction(enclosure.lo) <= Fraction(str(value)) <= Fraction(enclosure.hi)


def test_certified_log_known_constants():
    for n in (2, 3, 10, 97):
        enc = certified_log(n, 64)
        assert mp_contains(enc, mp.nstr(mp.log(n), 40))
        assert enc.width <= Fraction(1, 2 ** 64) * max(1, enc.lo)


def test_certified_log_ln8_is_three_ln2():
    e2 = certified_log(2, 64)
    e8 = certified_log(8, 64)
    three = e2 * 3
    assert three.lo <= e8.hi and e8.lo <= three.hi  # overlap forced by ln 8 = 3 ln 2


def test_certified_log_monotone_refinement():
    coarse = certified_log(17, 32)
    fine = certified_log(17, 128)
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
    assert fine.width <= coarse.width


def test_certified_log_enclosure_soundness_random():
    # The 4x-precision enclosure must sit inside the coarse one.
    import random
    rng = random.Random(7)
    for bits in (32, 64, 128):
        for _ in range(25):
            n = rng.randrange(2, 10 ** 6)
            coarse = certified_log(n, bits)
            fine = certified_log(n, 4 * bits)
            assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_certified_log_input_validation():
    with pytest.raises(ValueError):
        certified_log(1, 64)
    with pytest.raises(ValueError):
        certified_log(5, 8)


def test_cf_convergents_23_hand_expansion():
    # log3/log2 = [1; 1, 1, 2, 2, 3, 1, 5, ...]
    convs = cf_convergents(2, 3, Q_cut=13, P_cut=25)
    assert [(c.P, c.Q) for c in convs] == [(1, 1), (2, 1), (3, 2), (8, 5), (19, 12), (65, 41)]


def test_cf_convergents_boundary_guard_only():
    convs = cf_convergents(2, 3, Q_cut=1, P_cut=1)
    assert [(c.P, c.Q) for c in convs] == [(1, 1)]


def test_cf_convergents_reciprocal_expansion():
    fwd = cf_convergents(2, 3, Q_cut=13, P_cut=25)
    rev = cf_convergents(3, 2, Q_cut=25, P_cut=13)
    # Numerators of the reciprocal expansion are the denominators of the
    # forward one, shifted by the leading zero quotient.
    assert rev[0].P == 0 and rev[0].Q == 1
    fwd_Q = [c.Q for c in fwd]
    rev_P = [c.P for c in rev][1:]
    assert rev_P == fwd_Q[: len(rev_P)]
    fwd_P = [c.P for c in fwd]
    rev_Q = [c.Q for c in rev][1:]
    assert rev_Q == fwd_P[: len(rev_Q)]


def test_cf_convergents_structure_invariants():
    convs = cf_convergents(2, 3, Q_cut=10 ** 12, P_cut=10 ** 12)
    from math import gcd
    for c in convs:
        assert gcd(c.P, c.Q) == 1
    qs = [c.Q for c in convs]
    assert all(qs[i] < qs[i + 1] for i in range(1, len(qs) - 1))
    # recurrence: same integer quotient advances both P and Q
    for k in range(2, len(convs)):
        num = convs[k].P - convs[k - 2].P
        assert num % convs[k - 1].P == 0
        a = num // convs[k - 1].P
        assert a >= 1
        assert convs[k].Q == a * convs[k - 1].Q + convs[k - 2].Q


def test_cf_convergents_best_approximation():
    convs = cf_convergents(2, 3, Q_cut=10 ** 6, P_cut=10 ** 6)
    rho = mp.log(3) / mp.log(2)
    for c in convs:
        assert abs(rho - mp.mpf(c.P) / c.Q) < mp.mpf(1) / c.Q ** 2


def frozen_gap_oracle(B, include=lambda P, Q: True):
    # Independent evaluation at 60 digits over the lemma cutoff set.
    ln2, ln3 = mp.log(2), mp.log(3)
    rho = ln3 / ln2
    P0, P1, Q0, Q1 = 1, 0, 0, 1
    t = rho
    best = None
    while True:
        a = int(mp.floor(t))
        P, Q = a * P0 + P1, a * Q0 + Q1
        if not (Q < 2 * B / ln3 and P < 2 * B / ln2):
            break
        if include(P, Q):
            lam = abs(P * ln2 - Q * ln3)
            best = lam if best is None else min(best, lam)
        P1, P0, Q1, Q0 = P0, P, Q0, Q
        t = 1 / (t - a)
    return best


def test_linear_form_gap_at_21():
    cert = linear_form_gap(PAIR_23, 21)
    # Minimum of |P ln2 - Q ln3| over the cutoff convergents is attained at
    # 19/12 with value 0.0135510333..., and delta is 0.999 of it.
    oracle = frozen_gap_oracle(mp.mpf(21))
    assert abs(float(cert.delta) - 0.999 * float(oracle)) < 1e-9
    assert any((c.P, c.Q) == (19, 12) for c in cert.convergents_checked)
    assert len(cert.convergents_checked) == 5


def test_linear_form_gap_at_158_812():
    cert = linear_form_gap(PAIR_23, Fraction("158.812"))
    oracle = frozen_gap_oracle(mp.mpf("158.812"))  # min at 84/53: 0.0020881...
    assert abs(float(cert.delta) - 0.999 * float(oracle)) < 1e-9
    assert any((c.P, c.Q) == (84, 53) for c in cert.convergents_checked)


def test_linear_form_gap_at_1():
    cert = linear_form_gap(PAIR_23, 1)
    assert 0 < cert.delta <= Fraction(410, 1000)  # below |ln3 - ln2| = 0.4055


def test_linear_form_gap_certifies_every_listed_convergent():
    for B in (1, 21, 1000, 10 ** 6):
        cert = linear_form_gap(PAIR_23, B)
        bits = 4 * cert.precision_bits
        lp = certified_log(2, bits)
        lq = certified_log(3, bits)
        for c in cert.convergents_checked:
            lo = c.P * lp.lo - c.Q * lq.hi
            hi = c.P * lp.hi - c.Q * lq.lo
            low_end = lo if lo > 0 else -hi
            assert low_end > cert.delta


def test_linear_form_gap_orientation_symmetry():
    a = linear_form_gap(PrimePair.of(2, 3), 500)
    b = linear_form_gap(PrimePair.of(3, 2), 500)
    assert abs(a.delta - b.delta) <= Fraction(2, 1000) * a.delta


def test_linear_form_gap_rejects_small_B():
    with pytest.raises(ValueError):
        linear_form_gap(PAIR_23, Fraction(1, 2))


def test_convergent_type_is_hashable_record():
    c = Convergent(P=3, Q=2)
    assert (c.P, c.Q) == (3, 2)
    assert hash(c) == hash(Convergent(P=3, Q=2))


def test_linear_form_gap_escalates_from_low_start(monkeypatch):
    monkeypatch.setattr(diolog, "START_BITS", 16)
    cert = linear_form_gap(PAIR_23, 10 ** 6)
    assert cert.delta > 0
    assert cert.precision_bits > 16


def test_linear_form_gap_precision_exhaustion(monkeypatch):
    monkeypatch.setattr(diolog, "START_BITS", 32)
    monkeypatch.setattr(diolog, "MAX_BITS", 64)
    with pytest.raises(PrecisionError):
        linear_form_gap(PAIR_23, Fraction(16, 10) * 10 ** 30)


def test_cf_convergents_explicit_bits_consistent():
    a = cf_convergents(2, 3, Q_cut=10 ** 9, P_cut=10 ** 9, bits=256)
    b = cf_convergents(2, 3, Q_cut=10 ** 9, P_cut=10 ** 9, bits=512)
    assert a == b


WIDE = st.integers(min_value=1, max_value=(1 << 512) - 1)


@st.composite
def numerator_denominator(draw):
    n = draw(WIDE)
    d = draw(st.one_of(WIDE, st.just(n), st.integers(0, 511).map(lambda k: 1 << k)))
    return n, d


def mpf_to_fraction(x):
    man, exp = x.man_exp  # some mpmath versions drop the mantissa's sign here
    return (-1 if x < 0 else 1) * abs(man) * Fraction(2) ** exp


@settings(max_examples=300, deadline=None)
@given(numerator_denominator(), st.sampled_from((16, 128, 256)))
@example((1, (1 << 512) - 1), 16)
@example(((1 << 512) - 1, 1), 256)
@example((3, 4), 16)
@example((5, 5), 128)
@example((1, 1 << 511), 128)
def test_log_of_fraction_one_series_encloses_ln(nd, bits):
    n, d = nd
    enc = log_of_fraction(Fraction(n, d), bits)
    with mp.workprec(1200):
        ln = mpf_to_fraction(mp.log(mp.mpf(n) / mp.mpf(d)))
    slack = Fraction(1, 1 << 1100)  # mpmath's own rounding at 1200 bits
    assert enc.lo - slack <= ln <= enc.hi + slack
    assert enc.width <= Fraction(1, 1 << bits)


def test_cf_convergents_integer_cutoffs_match_fraction_comparison():
    # _expand compares the integer Q and P with the ceilings of the cutoffs;
    # a cutoff on a convergent's Q or P, or 10^-30 either side of it, must
    # select what comparing with the exact Fraction selects.
    big = 10 ** 20
    full = cf_convergents(2, 3, Q_cut=big, P_cut=big)

    def selected(Q_cut, P_cut):
        for i, c in enumerate(full):
            if not (c.Q < Q_cut and c.P < P_cut):
                return full[:i + 1]
        raise AssertionError("reference expansion too short")

    eps = Fraction(1, 10 ** 30)
    for c in full[:-1]:
        for shift in (0, eps, -eps):
            Q_cut = Fraction(c.Q) + shift
            assert cf_convergents(2, 3, Q_cut, big) == selected(Q_cut, big)
            P_cut = Fraction(c.P) + shift
            assert cf_convergents(2, 3, big, P_cut) == selected(big, P_cut)


def mp_ln(x):
    with mp.workprec(1200):
        return mpf_to_fraction(mp.log(mp.mpf(x.numerator) / mp.mpf(x.denominator)))


@st.composite
def near_table_point(draw):
    # r = 1 + i/32, exactly or 2^-300 either side, times 2^e.
    i = draw(st.integers(0, 31))
    side = draw(st.sampled_from((-1, 0, 1)))
    r = Fraction(32 + i, 32) + side * Fraction(1, 1 << 300)
    return r * Fraction(2) ** draw(st.integers(-600, 600))


_TIGHT_BITS = 128


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_table_point(),
                 st.fractions(min_value=Fraction(1, 1 << 40), max_value=1 << 40)),
       st.sampled_from((16, 128, 256, 1024)))
@example(Fraction(2) - Fraction(1, 1 << 300), 1024)  # r just below 2
@example(Fraction(1), 16)                            # n = d
@example(Fraction(3, 4), 256)                        # n < d
@example(Fraction(129, 127), _TIGHT_BITS)            # x = 2^-7 exactly: whole terms
# x = 2^-w exactly: one whole term, so only the tail rule keeps hi above ln.
@example(Fraction((1 << _TIGHT_BITS + diolog._GUARD_BITS) + 1,
                  (1 << _TIGHT_BITS + diolog._GUARD_BITS) - 1), _TIGHT_BITS)
def test_log_of_fraction_table_reduction_encloses_ln(x, bits):
    enc = log_of_fraction(x, bits)
    ln = mp_ln(x)
    slack = Fraction(1, 1 << 1100)  # mpmath's own rounding at 1200 bits
    assert enc.lo - slack <= ln <= enc.hi + slack
    assert enc.width <= Fraction(1, 1 << bits)


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=1, max_value=1 + Fraction(1, 32), max_denominator=1 << 512),
       st.sampled_from((16, 128, 256, 1024)))
def test_log_of_fraction_first_table_interval_is_tight(x, bits):
    # Below 1 + 1/32 neither ln 2 nor the table adds slack, so the series'
    # own floors and ceilings decide which side of ln(x) each end falls.
    enc = log_of_fraction(x, bits)
    ln = mp_ln(x)
    slack = Fraction(1, 1 << 1100)
    assert enc.lo - slack <= ln <= enc.hi + slack


def exact_series_log(n, w):
    # ln(n) * 2^w by the exact-ratio atanh series, copied from the reduction
    # certified_log uses: n = 2^e * r with r in [1, 2), and ln(r) =
    # 2 atanh((r-1)/(r+1)) with (floor, ceil) powers of the exact ratio.
    def atanh(a, b):
        if a == 0:
            return 0, 0
        lo, hi = (a << w) // b, -((-(a << w)) // b)
        s_lo = s_hi = 0
        d = 1
        while True:
            s_lo += lo // d
            s_hi += -((-hi) // d)
            if hi <= 8:
                return s_lo, s_hi + 2
            lo = lo * a * a // (b * b)
            hi = -((-hi * a * a) // (b * b))
            d += 2

    e = n.bit_length() - 1
    l2_lo, l2_hi = atanh(1, 3)
    at_lo, at_hi = atanh(n - (1 << e), n + (1 << e))
    return 2 * e * l2_lo + 2 * at_lo, 2 * e * l2_hi + 2 * at_hi


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 1 << 64), st.sampled_from((16, 128, 256, 1024)))
@example(2, 128)
@example(3, 256)
def test_certified_log_keeps_the_exact_series(n, bits):
    enc = certified_log(n, bits)
    assert (enc.m_lo, enc.m_hi) == exact_series_log(n, enc.w)

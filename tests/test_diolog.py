import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from sqsearch import diolog
from sqsearch.arith import PrimePair, is_prime
from sqsearch.diolog import (
    Convergent,
    PrecisionError,
    certified_log,
    linear_form_gap,
    log_of_fraction,
    log_upper,
    product,
)

mp.dps = 60

PAIR_23 = PrimePair.of(2, 3)


def cf_convergents(p, q, Q_cut, P_cut, bits=256):
    # The continued-fraction expansion that linear_form_gap runs, at one
    # fixed precision: convergents of log q / log p with Q < Q_cut and
    # P < P_cut, plus the first one past either cutoff.
    return diolog._expand(certified_log(p, bits), certified_log(q, bits),
                          Fraction(Q_cut), Fraction(P_cut))[0]


def ends(enclosure, bits):
    # The exact rational ends of a mantissa pair made at precision bits.
    unit = Fraction(1, 1 << diolog.scale(bits))
    return enclosure[0] * unit, enclosure[1] * unit


def mp_contains(lo_hi, value):
    lo, hi = lo_hi
    return lo <= Fraction(str(value)) <= hi


def test_certified_log_known_constants():
    for n in (2, 3, 10, 97):
        lo, hi = ends(certified_log(n, 64), 64)
        assert mp_contains((lo, hi), mp.nstr(mp.log(n), 40))
        assert hi - lo <= Fraction(1, 2 ** 64) * max(1, lo)


def test_certified_log_ln8_is_three_ln2():
    e2 = certified_log(2, 64)
    e8 = certified_log(8, 64)
    assert 3 * e2[0] <= e8[1] and e8[0] <= 3 * e2[1]  # overlap forced by ln 8 = 3 ln 2


def test_certified_log_monotone_refinement():
    coarse = ends(certified_log(17, 32), 32)
    fine = ends(certified_log(17, 128), 128)
    assert coarse[0] <= fine[0] and fine[1] <= coarse[1]
    assert fine[1] - fine[0] <= coarse[1] - coarse[0]


def test_certified_log_enclosure_soundness_random():
    # The 4x-precision enclosure must sit inside the coarse one.
    import random
    rng = random.Random(7)
    for bits in (32, 64, 128):
        for _ in range(25):
            n = rng.randrange(2, 10 ** 6)
            coarse = ends(certified_log(n, bits), bits)
            fine = ends(certified_log(n, 4 * bits), 4 * bits)
            assert coarse[0] <= fine[0] and fine[1] <= coarse[1]


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
        lp = ends(certified_log(2, bits), bits)
        lq = ends(certified_log(3, bits), bits)
        for c in cert.convergents_checked:
            lo = c.P * lp[0] - c.Q * lq[1]
            hi = c.P * lp[1] - c.Q * lq[0]
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


def _skip_draws(n, seed):
    # (pair, B): for half the draws, B is a random 48-bit fraction times 10^k,
    # k <= 60; for the other half, B puts eps * (2B / log q)^2 in [1/2, 1) at
    # the 128- or 256-bit rung, the band where a rule loose by a factor of 2
    # in eps would skip a rung that succeeds.
    rng = random.Random(seed)
    primes = [r for r in range(2, 10 ** 4) if is_prime(r)]
    primes += [999983, 1000003, 99999989, 999999937]
    draws = []
    for i in range(n):
        p, q = sorted(rng.sample(primes, 2))
        if i % 2:
            B = Fraction(rng.randrange(1 << 48), 1 << 48) * 10 ** rng.randrange(61)
            B = max(B, Fraction(1))
        else:
            bits = 128 << i % 4 // 2
            lp, lq = (ends(certified_log(r, bits), bits) for r in (p, q))
            eps = lq[1] / lp[0] - lq[0] / lp[1]
            target = rng.uniform(0.5, 1.0) / float(eps)
            B = Fraction(int(target ** 0.5 * float(lq[0]) / 2) + 1)
        draws.append((PrimePair.of(p, q), B))
    return draws


def test_linear_form_gap_skips_only_rungs_that_must_fail(monkeypatch):
    # The cylinder rule of _must_fail: every rung it skips is one where
    # _expand raises _Ambiguous, and with skipping turned off the loop
    # certifies at the same rung with the same delta and convergents.
    must_fail = diolog._must_fail
    skipping = True
    skipped = []

    def spy(lp, lq, Q_cut, P_cut):
        if skipping and must_fail(lp, lq, Q_cut, P_cut):
            skipped.append((lp, lq, Q_cut, P_cut))
            return True
        return False

    monkeypatch.setattr(diolog, "_must_fail", spy)
    draws = _skip_draws(2000, 20261019)
    for pair, B in draws:
        skipping = True
        cert = linear_form_gap(pair, B)
        skipping = False
        assert linear_form_gap(pair, B) == cert, (pair, B)
    assert len(skipped) > len(draws) // 4
    for args in skipped:
        with pytest.raises(diolog._Ambiguous):
            diolog._expand(*args)


def _expand_before(lp, lq, Q_cut, P_cut):
    # The expansion as it was before it carried the linear forms: the same
    # convergents and guard, then the minimum of each pool member's form by
    # four products, with the guard left out unless it stands alone.
    (n_lo, n_hi), (d_hi, d_lo) = lq, lp
    out = []
    P0, P1, Q0, Q1 = 1, 0, 0, 1
    while True:
        a, r_lo = divmod(n_lo, d_lo)
        if n_hi // d_hi != a:
            return "quotient"
        P, Q = a * P0 + P1, a * Q0 + Q1
        out.append(Convergent(P=P, Q=Q))
        if not (Q < Q_cut and P < P_cut):
            break
        P1, P0, Q1, Q0 = P0, P, Q0, Q
        if r_lo == 0:
            return "quotient"
        n_lo, d_lo, n_hi, d_hi = d_hi, n_hi - a * d_hi, d_lo, r_lo
    lows = []
    for c in out[:-1] if len(out) > 1 else out:
        lo, hi = c.P * lp[0] - c.Q * lq[1], c.P * lp[1] - c.Q * lq[0]
        if lo <= 0 <= hi:
            return "sign"
        lows.append(lo if lo > 0 else -hi)
    return out, min(lows)


def _expand_outcome(lp, lq, Q_cut, P_cut):
    try:
        return diolog._expand(lp, lq, Q_cut, P_cut)
    except diolog._Ambiguous:
        return None


def test_expand_carries_the_linear_forms_of_the_products():
    # 2400 seeded (pair, B, rung) draws with linear_form_gap's cutoffs, half
    # of them near the edge of ambiguity: the fused expansion returns the
    # same convergents and minimum, and raises exactly where the products
    # left a quotient or a sign undecided.
    rng = random.Random(20261020)
    outcomes = Counter()
    for pair, B in _skip_draws(2400, 20261020):
        bits = rng.choice((64, 128, 256, 512))
        w = diolog.scale(bits)
        lp, lq = certified_log(pair.p, bits), certified_log(pair.q, bits)
        Q_cut = -(-(2 * B.numerator << w) // (B.denominator * lq[0]))
        P_cut = -(-(2 * B.numerator << w) // (B.denominator * lp[0]))
        expected = _expand_before(lp, lq, Q_cut, P_cut)
        got = _expand_outcome(lp, lq, Q_cut, P_cut)
        assert got == (None if isinstance(expected, str) else expected), (pair, B, bits)
        outcomes[expected if isinstance(expected, str) else len(expected[0]) > 1] += 1
    assert min(outcomes[k] for k in ("quotient", True, False)) >= 20, outcomes


@pytest.mark.parametrize("lp,lq,Q_cut,P_cut,expected", [
    # A lone guard whose form's interval ends at 0: the sign alone is open.
    ((100, 101), (303, 310), 1, 10, "sign"),
    ((100, 101), (303, 310), 2, 10, "quotient"),
    ((100, 101), (304, 310), 1, 10, "ok"),
    ((100, 101), (304, 310), 2, 10, "quotient"),
    ((1000, 1001), (3010, 3011), 1, 10, "ok"),
])
def test_expand_sign_of_a_lone_guard(lp, lq, Q_cut, P_cut, expected):
    # On real enclosures a form whose sign is open has a zero remainder,
    # which stops the expansion anyway; only a lone guard skips that test.
    before = _expand_before(lp, lq, Q_cut, P_cut)
    assert (before if isinstance(before, str) else "ok") == expected
    assert _expand_outcome(lp, lq, Q_cut, P_cut) == (None if expected != "ok" else before)


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
    lo, hi = ends(log_of_fraction(n, d, bits), bits)
    with mp.workprec(1200):
        ln = mpf_to_fraction(mp.log(mp.mpf(n) / mp.mpf(d)))
    slack = Fraction(1, 1 << 1100)  # mpmath's own rounding at 1200 bits
    assert lo - slack <= ln <= hi + slack
    assert hi - lo <= Fraction(1, 1 << bits)


@settings(max_examples=300, deadline=None)
@given(numerator_denominator(), st.sampled_from((16, 128, 256, 1024)))
@example((1, (1 << 512) - 1), 16)
@example(((1 << 512) - 1, 1), 256)
@example((3, 4), 16)
@example((5, 5), 128)
@example((1, 1 << 511), 1024)
def test_log_upper_is_the_high_end(nd, bits):
    n, d = nd
    assert log_upper(n, d, bits) == log_of_fraction(n, d, bits)[1]


def test_cf_convergents_integer_cutoffs_match_fraction_comparison():
    # linear_form_gap hands _expand the integer ceilings of its cutoffs, and
    # _expand compares Q and P with whatever cutoff it is given; a cutoff on
    # a convergent's Q or P, or 10^-30 either side of it, must select what
    # comparing with the exact Fraction selects.
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
@example(Fraction((1 << diolog.scale(_TIGHT_BITS)) + 1,
                  (1 << diolog.scale(_TIGHT_BITS)) - 1), _TIGHT_BITS)
def test_log_of_fraction_table_reduction_encloses_ln(x, bits):
    lo, hi = ends(log_of_fraction(x.numerator, x.denominator, bits), bits)
    ln = mp_ln(x)
    slack = Fraction(1, 1 << 1100)  # mpmath's own rounding at 1200 bits
    assert lo - slack <= ln <= hi + slack
    assert hi - lo <= Fraction(1, 1 << bits)


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=1, max_value=1 + Fraction(1, 32), max_denominator=1 << 512),
       st.sampled_from((16, 128, 256, 1024)))
def test_log_of_fraction_first_table_interval_is_tight(x, bits):
    # Below 1 + 1/32 neither ln 2 nor the table adds slack, so the series'
    # own floors and ceilings decide which side of ln(x) each end falls.
    lo, hi = ends(log_of_fraction(x.numerator, x.denominator, bits), bits)
    ln = mp_ln(x)
    slack = Fraction(1, 1 << 1100)
    assert lo - slack <= ln <= hi + slack


def exact_atanh(a, b, w):
    # atanh(a/b) * 2^w by the exact-ratio series, with (floor, ceil) powers
    # of the exact ratio.
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


def exact_series_log(n, w):
    # ln(n) * 2^w by the exact-ratio atanh series, copied from the reduction
    # certified_log uses: n = 2^e * r with r in [1, 2), and ln(r) =
    # 2 atanh((r-1)/(r+1)).
    e = n.bit_length() - 1
    l2_lo, l2_hi = exact_atanh(1, 3, w)
    at_lo, at_hi = exact_atanh(n - (1 << e), n + (1 << e), w)
    return 2 * e * l2_lo + 2 * at_lo, 2 * e * l2_hi + 2 * at_hi


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 1 << 64), st.sampled_from((16, 128, 256, 1024)))
@example(2, 128)
@example(3, 256)
def test_certified_log_keeps_the_exact_series(n, bits):
    assert certified_log(n, bits) == exact_series_log(n, diolog.scale(bits))


def table_series_log(n, d, w):
    # ln(n/d) * 2^w by the table-reduced series, copied from log_of_fraction:
    # n/d = 2^e * r with r in [1, 2), c = k/32 with k = floor(32 r), ln c by
    # the exact series, and atanh((r-c)/(r+c)) on w-bit mantissa powers:
    # low ends floored, high ends ceiled.
    e = n.bit_length() - d.bit_length()
    num, den = (n, d << e) if e >= 0 else (n << -e, d)
    if num < den:
        e, num = e - 1, num << 1
    l2_lo, l2_hi = exact_atanh(1, 3, w)
    e_lo, e_hi = (2 * e * l2_lo, 2 * e * l2_hi) if e >= 0 else (2 * e * l2_hi, 2 * e * l2_lo)
    k = 32 * num // den
    a, b = 32 * num - k * den, 32 * num + k * den
    lo, hi = (a << w) // b, -(-(a << w) // b)
    sq_lo, sq_hi = lo * lo >> w, -(-(hi * hi) >> w)
    s_lo = s_hi = 0
    j = 1
    while hi > 8:
        s_lo += lo // j
        s_hi += -(-hi // j)
        lo = lo * sq_lo >> w
        hi = -(-(hi * sq_hi) >> w)
        j += 2
    s_lo += lo // j
    s_hi += -(-hi // j) + 2
    c_lo, c_hi = exact_atanh(k - 32, k + 32, w)
    return e_lo + 2 * (c_lo + s_lo), e_hi + 2 * (c_hi + s_hi)


@settings(max_examples=300, deadline=None)
@given(numerator_denominator(), st.sampled_from((128, 256, 1024)))
@example((1, 1), 128)                                  # n = d: no series terms
@example(((1 << 512) - 1, 1 << 511), 1024)             # r just below 2
@example((3, 4), 256)                                  # n < d
@example((129, 127), 128)                              # t = 2^-7: whole terms
@example(((1 << 160) + 1, (1 << 160) - 1), 128)        # t = 2^-w: one term
@example((33 * (1 << 300) + 1, 32 << 300), 256)        # just above a table point
@example((63 * (1 << 300) - 1, 32 << 300), 1024)       # just below the last one
# The ceiling of t^2's high end decides a last bit here; on random ratios it
# does so about once in 500.
@example((3, 167), 128)
@example((19, 73), 256)
@example((13, 159), 1024)
def test_log_of_fraction_keeps_the_table_series(nd, bits):
    # The outward rounding of each power must not flip: a flipped power
    # still encloses ln(n/d) on most inputs, so it shows only here.
    n, d = nd
    assert log_of_fraction(n, d, bits) == table_series_log(n, d, diolog.scale(bits))


# -- enclosures and diolog.product -------------------------------------------
# An enclosure is a (lo, hi) pair of integer mantissas at one scale 2^-w.
# The product must enclose the exact rational result computed from the
# operands' endpoints and may exceed it by at most one unit of 2^-w per side.

MANTISSA = st.integers(min_value=-(1 << 200), max_value=1 << 200)
SCALE = st.integers(min_value=0, max_value=256)


@st.composite
def enclosures(draw):
    a, b = draw(MANTISSA), draw(MANTISSA)
    return min(a, b), max(a, b)


@settings(max_examples=300)
@given(enclosures(), enclosures(), SCALE)
def test_product_encloses_exact_endpoint_products(x, y, w):
    out = product(x, y, w)
    unit = Fraction(1, 1 << w)
    products = [a * b * unit * unit for a in x for b in y]
    lo, hi = min(products), max(products)
    # out encloses [lo, hi] and overshoots each side by at most 2^-w.
    assert out[0] * unit <= lo <= hi <= out[1] * unit
    assert lo - out[0] * unit <= unit and out[1] * unit - hi <= unit


def test_empty_enclosure_rejected(monkeypatch):
    # A planted series whose ends come out inverted by 2^w: each function
    # that makes an enclosure refuses it rather than return it.
    def inverted(*args):
        return 1 << args[-1], 0

    monkeypatch.setattr(diolog, "_ln_scaled", inverted)
    monkeypatch.setattr(diolog, "_ln_table", inverted)
    with pytest.raises(ValueError, match="empty enclosure"):
        certified_log.__wrapped__(3, 128)
    with pytest.raises(ValueError, match="empty enclosure"):
        log_of_fraction(3, 1, 128)

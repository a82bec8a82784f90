import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from sqsearch import diolog
from sqsearch import reduce as reduce_module
from sqsearch.arith import PrimePair, is_prime
from sqsearch.diolog import PrecisionError, linear_form_gap
from sqsearch.reduce import (
    exponent_box,
    initial_bound,
    reduce_full,
    reduce_once,
)
from sqsearch.search import search_pair

mp.dps = 60

PAIR_23 = PrimePair.of(2, 3)
PAIR_25 = PrimePair.of(2, 5)
PAIR_27 = PrimePair.of(2, 7)
PAIR_35 = PrimePair.of(3, 5)


def mp_baker_majorant(p, q, y):
    lpq = mp.log(p) * mp.log(q)
    ll = mp.log(y)
    return (mp.mpf("1.36e23") * lpq ** 3 * (mp.mpf("1.63") + ll)
            * (mp.mpf("2.71") + ll) * (mp.mpf("2.08") - mp.log(lpq) + ll) ** 2)


def test_initial_bound_23_matches_paper_band():
    X = initial_bound(PAIR_23)
    assert Fraction(15, 10) * 10 ** 30 <= X <= Fraction(17, 10) * 10 ** 30


def test_initial_bound_monotone_in_q():
    assert initial_bound(PAIR_27) > initial_bound(PAIR_23)


def test_initial_bound_35_against_independent_majorant():
    X = initial_bound(PAIR_35)
    x = mp.mpf(X.numerator) / X.denominator
    assert mp_baker_majorant(3, 5, x) < x
    assert mp_baker_majorant(3, 5, x / mp.mpf("1.01")) > x / mp.mpf("1.01")


def test_reduce_once_from_huge_bound():
    step = reduce_once(PAIR_23, Fraction(16, 10) * 10 ** 30)
    assert Fraction("142.93") <= step.B2 <= Fraction("174.70")  # 158.812 +- 10%


def test_reduce_once_from_158_812():
    step = reduce_once(PAIR_23, Fraction("158.812"))
    assert Fraction("18.7") <= step.B2 <= Fraction("25.3")  # approx 22 +- 15%


def test_reduce_once_from_21_966():
    step = reduce_once(PAIR_23, Fraction("21.966"))
    assert Fraction(17) <= step.B2 <= Fraction("21.97")


def test_reduce_once_rejects_small_bound():
    with pytest.raises(ValueError):
        reduce_once(PAIR_23, Fraction(1, 2))


def test_reduce_full_23_chain_shape():
    trace = reduce_full(PAIR_23)
    assert 1 <= len(trace.steps) <= 4
    assert trace.steps[0].B_in == trace.B0
    assert Fraction(140) <= trace.steps[0].B2 <= Fraction(175)
    assert Fraction(17) <= trace.final_bound <= Fraction(22)
    b2s = [s.B2 for s in trace.steps]
    assert all(b2s[i] > b2s[i + 1] for i in range(len(b2s) - 1))
    assert trace.final_bound == min([trace.B0] + b2s)
    for i in range(1, len(trace.steps)):
        assert trace.steps[i].B_in == trace.steps[i - 1].B2


def test_reduce_full_deterministic():
    a = reduce_full(PAIR_23)
    b = reduce_full(PAIR_23)
    assert a == b


def test_reduce_full_monotone_stop():
    # Only the final recorded step may fall below the stop threshold.
    for pair in (PAIR_23, PAIR_25, PAIR_27):
        trace = reduce_full(pair)
        for s in trace.steps[:-1]:
            assert s.improvement >= Fraction(1, 10) * s.B_in
        last = trace.steps[-1]
        assert last.improvement < Fraction(1, 10) * last.B_in


def test_reduce_full_25_final_bound():
    trace = reduce_full(PAIR_25)
    assert trace.final_bound < 60


def mp_reduce_once(p, q, u_p, u_q, B):
    # Independent reimplementation of one reduction step at 60 digits,
    # mirroring the cutoff and 0.999 conventions.
    lp, lq = mp.log(p), mp.log(q)
    t = lq / lp
    P0, P1, Q0, Q1 = 1, 0, 0, 1
    best = None
    while True:
        a = int(mp.floor(t))
        P, Q = a * P0 + P1, a * Q0 + Q1
        if not (Q < 2 * B / lq and P < 2 * B / lp):
            break
        lam = abs(P * lp - Q * lq)
        best = lam if best is None else min(best, lam)
        P1, P0, Q1, Q0 = P0, P, Q0, Q
        t = 1 / (t - a)
    delta = mp.mpf("0.999") * best
    B1 = max(mp.log(2 / delta), mp.log(8 * B / (lp * lq)))
    return 2 * B1 + u_q * lq + u_p * lp + mp.log(2 * B1 ** 2 / (lp * lq))


def test_reduce_once_matches_independent_reimplementation():
    for B in (100, 1000, Fraction("38.5")):
        step = reduce_once(PAIR_25, Fraction(B))
        oracle = mp_reduce_once(2, 5, PAIR_25.u_p, PAIR_25.u_q,
                                mp.mpf(Fraction(B).numerator) / Fraction(B).denominator)
        assert abs(float(step.B2) - float(oracle)) < 1e-6 * float(oracle)


def test_exponent_box_23_caps():
    trace = reduce_full(PAIR_23)
    box = exponent_box(trace)
    assert box.a12_cap <= 9 and box.b12_cap <= 6
    assert box.a_cap <= 29 and box.b_cap <= 18
    # must still admit the largest exponents of the five ground-truth triples
    assert box.a12_cap >= 5 and box.b12_cap >= 2
    assert box.a_cap >= 8 and box.b_cap >= 6
    assert box.a12_cap <= box.a_cap and box.b12_cap <= box.b_cap
    assert (box.a12_cap + 1) * (box.b12_cap + 1) <= 70


def test_exponent_box_rounding_direction():
    trace = reduce_full(PAIR_23)
    coarse = exponent_box(dataclasses.replace(trace, precision_bits=128))
    fine = exponent_box(dataclasses.replace(trace, precision_bits=256))
    assert fine.a12_cap <= coarse.a12_cap
    assert fine.b12_cap <= coarse.b12_cap
    assert fine.a_cap <= coarse.a_cap
    assert fine.b_cap <= coarse.b_cap


def test_reduce_full_respects_custom_policy(monkeypatch):
    monkeypatch.setattr(diolog, "START_BITS", 256)
    trace = reduce_full(PAIR_23)
    assert Fraction(17) <= trace.final_bound <= Fraction(22)


def test_reduce_full_precision_cap_below_initial_bound_floor(monkeypatch):
    # initial_bound reads reduce's own START_BITS and still works at 128
    # bits; the first gap, at B0 ~ 1.6e30, needs more than this cap.
    monkeypatch.setattr(diolog, "START_BITS", 32)
    monkeypatch.setattr(diolog, "MAX_BITS", 64)
    with pytest.raises(PrecisionError):
        reduce_full(PAIR_23)


def test_default_ladder_climbs_on_real_input():
    # {2,3}'s first gap, at B0 ~ 1.6e30, is undecided at 128 bits and is
    # certified one rung up; at the final bound 128 bits suffice.
    trace = reduce_full(PAIR_23)
    assert linear_form_gap(PAIR_23, initial_bound(PAIR_23)).precision_bits == 256
    assert linear_form_gap(PAIR_23, trace.final_bound).precision_bits == 128
    assert trace.precision_bits == 128


# initial_bound and the exact delta of every reduction step, as the pipeline
# produced them before the per-pair constants were cached per rung and before
# log_of_fraction took one series per rational.  B0 reads the majorant only
# through comparisons with integers, and each delta reads only certified_log
# and the cutoff comparisons, so neither may move.
PINNED_B0_DELTAS = {
    (2, 3): (1596942650678140554619870248960, (
        "190109097350673756309128324075433576587069817229459423389/9946464728195732843107644962936416802009123015946954348809279537863189940250667510661120",
        "304875707527629026497899165665250926335237817133/146150163733090291820368483271628301965593254297600",
        "334725910744917551396386509176678820089623434699/29230032746618058364073696654325660393118650859520",
        "1978505261252216783479831711548645026783356416201/146150163733090291820368483271628301965593254297600",
    )),
    (3, 5): (22599833357193902298558411833344, (
        "3366276466899558159008139949666414698240662245230932144937/124330809102446660538845562036705210025114037699336929360115994223289874253133343883264000",
        "337947638306520535910233411707436788153340260471/365375409332725729550921208179070754913983135744000",
        "509219369569112985684651049378615476010198658511/18268770466636286477546060408953537745699156787200",
        "509219369569112985684651049378615476010198658511/18268770466636286477546060408953537745699156787200",
    )),
    (281, 293): (198605354838957156791291484592668672, (
        "698229849224129603691199645701874861631124702610349871/248661618204893321077691124073410420050228075398673858720231988446579748506266687766528000",
        "15263967582415598106941046651377945291624788439943/365375409332725729550921208179070754913983135744000",
        "15263967582415598106941046651377945291624788439943/365375409332725729550921208179070754913983135744000",
    )),
    (2, 9973): (1270185901428685860299696611786752, (
        "14106150922642481048015663675915780649285431241584641749/248661618204893321077691124073410420050228075398673858720231988446579748506266687766528000",
        "3369316101201872963536461046273804852770806951667/365375409332725729550921208179070754913983135744000",
        "13687337799158992066399707578579583934151676741591/146150163733090291820368483271628301965593254297600",
        "13687337799158992066399707578579583934151676741591/146150163733090291820368483271628301965593254297600",
    )),
    (99989, 99991): (16823041821652841516438808106673111040, (
        "252880769908944050980323903995358874762344384849087327/124330809102446660538845562036705210025114037699336929360115994223289874253133343883264000",
        "7300930771788427617125017099297643226389207151/365375409332725729550921208179070754913983135744000",
        "7300930771788427617125017099297643226389207151/365375409332725729550921208179070754913983135744000",
    )),
}


@pytest.mark.parametrize("pq", list(PINNED_B0_DELTAS), ids=lambda pq: f"{pq[0]}-{pq[1]}")
def test_initial_bound_and_deltas_pinned(pq):
    B0, deltas = PINNED_B0_DELTAS[pq]
    trace = reduce_full(PrimePair.of(*pq))
    assert trace.B0 == B0
    assert tuple(s.delta for s in trace.steps) == tuple(map(Fraction, deltas))


def test_low_rung_reduction_reads_constants_at_its_rung(monkeypatch):
    # Gaps certified at 16 bits make _b1_b2 read the pair constants at 16
    # bits, while initial_bound, through reduce's own START_BITS, still
    # reads them at 128 bits.
    monkeypatch.setattr(diolog, "START_BITS", 16)
    trace = reduce_full(PAIR_23)
    assert trace.precision_bits == 16
    assert Fraction(17) <= trace.final_bound <= Fraction(22)
    report = search_pair(PAIR_23)
    assert [(t.a, t.b, t.c) for t in report.triples] == [
        (1, 3, 5), (1, 5, 7), (1, 7, 23), (1, 15, 17), (1, 31, 47)]


def doubling_initial_bound(pair):
    # The upward grid scan that initial_bound's fixed-point start replaced:
    # double hi from 16 until F(hi) < hi, then the same bisection.
    f = reduce_module._f_upper
    bits = reduce_module.START_BITS
    lo, hi = 4, 16
    while not f(hi, pair, bits) < hi:
        lo = hi
        hi *= 2
        if hi > 1 << 4096:
            raise ArithmeticError("no crossing found; inputs out of range")
    while hi - lo > max(1, hi // 1000):
        mid = (lo + hi) // 2
        if f(mid, pair, bits) < mid:
            hi = mid
        else:
            lo = mid
    return Fraction(hi)


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


_PRIMES_BELOW_1E6 = st.integers(min_value=2, max_value=999_983).map(_next_prime)


@given(_PRIMES_BELOW_1E6, _PRIMES_BELOW_1E6)
@settings(max_examples=40, deadline=None)
def test_initial_bound_equals_doubling_scan(a, b):
    assume(a != b)
    pair = PrimePair.of(min(a, b), max(a, b))
    assert initial_bound(pair) == doubling_initial_bound(pair)


@pytest.mark.parametrize("majorant", [
    lambda x: x // 2 + 1000,  # iterates stay far above the crossing
    lambda x: 20 if x < 30 or x >= 200 else 1000,  # iterates land below it
], ids=["steps-down", "steps-up"])
def test_initial_bound_stepping_loops_match_doubling_scan(monkeypatch, majorant):
    # On the real majorant four iterates almost always land on the scan's
    # grid point; these stand-ins make each stepping loop do the work.
    monkeypatch.setattr(reduce_module, "_f_upper",
                        lambda x, pair, bits: Fraction(majorant(x)))
    assert initial_bound(PAIR_23) == doubling_initial_bound(PAIR_23)


@pytest.mark.parametrize("pq", [(2, 3), (3, 5), (281, 293), (2, 9973),
                                (99989, 99991), (2, 999999937)],
                         ids=lambda pq: f"{pq[0]}-{pq[1]}")
def test_initial_bound_majorant_evaluations(monkeypatch, pq):
    # The doubling scan took about 126 evaluations per pair.
    calls = []
    f = reduce_module._f_upper

    def counting(x, pair, bits):
        calls.append(x)
        return f(x, pair, bits)

    monkeypatch.setattr(reduce_module, "_f_upper", counting)
    initial_bound(PrimePair.of(*pq))
    assert len(calls) <= 20


def test_initial_bound_out_of_range_raises(monkeypatch):
    # F(x) >= x everywhere: no crossing at or below the cap 2^4096.
    monkeypatch.setattr(reduce_module, "_f_upper", lambda x, pair, bits: Fraction(x))
    with pytest.raises(ArithmeticError, match="out of range"):
        initial_bound(PAIR_23)


def enclosure_formulas(pair, x, B, cert):
    # _f_upper and _b1_b2 as CertifiedReal and Fraction formulas over the same
    # log enclosures that the integer code reads.
    from sqsearch.diolog import CertifiedReal, certified_log, log_of_fraction

    def at(bits):
        lp, lq = certified_log(pair.p, bits), certified_log(pair.q, bits)
        lpq = lp * lq
        ln_lpq = CertifiedReal(log_of_fraction(lpq.lo, bits).m_lo,
                               log_of_fraction(lpq.hi, bits).m_hi, lp.w)
        return lp, lq, lpq, ln_lpq

    lp, lq, lpq, ln_lpq = at(reduce_module.START_BITS)
    c = Fraction(136, 100) * 10 ** 23 * lpq * lpq * lpq
    lx = log_of_fraction(x, reduce_module.START_BITS)
    t3 = lx + Fraction(208, 100) - ln_lpq
    F = (c * (lx + Fraction(163, 100)) * (lx + Fraction(271, 100)) * (t3 * t3)).hi
    bits = cert.precision_bits
    lp, lq, lpq, ln_lpq = at(bits)
    B1 = max(log_of_fraction(2 / cert.delta, bits).hi,
             (log_of_fraction(8 * B, bits) - ln_lpq).hi)
    tail = (log_of_fraction(2 * B1 * B1, bits) - ln_lpq).hi
    B2 = 2 * B1 + pair.u_q * lq.hi + pair.u_p * lp.hi + tail
    return F, B1, B2


@given(_PRIMES_BELOW_1E6, _PRIMES_BELOW_1E6, st.integers(4, 1 << 128),
       st.fractions(min_value=2, max_value=10 ** 36, max_denominator=10 ** 12))
@settings(max_examples=40, deadline=None)
def test_integer_chain_equals_enclosure_formulas(a, b, x, B):
    assume(a != b)
    pair = PrimePair.of(min(a, b), max(a, b))
    cert = linear_form_gap(pair, B)
    F, B1, B2 = enclosure_formulas(pair, x, B, cert)
    assert reduce_module._f_upper(x, pair, reduce_module.START_BITS) == F
    assert reduce_module._b1_b2(pair, B, cert) == (B1, B2)

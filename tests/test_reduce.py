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


@pytest.mark.parametrize("pq,extra", [((2, 43), 0), ((2, 3), 1)], ids=["2-43", "2-3"])
def test_reduce_full_certifies_each_bound_once(monkeypatch, pq, extra):
    # {2,43}'s last step does not improve, so it already holds the final B1;
    # {2,3} stops on a small improvement and needs one gap at its last B2.
    calls = []

    def counting(pair, B):
        calls.append(B)
        return linear_form_gap(pair, B)

    monkeypatch.setattr(reduce_module, "linear_form_gap", counting)
    trace = reduce_full(PrimePair.of(*pq))
    assert (trace.steps[-1].improvement <= 0) == (extra == 0)
    assert len(calls) == len(trace.steps) + extra
    assert len(set(calls)) == len(calls)


def _criteria_sample():
    from random import Random

    from sqsearch.campaign import primes_in_range
    rng = Random(18)
    odd = primes_in_range(3, 299)
    return ([(2, 43), (2, 3)] + [(2, q) for q in rng.sample(primes_in_range(3, 10 ** 4), 12)]
            + [tuple(sorted(rng.sample(odd, 2))) for _ in range(12)])


@pytest.mark.parametrize("pq", _criteria_sample(), ids=lambda pq: f"{pq[0]}-{pq[1]}")
def test_reduce_full_final_B1_and_rungs_as_recertified(pq):
    # The trace's B1 and rung, and each step's rung, are what a fresh gap
    # certificate at that bound gives.
    pair = PrimePair.of(*pq)
    trace = reduce_full(pair)
    cert = linear_form_gap(pair, trace.final_bound)
    assert trace.final_B1 == reduce_module._b1_b2(pair, trace.final_bound, cert)[0]
    assert trace.precision_bits == cert.precision_bits
    for step in trace.steps:
        assert step.precision_bits == linear_form_gap(pair, step.B_in).precision_bits


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


def test_exponent_box_divides_by_low_ends():
    # B = (k * lo + 1) / 2^w puts B / log p just above k when divided by
    # the low end lo of log p, and below k when divided by the high end, so
    # only the low ends give caps that are never too small.
    trace = dataclasses.replace(reduce_full(PAIR_23), precision_bits=128)
    w, lp, lq, _, _ = reduce_module._rung_logs(2, 3, 128)
    k = 7
    for lo, caps in ((lp[0], ("a12_cap", "a_cap")), (lq[0], ("b12_cap", "b_cap"))):
        bound = Fraction(k * lo + 1, 1 << w)
        box = exponent_box(dataclasses.replace(trace, final_bound=bound, final_B1=bound))
        assert [getattr(box, cap) for cap in caps] == [k, k]


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
    w = diolog.scale(reduce_module.START_BITS)  # f is F's high end as a mantissa at 2^-w
    lo, hi = 4, 16
    while not f(hi, pair) < hi << w:
        lo = hi
        hi *= 2
        if hi > 1 << 4096:
            raise ArithmeticError("no crossing found; inputs out of range")
    while hi - lo > max(1, hi // 1000):
        mid = (lo + hi) // 2
        if f(mid, pair) < mid << w:
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
                        lambda x, pair: majorant(x) << diolog.scale(reduce_module.START_BITS))
    assert initial_bound(PAIR_23) == doubling_initial_bound(PAIR_23)


@pytest.mark.parametrize("pq", [(2, 3), (3, 5), (281, 293), (2, 9973),
                                (99989, 99991), (2, 999999937)],
                         ids=lambda pq: f"{pq[0]}-{pq[1]}")
def test_initial_bound_majorant_evaluations(monkeypatch, pq):
    # The doubling scan took about 126 evaluations per pair, the fixed-point
    # start 16; the float bracket leaves one at each of its ends.
    calls = []
    f = reduce_module._f_upper

    def counting(x, pair):
        calls.append(x)
        return f(x, pair)

    monkeypatch.setattr(reduce_module, "_f_upper", counting)
    initial_bound(PrimePair.of(*pq))
    assert len(calls) <= 2


def _b0_population():
    # Every {2, q} with q < 10^4, 1500 seeded pairs below 10^5 and the 300
    # {2, q} with the least primes q above 10^9.
    from random import Random

    from sqsearch.campaign import primes_in_range
    below = primes_in_range(3, 10 ** 5)
    rng = Random(23)
    big = []
    q = 10 ** 9
    while len(big) < 300:
        q += 1
        if is_prime(q):
            big.append((2, q))
    return ([(2, q) for q in below if q < 10 ** 4]
            + [tuple(sorted(rng.sample(below, 2))) for _ in range(1500)] + big)


def test_initial_bound_fast_path_equals_fallback(monkeypatch):
    # The float bracket and its two certified checks give the B0 that the
    # bracket on the certified majorant gives, and no pair falls back.  Both
    # checks evaluate above 2^m_falls, so the product branch of _f_upper
    # never runs in production.
    f = reduce_module._f_upper
    w = diolog.scale(reduce_module.START_BITS)
    calls = []
    monkeypatch.setattr(reduce_module, "_f_upper",
                        lambda x, pair: calls.append(x) or f(x, pair))
    pairs = _b0_population()
    assert len(pairs) >= 3000
    for pq in pairs:
        pair = PrimePair.of(*pq)
        calls.clear()
        B0 = initial_bound(pair)
        assert len(calls) == 2, pq
        m_falls = reduce_module._majorant(*pq)[-1]
        assert all(x.bit_length() > m_falls for x in calls), pq
        certified = reduce_module._bracket(lambda x: Fraction(f(x, pair), 1 << w))
        assert B0 == certified[1], pq


def test_initial_bound_out_of_range_raises(monkeypatch):
    # F(x) >= x everywhere: no crossing at or below the cap 2^4096.
    monkeypatch.setattr(reduce_module, "_f_upper",
                        lambda x, pair: x << diolog.scale(reduce_module.START_BITS))
    with pytest.raises(ArithmeticError, match="out of range"):
        initial_bound(PAIR_23)


def enclosure_formulas(pair, x, B, cert):
    # _f_upper and _b1_b2 as Fraction formulas over the same log enclosures
    # that the integer code reads: intervals are (lo, hi) Fraction ends, and
    # each product and constant is floored or ceiled at 2^-w.
    from sqsearch.diolog import certified_log, log_of_fraction

    def at(bits):
        w = diolog.scale(bits)

        def ends(e):
            return Fraction(e[0], 1 << w), Fraction(e[1], 1 << w)

        def ln(x):
            return ends(log_of_fraction(x.numerator, x.denominator, bits))

        lp, lq = ends(certified_log(pair.p, bits)), ends(certified_log(pair.q, bits))

        def outward(lo, hi):
            return (Fraction(lo * (1 << w) // 1, 1 << w),
                    Fraction(-(-hi * (1 << w) // 1), 1 << w))

        def mul(a, b):
            products = [u * v for u in a for v in b]
            return outward(min(products), max(products))

        lpq = mul(lp, lq)
        ln_lpq = (ln(lpq[0])[0], ln(lpq[1])[1])
        return lp, lq, lpq, ln_lpq, outward, mul, ln

    lp, lq, lpq, ln_lpq, outward, mul, ln = at(reduce_module.START_BITS)
    k = 136 * 10 ** 21
    c = mul(mul((k * lpq[0], k * lpq[1]), lpq), lpq)
    lx = ln(Fraction(x))
    o1, o2, o3 = (outward(Fraction(n, 100), Fraction(n, 100)) for n in (163, 271, 208))
    t1, t2 = ((lx[0] + o[0], lx[1] + o[1]) for o in (o1, o2))
    t3 = (lx[0] + o3[0] - ln_lpq[1], lx[1] + o3[1] - ln_lpq[0])
    F = mul(mul(mul(c, t1), t2), mul(t3, t3))[1]
    bits = cert.precision_bits
    lp, lq, lpq, ln_lpq, outward, mul, ln = at(bits)
    B1 = max(ln(2 / cert.delta)[1], ln(8 * B)[1] - ln_lpq[0])
    tail = ln(2 * B1 * B1)[1] - ln_lpq[0]
    B2 = 2 * B1 + pair.u_q * lq[1] + pair.u_p * lp[1] + tail
    return F, B1, B2


@given(_PRIMES_BELOW_1E6, _PRIMES_BELOW_1E6, st.integers(4, 1 << 128),
       st.fractions(min_value=2, max_value=10 ** 36, max_denominator=10 ** 12))
@settings(max_examples=40, deadline=None)
def test_integer_chain_equals_enclosure_formulas(a, b, x, B):
    assume(a != b)
    pair = PrimePair.of(min(a, b), max(a, b))
    cert = linear_form_gap(pair, B)
    F, B1, B2 = enclosure_formulas(pair, x, B, cert)
    w = diolog.scale(reduce_module.START_BITS)
    assert Fraction(reduce_module._f_upper(x, pair), 1 << w) == F
    assert reduce_module._b1_b2(pair, B, cert) == (B1, B2)


@pytest.mark.parametrize("bits", [16, 128, 256])
def test_b1_is_the_larger_log_on_both_sides_of_the_margin(monkeypatch, bits):
    # Synthetic gaps put 2/delta at, and 2^-e relatively either side of,
    # 8B / lpq with lpq at either end or the middle of its enclosure.  B1 and
    # B2 equal the formulas with both logs taken; one B1 log is skipped when
    # the order is decided (e <= 59), never inside the 2^-60 band (e >= 61)
    # or on a rung of 120 bits or fewer.
    from random import Random

    from sqsearch.diolog import GapCertificate
    rng = Random(bits)
    logs = []
    log_upper = reduce_module.log_upper
    monkeypatch.setattr(reduce_module, "log_upper", lambda *a: logs.append(a) or log_upper(*a))
    for pq in [(2, 3), (3, 5), (2, 999999937), (99989, 99991)]:
        pair = PrimePair.of(*pq)
        w, lp, lq, lpq, ln_lpq = reduce_module._rung_logs(*pq, bits)
        for B in (Fraction(3), Fraction(10 ** 30 + 7, 3),
                  Fraction(rng.randrange(1, 1 << 80), rng.randrange(1, 1 << 20))):
            for L in (lpq[0], lpq[1], (lpq[0] + lpq[1]) // 2):
                pivot = Fraction(2 * L, 8 * B * (1 << w))  # 2 / pivot = 8B / (L 2^-w)
                for e in (None, 8, 50, 59, 60, 61, 70, 200):
                    for sign in (1, -1):
                        delta = pivot * (1 + sign * Fraction(1, 1 << e)) if e else pivot
                        cert = GapCertificate(delta=delta, convergents_checked=(),
                                              precision_bits=bits)
                        logs.clear()
                        got = reduce_module._b1_b2(pair, B, cert)
                        assert got == enclosure_formulas(pair, 16, B, cert)[1:]
                        if bits > 120 and e is not None and e <= 59:
                            assert len(logs) == 2
                        elif bits <= 120 or e is None or e >= 61:
                            assert len(logs) == 3


@pytest.mark.parametrize("pq", [(10949, 95089), (12527, 92753), (4951, 50849)],
                         ids=lambda pq: f"{pq[0]}-{pq[1]}")
def test_reduce_full_ends_before_a_bound_below_1(pq):
    # Each chain reaches a step whose B2 is below 1, where no step can start:
    # that step did not improve, so it ends the chain with its own B_in and B1.
    trace = reduce_full(PrimePair.of(*pq))
    last = trace.steps[-1]
    assert last.B2 < 1 <= last.B_in
    assert all(s.B2 >= 1 for s in trace.steps[:-1])
    assert (trace.final_bound, trace.final_B1) == (last.B_in, last.B1)
    assert trace.precision_bits == last.precision_bits


@pytest.mark.parametrize("pq", [(2, 3), (99989, 99991)], ids=lambda pq: f"{pq[0]}-{pq[1]}")
def test_f_upper_high_ends_equal_the_product_path(pq):
    # Above 2^m_falls, where floor(log2 x) * lo(ln 2) puts every lx + o_i
    # above 4, _f_upper multiplies high ends alone; the outward products on
    # both ends must give the same mantissa.  The range 4 ... 1023 and
    # 2^e - 1, 2^e, 2^e + 1 crosses the switch for both pairs.
    bits = reduce_module.START_BITS
    w, c, o1, o2, o3, m_falls = reduce_module._majorant(*pq)
    product = diolog.product

    def product_path(x):
        lx = diolog.log_of_fraction(x, 1, bits)
        t1, t2, t3 = ((lx[0] + o[0], lx[1] + o[1]) for o in (o1, o2, o3))
        return product(product(product(c, t1, w), t2, w), product(t3, t3, w), w)[1]

    assert m_falls == {(2, 3): 4, (99989, 99991): 10}[pq]
    xs = list(range(4, 1 << 10)) + [(1 << e) + d for e in range(10, 4097, 7) for d in (-1, 0, 1)]
    pair = PrimePair.of(*pq)
    for x in xs:
        assert reduce_module._f_upper(x, pair) == product_path(x), x

import gc
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqsearch.arith import PrimePair, SUnit, as_s_unit
from sqsearch.reduce import ExponentBox, exponent_box, reduce_full
import sqsearch.search as search
from sqsearch.search import (
    QuadrupleWitness,
    ResourceBudgetError,
    Triple,
    brute_force_oracle,
    enumerate_candidate_pairs,
    extend_to_quadruples,
    lemma_predicates,
    search_pair,
    triples_from_pair,
    two_smallest_equal,
)

PAIR_23 = PrimePair.of(2, 3)
PAIR_27 = PrimePair.of(2, 7)
PAIR_35 = PrimePair.of(3, 5)

GROUND_TRUTH_23 = [(1, 3, 5), (1, 5, 7), (1, 7, 23), (1, 15, 17), (1, 31, 47)]


def box(a12, b12, a, b):
    return ExponentBox(a12_cap=a12, b12_cap=b12, a_cap=a, b_cap=b)


def su(pair, n):
    unit = as_s_unit(n, pair)
    assert unit is not None
    return unit


def test_enumerate_degenerate_box_is_empty():
    assert list(enumerate_candidate_pairs(box(0, 0, 0, 0), PAIR_23)) == []


def test_enumerate_small_box_exact_pairs():
    # caps (2, 1): S-unit values {1, 2, 3, 4, 6, 12}; the orderings a < b < c
    # alone force s1 >= 3 and s2 >= 4.
    got = [(s1.value, s2.value)
           for s1, s2 in enumerate_candidate_pairs(box(2, 1, 4, 2), PAIR_23)]
    assert got == [(3, 4), (3, 6), (3, 12), (4, 6), (4, 12), (6, 12)]


def test_enumerate_ordering_and_volume():
    trace = reduce_full(PAIR_23)
    b = exponent_box(trace)
    stream = list(enumerate_candidate_pairs(b, PAIR_23))
    assert len(stream) <= 4900
    for s1, s2 in stream:
        assert s1.value < s2.value
        assert s1.alpha <= b.a12_cap and s1.beta <= b.b12_cap
        assert s2.alpha <= b.a12_cap and s2.beta <= b.b12_cap


def test_triples_from_pair_examples():
    b = box(9, 6, 29, 18)
    got, tried = triples_from_pair(su(PAIR_23, 4), su(PAIR_23, 6), b, PAIR_23)
    assert [(t.a, t.b, t.c) for t in got] == [(1, 3, 5)]
    assert tried == 1
    assert got[0].s4 == SUnit(16, 4, 0)

    got, _ = triples_from_pair(su(PAIR_23, 6), su(PAIR_23, 8), b, PAIR_23)
    assert [(t.a, t.b, t.c) for t in got] == [(1, 5, 7)]
    assert got[0].s4 == SUnit(36, 2, 2)

    # 10 is only an S-unit over {2, 5}; a = 1 gives (1, 3, 9) whose bc+1 = 28
    # is no S-unit, and a = 3 fails a*a < 3.
    pair25 = PrimePair.of(2, 5)
    got, tried = triples_from_pair(su(pair25, 4), su(pair25, 10), b, pair25)
    assert got == [] and tried == 1


def test_triples_from_pair_rejects_disorder():
    with pytest.raises(ValueError):
        triples_from_pair(su(PAIR_23, 6), su(PAIR_23, 4), box(9, 6, 29, 18), PAIR_23)


def test_extend_ground_truth_triples_fail():
    b = box(9, 6, 29, 18)
    for (a, bb, c) in GROUND_TRUTH_23:
        t = triples_from_pair(su(PAIR_23, a * bb + 1), su(PAIR_23, a * c + 1), b, PAIR_23)[0][0]
        assert extend_to_quadruples(t, b, PAIR_23)[0] == []


def test_extend_empty_box_is_empty():
    t = triples_from_pair(su(PAIR_23, 4), su(PAIR_23, 6), box(9, 6, 29, 18), PAIR_23)[0][0]
    assert extend_to_quadruples(t, box(0, 0, 0, 0), PAIR_23) == ([], 0)


def test_extend_skips_non_extendable_triples():
    # (1, 2, 4) over {3, 5} has ab < 3, so it never reaches extension.
    b = box(9, 6, 29, 18)
    t = triples_from_pair(su(PAIR_35, 3), su(PAIR_35, 5), b, PAIR_35)[0][0]
    assert (t.a, t.b, t.c) == (1, 2, 4)
    assert not t.extendable
    assert extend_to_quadruples(t, b, PAIR_35) == ([], 0)


def test_two_smallest_equal_checker():
    assert two_smallest_equal((0, 0, 5, 7))
    assert two_smallest_equal((3, 1, 1, 2))
    assert two_smallest_equal((2, 2, 2, 2))
    assert not two_smallest_equal((0, 1, 5, 7))
    assert not two_smallest_equal((4, 3, 2, 5))


def test_quadruple_witness_verify_rejects_fabricated_witnesses():
    # Fabricated exponent data must fail re-verification from scratch.
    a, b, c, d = 1, 3, 5, 7
    prods = (a * b + 1, a * c + 1, a * d + 1, b * c + 1, b * d + 1, c * d + 1)
    fake = tuple(SUnit(v, i, 0) for i, v in enumerate(prods))
    w = QuadrupleWitness(a=a, b=b, c=c, d=d, s=fake)
    with pytest.raises(AssertionError):
        w.verify(PAIR_23)
    disordered = QuadrupleWitness(a=3, b=1, c=5, d=7, s=fake)
    with pytest.raises(AssertionError):
        disordered.verify(PAIR_23)


def test_triple_verify_rejects_fabricated_witnesses():
    # (1, 3, 5) over {2, 3} passes with its true witnesses 4, 6 and 16; a
    # fabricated exponent or a disordered triple must fail re-verification.
    real = [as_s_unit(v, PAIR_23) for v in (4, 6, 16)]
    Triple(1, 3, 5, *real).verify(PAIR_23)
    fake = [SUnit(4, 1, 1), real[1], real[2]]
    with pytest.raises(AssertionError, match="witness mismatch"):
        Triple(1, 3, 5, *fake).verify(PAIR_23)
    with pytest.raises(AssertionError, match="ordering"):
        Triple(3, 1, 5, *real).verify(PAIR_23)


def test_search_pair_23_ground_truth():
    report = search_pair(PAIR_23)
    assert [(t.a, t.b, t.c) for t in report.triples] == GROUND_TRUTH_23
    assert report.quadruples == ()
    assert not report.notable
    assert report.triple_candidates <= 2482
    assert report.quad_candidates <= 344
    assert report.pair_count <= 4900


def test_search_pair_27_no_quadruples():
    report = search_pair(PAIR_27)
    assert report.quadruples == ()


def test_search_pair_triples_ordered():
    report = search_pair(PAIR_23)
    for t in report.triples:
        assert t.a < t.b < t.c


def test_search_pair_budget(monkeypatch):
    monkeypatch.setattr(search, "MAX_BOX_VOLUME", 1)
    with pytest.raises(ResourceBudgetError):
        search_pair(PAIR_23)


def test_oracle_examples():
    assert brute_force_oracle(PAIR_23, 50, 3) == GROUND_TRUTH_23
    assert brute_force_oracle(PAIR_35, 4, 3) == [(1, 2, 4)]
    assert brute_force_oracle(PAIR_23, 10, 4) == []


def test_oracle_validation():
    with pytest.raises(ValueError):
        brute_force_oracle(PAIR_23, 1, 3)
    with pytest.raises(ValueError):
        brute_force_oracle(PAIR_23, 10, 5)
    with pytest.raises(ResourceBudgetError):
        brute_force_oracle(PAIR_23, 10 ** 7, 2)


def test_oracle_cache_serves_interleaved_calls():
    # The oracle keeps the cliques of one (pair, N).  Calls in any order over
    # several pairs, heights and arities must each see the uncached result,
    # and a caller that mutates its list must not change the next call's.
    keys = [(pair, N) for pair in (PAIR_23, PAIR_27, PAIR_35) for N in (10, 50, 500)]
    expected = {key: search._oracle_cliques.__wrapped__(*key) for key in keys}
    calls = [(pair, N, m) for pair, N in keys for m in (2, 3, 4)] * 2
    random.Random(11).shuffle(calls)
    calls += [(PAIR_35, 500, 3), (PAIR_35, 500, 3), (PAIR_35, 500, 4)]
    for pair, N, m in calls:
        got = brute_force_oracle(pair, N, m)
        assert got == list(expected[pair, N][m - 2])
        got.append((0,) * m)
        got.sort()
    assert brute_force_oracle(PAIR_23, 50, 3) == GROUND_TRUTH_23


def test_oracle_leaves_no_cyclic_garbage():
    # Each call's graph must be freed by reference counting; anything left to
    # the cycle collector is memory held until the next collection.  The two
    # heights differ, so the second call builds even if the first was cached.
    gc.collect()
    gc.disable()
    try:
        brute_force_oracle(PAIR_35, 500, 3)
        brute_force_oracle(PAIR_35, 400, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oracle_pairs_arity():
    pairs = brute_force_oracle(PAIR_23, 10, 2)
    assert (1, 2) in pairs  # 1*2+1 = 3
    assert all(as_s_unit(a * b + 1, PAIR_23) for a, b in pairs)


def test_divisor_recovery_complete_for_oracle_triples():
    b = box(9, 6, 29, 18)
    for (a, bb, c) in brute_force_oracle(PAIR_23, 50, 3):
        s1 = su(PAIR_23, a * bb + 1)
        s2 = su(PAIR_23, a * c + 1)
        got, _ = triples_from_pair(s1, s2, b, PAIR_23)
        assert (a, bb, c) in [(t.a, t.b, t.c) for t in got]


def test_lemma_predicates_clean_on_23():
    triples = brute_force_oracle(PAIR_23, 50, 3)
    assert lemma_predicates(PAIR_23, triples) == []


def test_lemma_predicates_clean_on_211():
    pair = PrimePair.of(2, 11)  # 11 = 3 mod 4 engages the parity lemmas
    tuples = brute_force_oracle(pair, 500, 3) + brute_force_oracle(pair, 500, 4)
    assert lemma_predicates(pair, tuples) == []


def test_lemma_predicates_vacuous_on_empty():
    assert lemma_predicates(PAIR_27, []) == []


def test_lemma_predicates_flags_planted_violations():
    # The parity and mod-4 predicates read the raw tuple, so violations can
    # be planted without constructing a genuine quadruple.
    pair = PrimePair.of(2, 11)
    v = lemma_predicates(pair, [(2, 3, 5, 7)])
    assert any("odd" in s for s in v)
    v = lemma_predicates(pair, [(1, 5, 9, 13)])
    assert any("mod4" in s for s in v)


def test_lemma_predicates_reports_non_s_unit_products():
    # (1, 3, 5, 7) is odd with residues (1, 3, 1, 3), so only 3*7 + 1 = 22,
    # which is no S-unit over {2, 3}, can be reported.
    assert lemma_predicates(PAIR_23, [(1, 3, 5, 7)]) == \
        ["s_unit: (1, 3, 5, 7): not an S-Diophantine quadruple"]


# A triple padded with 0: its six products 1, 1, 1, 4, 6, 16 are S-units over
# {2, 3}, so the tuple passes the witness check, and it keeps the real
# valuation groups.  The group (0, 3, 4, 5) has 2-adic exponents 0, 2, 1, 4.
PADDED_23 = (0, 1, 3, 5)
PLANTED_GROUPS = ((0, 3, 4, 5),)


def test_lemma_predicates_reports_planted_valuation_break(monkeypatch):
    assert not any(v.startswith("valuation") for v in lemma_predicates(PAIR_23, [PADDED_23]))
    monkeypatch.setattr(search, "_VALUATION_GROUPS", PLANTED_GROUPS)
    assert "valuation: (0, 1, 3, 5): alpha group (0, 3, 4, 5)" in \
        lemma_predicates(PAIR_23, [PADDED_23])


def test_quadruple_witness_verify_ignores_lemmas(monkeypatch):
    # Witness checks stay hard errors; a lemma mismatch is for
    # lemma_predicates to report, so verify must not raise on it.
    monkeypatch.setattr(search, "_VALUATION_GROUPS", PLANTED_GROUPS)
    a, b, c, d = PADDED_23
    units = tuple(su(PAIR_23, n) for n in
                  (a * b + 1, a * c + 1, a * d + 1, b * c + 1, b * d + 1, c * d + 1))
    QuadrupleWitness(a=a, b=b, c=c, d=d, s=units).verify(PAIR_23)


def test_search_report_reverifies():
    report = search_pair(PAIR_23)
    for t in report.triples:
        t.verify(PAIR_23)
    assert report.flags == ()


PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def oracle_by_definition(pair, N, m):
    edges = {(a, b) for a in range(1, N + 1) for b in range(a + 1, N + 1)
             if as_s_unit(a * b + 1, pair) is not None}
    return [t for t in itertools.combinations(range(1, N + 1), m)
            if all(e in edges for e in itertools.combinations(t, 2))]


@given(st.lists(st.sampled_from(PRIMES_TO_50), min_size=2, max_size=2, unique=True),
       st.integers(min_value=2, max_value=60), st.sampled_from([2, 3, 4]))
@example([2, 3], 2, 2)  # the edge (1, 2) has a*b + 1 = 3 = N(N-1) + 1
@settings(max_examples=60, deadline=None)
def test_oracle_equals_definition(primes, N, m):
    pair = PrimePair.of(*sorted(primes))
    assert brute_force_oracle(pair, N, m) == oracle_by_definition(pair, N, m)


def _fits(unit, a_cap, b_cap):
    return unit is not None and unit.alpha <= a_cap and unit.beta <= b_cap


def _triple_in_box(pair, b, t):
    # The in-box rule of acceptance criterion 7.
    a, bb, c = t
    return (_fits(as_s_unit(a * bb + 1, pair), b.a12_cap, b.b12_cap)
            and _fits(as_s_unit(a * c + 1, pair), b.a12_cap, b.b12_cap)
            and _fits(as_s_unit(bb * c + 1, pair), b.a_cap, b.b_cap))


DEEP_HEIGHT = 20_000


@pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 5), (2, 7), (2, 11)])
def test_oracle_agrees_with_search_at_height_20000(p, q):
    pair = PrimePair.of(p, q)
    oracle = brute_force_oracle(pair, DEEP_HEIGHT, 3)
    report = search_pair(pair)
    searched = {(t.a, t.b, t.c) for t in report.triples}
    in_box = [t for t in oracle if _triple_in_box(pair, report.box, t)]
    assert in_box
    assert set(in_box) <= searched
    assert {t for t in searched if t[2] <= DEEP_HEIGHT} <= set(oracle)


def test_out_of_box_oracle_triple_is_excluded_not_missed():
    # (2, 7, 1562) over {3, 5}: ac + 1 = 3125 = 5^5 lies beyond b12_cap = 2,
    # so the search cannot reach it and the in-box rule must drop it.
    report = search_pair(PAIR_35)
    assert report.box.b12_cap == 2
    assert as_s_unit(2 * 1562 + 1, PAIR_35).beta == 5
    assert (2, 7, 1562) in brute_force_oracle(PAIR_35, DEEP_HEIGHT, 3)
    assert not _triple_in_box(PAIR_35, report.box, (2, 7, 1562))
    assert (2, 7, 1562) not in {(t.a, t.b, t.c) for t in report.triples}

"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from _orders import lb1_modulus
from sqsearch.arith import PrimePair, as_s_unit
from sqsearch.campaign import SweepSpec, load_checkpoint, main, sweep
from sqsearch.checkpoint import summarize
from sqsearch.diolog import certified_log, linear_form_gap, scale
from sqsearch.reduce import exponent_box, initial_bound, reduce_full
from sqsearch.search import brute_force_oracle, lemma_predicates, search_pair

PAIR_23 = PrimePair.of(2, 3)
GROUND_TRUTH_23 = [(1, 3, 5), (1, 5, 7), (1, 7, 23), (1, 15, 17), (1, 31, 47)]
PRIMES_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

SWEEP5_RANGE = dict(mode="fixed-p", p_fixed=2, q_min=3, q_max=9999)
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def trace_23():
    return reduce_full(PAIR_23)


@pytest.fixture(scope="module")
def report_23():
    return search_pair(PAIR_23)


@pytest.fixture(scope="module")
def oracle_matrix():
    out = {}
    for i, p in enumerate(PRIMES_50):
        for q in PRIMES_50[i + 1:]:
            pair = PrimePair.of(p, q)
            out[(p, q)] = (pair, brute_force_oracle(pair, 500, 3),
                           brute_force_oracle(pair, 500, 4))
    return out


@pytest.fixture(scope="module")
def sweep5(tmp_path_factory):
    ck = tmp_path_factory.mktemp("acceptance") / "sweep5.jsonl"
    t0 = time.perf_counter()
    summary = sweep(SweepSpec(**SWEEP5_RANGE, workers=8, checkpoint_path=ck))
    return ck, summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep6(tmp_path_factory):
    ck = tmp_path_factory.mktemp("acceptance") / "sweep6.jsonl"
    t0 = time.perf_counter()
    summary = sweep(SweepSpec(mode="all-pairs", q_min=3, q_max=299,
                              workers=8, checkpoint_path=ck))
    return ck, summary, time.perf_counter() - t0


def test_criterion_01_initial_bound():
    t0 = time.perf_counter()
    X = initial_bound(PAIR_23)
    dt = time.perf_counter() - t0
    assert Fraction(15, 10) * 10 ** 30 <= X <= Fraction(17, 10) * 10 ** 30
    assert dt < 1.0
    print(f"\nACCEPTANCE 1 PASS: initial_bound({{2,3}}) = {float(X):.4g} "
          f"in [1.5e30, 1.7e30], {dt:.3f} s")


def test_criterion_02_reduction_chain():
    t0 = time.perf_counter()
    trace = reduce_full(PAIR_23)
    dt = time.perf_counter() - t0
    assert len(trace.steps) <= 4
    first = trace.steps[0].B2
    assert Fraction(140) <= first <= Fraction(175)
    assert Fraction(17) <= trace.final_bound <= Fraction(22)
    assert dt < 5.0
    print(f"\nACCEPTANCE 2 PASS: {len(trace.steps)} steps, first bound "
          f"{float(first):.3f} in [140, 175], final {float(trace.final_bound):.3f} "
          f"in [17, 22], {dt:.3f} s")


def test_criterion_03_exponent_box(trace_23, report_23):
    box = exponent_box(trace_23)
    assert box.a12_cap <= 9 and box.b12_cap <= 6
    assert box.a_cap <= 29 and box.b_cap <= 18
    # caps verified against the exponents the ground-truth triples need
    need_a12 = max(max(t.s1.alpha, t.s2.alpha) for t in report_23.triples)
    need_b12 = max(max(t.s1.beta, t.s2.beta) for t in report_23.triples)
    need_a = max(t.s4.alpha for t in report_23.triples)
    need_b = max(t.s4.beta for t in report_23.triples)
    assert (need_a12, need_b12) == (5, 2)
    assert box.a12_cap >= need_a12 and box.b12_cap >= need_b12
    assert box.a_cap >= need_a and box.b_cap >= need_b
    print(f"\nACCEPTANCE 3 PASS: caps ({box.a12_cap}, {box.b12_cap}, "
          f"{box.a_cap}, {box.b_cap}) <= (9, 6, 29, 18) and >= "
          f"({need_a12}, {need_b12}, {need_a}, {need_b})")


def test_criterion_04_23_ground_truth():
    t0 = time.perf_counter()
    report = search_pair(PAIR_23)
    dt = time.perf_counter() - t0
    assert [(t.a, t.b, t.c) for t in report.triples] == GROUND_TRUTH_23
    assert report.quadruples == ()
    assert report.triple_candidates <= 2482
    assert report.quad_candidates <= 344
    assert dt < 60.0
    print(f"\nACCEPTANCE 4 PASS: the five triples exactly, 0 quadruples, "
          f"{report.triple_candidates} <= 2482 triple candidates, "
          f"{report.quad_candidates} <= 344 quadruple candidates, {dt:.2f} s")


def test_criterion_05_sweep_2q_to_10000(sweep5):
    ck, summary, dt = sweep5
    assert summary.pairs_total == 1228
    assert summary.quadruples_found == 0
    assert summary.errors == 0
    records = load_checkpoint(ck)
    assert len(records) == 1228
    assert all(r["status"] == "done" for r in records.values())
    assert dt < 1800
    print(f"\nACCEPTANCE 5 PASS: 1228 pairs {{2, q}} with q < 1e4, "
          f"0 quadruples, {dt:.0f} s")


def test_criterion_06_sweep_all_pairs_to_300(sweep6):
    _, summary, dt = sweep6
    assert summary.pairs_total == 1830  # 61 odd primes below 300
    assert summary.quadruples_found == 0
    assert summary.errors == 0
    assert dt < 1800
    print(f"\nACCEPTANCE 6 PASS: 1830 odd pairs p < q < 300 (3 mod 4 included), "
          f"0 quadruples, {dt:.0f} s")


def _su_fits(su, a_cap, b_cap):
    return su is not None and su.alpha <= a_cap and su.beta <= b_cap


def _triple_in_box(pair, box, tup):
    a, b, c = tup
    return (_su_fits(as_s_unit(a * b + 1, pair), box.a12_cap, box.b12_cap)
            and _su_fits(as_s_unit(a * c + 1, pair), box.a12_cap, box.b12_cap)
            and _su_fits(as_s_unit(b * c + 1, pair), box.a_cap, box.b_cap))


def _quad_in_box(pair, box, tup):
    a, b, c, d = tup
    prods = (a * b + 1, a * c + 1, a * d + 1, b * c + 1, b * d + 1, c * d + 1)
    sus = [as_s_unit(x, pair) for x in prods]
    return (_su_fits(sus[0], box.a12_cap, box.b12_cap)
            and _su_fits(sus[1], box.a12_cap, box.b12_cap)
            and all(_su_fits(s, box.a_cap, box.b_cap) for s in sus[2:]))


def test_criterion_07_oracle_equivalence(oracle_matrix):
    t0 = time.perf_counter()
    assert brute_force_oracle(PAIR_23, 50, 3) == GROUND_TRUTH_23
    checked = 0
    for (p, q), (pair, o3, o4) in oracle_matrix.items():
        report = search_pair(pair)
        search3 = {(t.a, t.b, t.c) for t in report.triples}
        search4 = {(w.a, w.b, w.c, w.d) for w in report.quadruples}
        for t in o3:
            if _triple_in_box(pair, report.box, t):
                assert t in search3, (p, q, t)
        for w in o4:
            if _quad_in_box(pair, report.box, w):
                assert w in search4, (p, q, w)
        for t in search3:
            if t[-1] <= 500:
                assert t in o3, (p, q, t)
        for w in search4:
            if w[-1] <= 500:
                assert w in o4, (p, q, w)
        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 300
    print(f"\nACCEPTANCE 7 PASS: oracle and search agree on all {checked} "
          f"pairs p < q <= 50 at height 500, {dt:.0f} s")


def test_criterion_08_lemma_property_suite(oracle_matrix):
    t0 = time.perf_counter()
    violations = []
    for (p, q), (pair, o3, o4) in oracle_matrix.items():
        violations += [f"({p},{q}) {v}" for v in lemma_predicates(pair, o3 + o4)]
    assert violations == []
    assert (1, 2, 4) in oracle_matrix[(3, 5)][1]
    primes20 = [2, 3, 5, 7, 11, 13, 17, 19]
    for p in primes20:
        for q in primes20:
            if p == q:
                continue
            pair = PrimePair.of(p, q)
            for z in range(pair.u_q, pair.u_q + 3):
                M = lb1_modulus(pair, z)
                mod = q ** z
                acc = 1
                for x in range(1, 10 ** 4 + 1):
                    acc = acc * p % mod
                    if acc == 1:
                        assert x % M == 0, (p, q, z, x)
    dt = time.perf_counter() - t0
    assert dt < 300
    print(f"\nACCEPTANCE 8 PASS: 0 lemma violations over all pairs <= 50 at "
          f"height 500; (1,2,4) found for {{3,5}}; lifting-divisibility "
          f"brute force clean for p,q <= 20, x <= 1e4; {dt:.0f} s")


def test_criterion_09_delta_certification():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    for _ in range(20):
        p, q = rng.sample(primes, 2)
        B = Fraction(rng.randrange(1, 10 ** 6))
        pair = PrimePair.of(p, q)
        cert = linear_form_gap(pair, B)
        bits4 = 4 * cert.precision_bits
        lo_p = min(pair.p, pair.q)
        hi_q = max(pair.p, pair.q)
        unit = Fraction(1, 1 << scale(bits4))
        lp = [m * unit for m in certified_log(lo_p, bits4)]
        lq = [m * unit for m in certified_log(hi_q, bits4)]
        assert cert.delta > 0
        for c in cert.convergents_checked:
            lo = c.P * lp[0] - c.Q * lq[1]
            hi = c.P * lp[1] - c.Q * lq[0]
            low_end = lo if lo > 0 else -hi
            assert low_end > cert.delta, (p, q, B, c)
    dt = time.perf_counter() - t0
    assert dt < 60
    print(f"\nACCEPTANCE 9 PASS: 20 random gap certificates re-verified at 4x "
          f"precision, every convergent strictly above delta, {dt:.1f} s")


def test_criterion_10_campaign_robustness(sweep5, tmp_path):
    ck_straight, _, _ = sweep5
    straight = sorted(ck_straight.read_bytes().splitlines())

    # kill-and-resume: stop after 300 pairs, then resume to completion
    ck_resume = tmp_path / "resume5.jsonl"
    sweep(SweepSpec(**SWEEP5_RANGE, workers=8, checkpoint_path=ck_resume,
                    max_pairs=300))
    resumed = sweep(SweepSpec(**SWEEP5_RANGE, workers=8, checkpoint_path=ck_resume))
    assert resumed.pairs_skipped == 300
    assert sorted(ck_resume.read_bytes().splitlines()) == straight

    # worker-count independence: single worker reproduces the 8-worker set
    ck_w1 = tmp_path / "w1.jsonl"
    sweep(SweepSpec(**SWEEP5_RANGE, workers=1, checkpoint_path=ck_w1))
    assert sorted(ck_w1.read_bytes().splitlines()) == straight
    print("\nACCEPTANCE 10 PASS: kill-and-resume and workers=1 vs workers=8 "
          "all write the same checkpoint lines")


# The digest that `report` prints for each sweep's checkpoint, the SHA-256 of
# its lines sorted by (p, q): any change to a bound, a delta, a box or a
# tuple in criteria 5 and 6 changes it.
PINNED_DIGESTS = {
    "sweep5": "4dc967a29435ce68ce546d382766390aeba5cf93f72c41cf941d1961081d4636",
    "sweep6": "0ffa32ea89a8791f045fd7a2c5dd26f5324486baeedf172d2712f8cb5c5a1bb3",
}


def test_sweep_records_match_pinned_digests(sweep5, sweep6):
    for name, (ck, _, _) in (("sweep5", sweep5), ("sweep6", sweep6)):
        assert summarize(load_checkpoint(ck).values())["digest"] == PINNED_DIGESTS[name]


@pytest.mark.parametrize("pq", [(2, 3), (2, 999999937), (99989, 99991)],
                         ids=lambda pq: f"{pq[0]}-{pq[1]}")
def test_pair_json_matches_golden_file(pq, tmp_path):
    # `pair --json` byte for byte: initial bound, every step with its exact
    # delta, the box and the tuples.
    out = tmp_path / "pair.json"
    main(["pair", "--p", str(pq[0]), "--q", str(pq[1]), "--json", str(out)])
    assert out.read_bytes() == (GOLDEN / f"pair_{pq[0]}_{pq[1]}.json").read_bytes()

"""An audit of the certified bound chain that shares no arithmetic with it.

The engine's outputs (ReductionTrace, GapCertificate, ExponentBox) are read
as given; every number they are compared with is recomputed here with
mpmath's outward-rounded interval context at 512 bits.  A comparison that
fails is a bug, or a value that 512 bits cannot separate; either way it is
investigated, never loosened.  The continued fraction of log q / log p is
expanded here too, so a certificate that leaves out a convergent certainly
inside its cutoffs fails as well.
"""

import dataclasses
import random
import sys
from fractions import Fraction

import pytest
from mpmath import iv

from sqsearch.arith import PrimePair, is_prime
from sqsearch.diolog import linear_form_gap
from sqsearch.reduce import exponent_box, reduce_full

AUDIT_PREC = 512


def _fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    value = man * Fraction(2) ** exp
    return -value if sign else value


def ends(x) -> tuple[Fraction, Fraction]:
    """The exact rational ends of an interval."""
    lo, hi = x._mpi_
    return _fraction(lo), _fraction(hi)


def interval(r) -> iv.mpf:
    """An interval enclosing the rational r."""
    r = Fraction(r)
    return iv.mpf(r.numerator) / iv.mpf(r.denominator)


def majorant(lp, lq, x):
    # The Baker-type majorant F, copied from its formula.  The literals
    # 1.36e23, 1.63, 2.71 and 2.08 are taken as given, not audited.
    lpq = lp * lq
    lx = iv.log(interval(x))
    return (iv.mpf(136) * iv.mpf(10) ** 21 * lpq ** 3 * (iv.mpf("1.63") + lx)
            * (iv.mpf("2.71") + lx) * (iv.mpf("2.08") - iv.log(lpq) + lx) ** 2)


def b1_high(lp, lq, B, delta) -> Fraction:
    # High end of B1 = max(ln(2 / delta), ln(8B / (log p log q))).
    return max(ends(iv.log(interval(2 / Fraction(delta))))[1],
               ends(iv.log(interval(8 * Fraction(B)) / (lp * lq)))[1])


def b2_formula(pair, lp, lq, B1):
    b1 = interval(B1)
    return 2 * b1 + pair.u_q * lq + pair.u_p * lp + iv.log(2 * b1 ** 2 / (lp * lq))


def convergents_inside(lp, lq, B):
    # The convergents P/Q of log q / log p with Q < 2B / hi(log q) and
    # P < 2B / hi(log p): certainly inside the reduction cutoffs.
    Q_cut = ends(interval(2 * Fraction(B)) / lq)[0]
    P_cut = ends(interval(2 * Fraction(B)) / lp)[0]
    out = []
    x = lq / lp
    P0, P1, Q0, Q1 = 1, 0, 0, 1
    while True:
        lo, hi = ends(x)
        a = lo // 1
        assert hi // 1 == a, "512 bits do not pin down a partial quotient"
        P0, P1, Q0, Q1 = a * P0 + P1, P0, a * Q0 + Q1, Q0
        if not (Q0 < Q_cut and P0 < P_cut):
            return out
        out.append((P0, Q0))
        x = 1 / (x - a)


def audit(trace, box) -> None:
    """Raise AssertionError unless every bound of the chain and the box is
    at least its audited value."""
    pair = trace.pair
    old_prec = iv.prec
    iv.prec = AUDIT_PREC
    try:
        lp, lq = iv.log(iv.mpf(pair.p)), iv.log(iv.mpf(pair.q))
        assert ends(majorant(lp, lq, trace.B0))[1] < trace.B0, "F(B0) >= B0"
        bounds = [Fraction(trace.B0)]
        B = trace.B0
        for i, step in enumerate(trace.steps):
            assert step.B_in == B, f"step {i} does not start from the last bound"
            cert = linear_form_gap(pair, step.B_in)
            assert cert.delta == step.delta, f"step {i}: delta is not its certificate's"
            for c in cert.convergents_checked:
                low = ends(abs(c.P * lp - c.Q * lq))[0]
                assert step.delta < low, f"step {i}: delta not below {c}"
            listed = {(c.P, c.Q) for c in cert.convergents_checked}
            for P, Q in convergents_inside(lp, lq, step.B_in):
                assert (P, Q) in listed, f"step {i}: convergent {P}/{Q} not checked"
            assert step.B1 >= b1_high(lp, lq, step.B_in, step.delta), \
                f"step {i}: B1 below its formula"
            B2 = ends(b2_formula(pair, lp, lq, step.B1))[1]
            assert step.B2 >= B2, f"step {i}: B2 below its formula"
            bounds.append(B2)
            B = step.B2
        assert trace.final_bound >= min(bounds), "final bound below every audited bound"
        final_cert = linear_form_gap(pair, trace.final_bound)
        final_B1 = b1_high(lp, lq, trace.final_bound, final_cert.delta)
        assert trace.final_B1 >= final_B1, "final_B1 below its formula"
        for cap, bound, log in ((box.a12_cap, trace.final_B1, lp),
                                (box.b12_cap, trace.final_B1, lq),
                                (box.a_cap, trace.final_bound, lp),
                                (box.b_cap, trace.final_bound, lq)):
            assert cap >= ends(interval(bound) / log)[1] // 1, "box cap below its floor"
    finally:
        iv.prec = old_prec


def _sample_pairs():
    rng = random.Random(20240611)
    q5 = [q for q in range(3, 10000) if is_prime(q)]        # criterion 5: {2, q}
    odd = [p for p in range(3, 300) if is_prime(p)]         # criterion 6
    pairs = [(2, 3), (3, 5), (281, 293), (2, 9973), (99989, 99991)]
    pairs += [(2, q) for q in rng.sample(q5, 15)]
    pairs += [tuple(sorted(rng.sample(odd, 2))) for _ in range(15)]
    # Drawn after the first 35, which stay the same pairs.
    pairs += [(2, q) for q in rng.sample(q5, 8)]
    pairs += [tuple(sorted(rng.sample(odd, 2))) for _ in range(7)]
    return list(dict.fromkeys(pairs))


@pytest.mark.parametrize("pq", _sample_pairs(), ids=lambda pq: f"{pq[0]}-{pq[1]}")
def test_chain_passes_audit(pq):
    trace = reduce_full(PrimePair.of(*pq))
    audit(trace, exponent_box(trace))


def test_audit_catches_a_lowered_b2():
    trace = reduce_full(PrimePair.of(2, 3))
    box = exponent_box(trace)
    audit(trace, box)
    steps = list(trace.steps)
    steps[1] = dataclasses.replace(steps[1], B2=steps[1].B2 * (1 - Fraction(1, 1 << 100)))
    with pytest.raises(AssertionError, match="B2 below its formula"):
        audit(dataclasses.replace(trace, steps=tuple(steps)), box)


def _planted_gap(monkeypatch, edit):
    # The audit module's linear_form_gap, returning edit(certificate).
    real = linear_form_gap
    monkeypatch.setattr(sys.modules[__name__], "linear_form_gap",
                        lambda pair, B: edit(real(pair, B)))


def test_audit_catches_a_delta_above_its_minimum(monkeypatch):
    trace = reduce_full(PrimePair.of(2, 3))
    box = exponent_box(trace)
    # delta is 0.999 times a lower end within 2^-100 of the audited minimum,
    # so twice delta is above that minimum.
    _planted_gap(monkeypatch, lambda c: dataclasses.replace(c, delta=2 * c.delta))
    steps = tuple(dataclasses.replace(s, delta=2 * s.delta) for s in trace.steps)
    with pytest.raises(AssertionError, match="step 0: delta not below"):
        audit(dataclasses.replace(trace, steps=steps), box)


def test_audit_catches_a_dropped_convergent(monkeypatch):
    trace = reduce_full(PrimePair.of(2, 3))
    box = exponent_box(trace)
    _planted_gap(monkeypatch, lambda c: dataclasses.replace(
        c, convergents_checked=c.convergents_checked[1:]))
    with pytest.raises(AssertionError, match="step 0: convergent 1/1 not checked"):
        audit(trace, box)

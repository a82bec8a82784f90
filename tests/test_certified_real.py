"""Property tests for the scaled-integer interval arithmetic of CertifiedReal.

Each operation must enclose the exact rational result computed from the
operands' endpoints and may exceed it by at most one unit of 2^-w per side.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsearch.diolog import CertifiedReal

MANTISSA = st.integers(min_value=-(1 << 200), max_value=1 << 200)
SCALE = st.integers(min_value=0, max_value=256)
RATIONAL = st.fractions(min_value=-(1 << 80), max_value=1 << 80, max_denominator=1 << 80)


@st.composite
def enclosures(draw, w=None):
    w = draw(SCALE) if w is None else w
    a, b = draw(MANTISSA), draw(MANTISSA)
    return CertifiedReal(min(a, b), max(a, b), w)


@st.composite
def same_scale_pairs(draw):
    x = draw(enclosures())
    return x, draw(enclosures(w=x.w))


def assert_tight(out, lo, hi, w):
    # out encloses [lo, hi] and overshoots each side by at most 2^-w.
    unit = Fraction(1, 1 << w)
    assert out.w == w
    assert out.lo <= lo <= hi <= out.hi
    assert lo - out.lo <= unit and out.hi - hi <= unit


@settings(max_examples=300)
@given(same_scale_pairs())
def test_add_sub_mul_enclose_exact_endpoint_results(xy):
    x, y = xy
    assert_tight(x + y, x.lo + y.lo, x.hi + y.hi, x.w)
    assert_tight(x - y, x.lo - y.hi, x.hi - y.lo, x.w)
    products = [a * b for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    assert_tight(x * y, min(products), max(products), x.w)


@settings(max_examples=300)
@given(enclosures(), RATIONAL)
def test_rational_operand_is_coerced_tightly(x, r):
    assert_tight(CertifiedReal(0, 0, x.w) + r, r, r, x.w)
    assert_tight(x + r, x.lo + r, x.hi + r, x.w)
    # A product multiplies r's one-unit enclosure by x, so its excess grows
    # with |x|; only containment is checked.
    products = [r * x.lo, r * x.hi]
    for out in (r * x, x * r):
        assert out.lo <= min(products) and max(products) <= out.hi


@given(enclosures(), st.integers(min_value=1, max_value=64), MANTISSA)
def test_mixed_scales_raise(x, shift, m):
    y = CertifiedReal(m, m, x.w + shift)
    for op in (lambda: x + y, lambda: y - x, lambda: x * y):
        with pytest.raises(ValueError):
            op()


def test_empty_enclosure_rejected():
    with pytest.raises(ValueError):
        CertifiedReal(2, 1, 8)

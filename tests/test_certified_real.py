"""Property tests for the enclosure record CertifiedReal and the one
outward-rounded product on its mantissas, diolog.product.

The product must enclose the exact rational result computed from the
operands' endpoints and may exceed it by at most one unit of 2^-w per side.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsearch.diolog import CertifiedReal, product

MANTISSA = st.integers(min_value=-(1 << 200), max_value=1 << 200)
SCALE = st.integers(min_value=0, max_value=256)


@st.composite
def enclosures(draw, w=None):
    w = draw(SCALE) if w is None else w
    a, b = draw(MANTISSA), draw(MANTISSA)
    return CertifiedReal(min(a, b), max(a, b), w)


@st.composite
def same_scale_pairs(draw):
    x = draw(enclosures())
    return x, draw(enclosures(w=x.w))


@settings(max_examples=300)
@given(same_scale_pairs())
def test_product_encloses_exact_endpoint_products(xy):
    x, y = xy
    out = CertifiedReal(*product((x.m_lo, x.m_hi), (y.m_lo, y.m_hi), x.w), x.w)
    products = [a * b for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    lo, hi = min(products), max(products)
    # out encloses [lo, hi] and overshoots each side by at most 2^-w.
    unit = Fraction(1, 1 << x.w)
    assert out.lo <= lo <= hi <= out.hi
    assert lo - out.lo <= unit and out.hi - hi <= unit


def test_empty_enclosure_rejected():
    with pytest.raises(ValueError):
        CertifiedReal(2, 1, 8)

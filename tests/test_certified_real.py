"""Property tests for enclosures, (lo, hi) integer mantissa pairs at one
scale 2^-w, and the one outward-rounded product on them, diolog.product.

The product must enclose the exact rational result computed from the
operands' endpoints and may exceed it by at most one unit of 2^-w per side.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqsearch import diolog
from sqsearch.diolog import certified_log, log_of_fraction, product

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

"""GF(q) addition and negation (Zech logarithms) against digit-wise oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit.fplinear import is_prime
from etkit.smallfields import GF, factor_prime_power, gf

PRIME_POWERS = [
    q for q in range(2, 257)
    if (f := factor_prime_power(q)) is not None and is_prime(f[0])
]


def _digitwise(F: GF, xs, ys=None) -> np.ndarray:
    """Oracle: add (or, without ``ys``, negate) coefficient by coefficient
    in the base-``char`` encoding of the elements."""
    xs = np.asarray(xs, dtype=np.int64)
    place = F.char ** np.arange(F.deg, dtype=np.int64)
    dx = xs[..., None] // place % F.char
    if ys is None:
        return (-dx % F.char) @ place
    dy = np.asarray(ys, dtype=np.int64)[..., None] // place % F.char
    return ((dx + dy) % F.char) @ place


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_add_neg_sub_exhaustive(q):
    F = gf(q)
    elems = np.arange(q)
    neg = _digitwise(F, elems)
    add = _digitwise(F, elems[:, None], elems[None, :])
    assert [F.neg(x) for x in range(q)] == neg.tolist()
    assert [[F.add(x, y) for y in range(q)] for x in range(q)] == add.tolist()
    assert [[F.sub(x, y) for y in range(q)] for x in range(q)] == add[:, neg].tolist()


@pytest.mark.parametrize("q", [3**7, 2**12, 5**5, 65521])
def test_add_neg_sub_large_fields(q):
    F = gf(q)
    elem = st.integers(0, q - 1)

    @settings(max_examples=100, deadline=None)
    @given(elem, elem)
    def check(x, y):
        assert F.neg(x) == _digitwise(F, x)
        assert F.add(x, y) == _digitwise(F, x, y)
        assert F.sub(x, y) == _digitwise(F, x, _digitwise(F, y))

    check()

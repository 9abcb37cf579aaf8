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


def _full_order_generator(F: GF) -> int:
    """Oracle: the least candidate whose multiplicative order, walked in
    full, is q - 1."""
    for g in range(2, F.q):
        acc, order = F._raw_mul(1, g), 1
        while acc != 1:
            acc = F._raw_mul(acc, g)
            order += 1
        if order == F.q - 1:
            return g
    return 1


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_generator_matches_full_order_walk(q):
    assert gf(q).generator == _full_order_generator(gf(q))


class _CountingGF(GF):
    def _raw_mul(self, x, y):
        self.products = getattr(self, "products", 0) + 1
        return super()._raw_mul(x, y)


@pytest.mark.parametrize("q", [3**7, 2**12, 5**5, 7**4])
def test_generator_search_is_cheaper_than_one_walk(q):
    # the exp table walks the group once, q - 2 products; the full-order
    # search walked it at least once more
    F = _CountingGF(q)
    search = F.products - (q - 2)
    assert 0 < search < (q - 1) // 10

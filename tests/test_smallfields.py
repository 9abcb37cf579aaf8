"""GF(q) against independent oracles: addition and negation (Zech
logarithms) digit by digit, the modulus by brute-force factoring, and
multiplication by schoolbook polynomial products."""

from itertools import product as iter_product

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
EXTENSIONS = [q for q in PRIME_POWERS if factor_prime_power(q)[1] >= 2]


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


def _encode(coeffs, ell: int) -> int:
    return sum(c * ell**i for i, c in enumerate(coeffs))


def _schoolbook(a, b, ell: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % ell
    return out


def _monics(ell: int, deg: int) -> list:
    """Every monic polynomial of degree ``deg`` over F_ell, low coefficient
    first."""
    return [list(c) + [1] for c in iter_product(range(ell), repeat=deg)]


@pytest.mark.parametrize("q", EXTENSIONS)
def test_modulus_is_least_irreducible(q):
    # oracle: the monic polynomials of degree k that are products of two
    # monics of lower degree, listed by brute force
    ell, k = factor_prime_power(q)
    reducible = {tuple(_schoolbook(a, b, ell))
                 for i in range(1, k // 2 + 1)
                 for a in _monics(ell, i) for b in _monics(ell, k - i)}
    least = min((m for m in _monics(ell, k) if tuple(m) not in reducible),
                key=lambda m: _encode(m, ell))
    assert list(gf(q).modulus) == least


def _mul_oracle(F: GF, x: int, y: int) -> int:
    """Schoolbook product of the digit vectors, reduced by the modulus."""
    ell, k, mod = F.char, F.deg, F.modulus
    prod = _schoolbook([x // ell**i % ell for i in range(k)],
                       [y // ell**i % ell for i in range(k)], ell)
    for i in reversed(range(k, len(prod))):
        c = prod[i]
        for j in range(k + 1):
            prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % ell
    return _encode(prod[:k], ell)


@pytest.mark.parametrize("q", [q for q in EXTENSIONS if q <= 64])
def test_mul_matches_schoolbook_exhaustive(q):
    F = gf(q)
    assert all(F.mul(x, y) == _mul_oracle(F, x, y) for x in range(q) for y in range(q))


@pytest.mark.parametrize("q", [q for q in EXTENSIONS if q > 64] + [3**7, 2**12, 5**5, 7**4])
def test_mul_matches_schoolbook_large_fields(q):
    F = gf(q)
    elem = st.integers(0, q - 1)

    @settings(max_examples=100, deadline=None)
    @given(elem, elem)
    def check(x, y):
        assert F.mul(x, y) == _mul_oracle(F, x, y)

    check()

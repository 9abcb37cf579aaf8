"""The exact Laurent kernel against the windowed one it replaced, kept in
``tests/windowed_laurent.py``, and exact cancellation in towers."""

import time
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit.errors import PrecisionExhausted, ValidationError
from etkit.field_models import FiniteField, Laurent
from etkit.laurent import MAX_TERMS
from windowed_laurent import certifies, to_window, windowed_ring

# residue fields per p: q - 1 divisible by p, prime powers among them
TOWER_Q = {2: [3, 5, 7, 9], 3: [4, 7, 13]}


def _tower(q: int, depth: int):
    model = FiniteField(q)
    for var in "tuv"[:depth]:
        model = Laurent(model, var)
    return model


@st.composite
def _element(draw, model):
    """A Laurent polynomial of up to three coefficients at each level,
    any of them zero, so that sums and products cancel."""
    if isinstance(model, FiniteField):
        return draw(st.integers(0, model.q - 1))
    coeffs = [draw(_element(model.base)) for _ in range(draw(st.integers(0, 3)))]
    return model.domain().from_coeffs(draw(st.integers(-2, 2)), coeffs)


@st.composite
def _ops(draw):
    """A tower of depth 1-3 over F_q at p in {2, 3}, a window of 2 to 6
    coefficients per level, two elements and an operation: add, sub, mul,
    or pow_ with an exponent n <= p."""
    p = draw(st.sampled_from([2, 3]))
    model = _tower(draw(st.sampled_from(TOWER_Q[p])), draw(st.integers(1, 3)))
    op = draw(st.sampled_from(["add", "sub", "mul", "pow_"]))
    n = draw(st.integers(0, p))
    return (model, draw(st.integers(2, 6)), op, n,
            draw(_element(model)), draw(_element(model)))


@settings(max_examples=300, deadline=None)
@given(_ops())
def test_window_certifies_exact_coefficients(case):
    """Every coefficient that the windowed kernel certifies, run on the
    elements cut to its window, equals the exact result's; where the
    window runs out it raises PrecisionExhausted and certifies nothing."""
    model, precision, op, n, x, y = case
    ring = model.domain()
    window = windowed_ring(model, precision)
    wx, wy = to_window(window, x), to_window(window, y)
    if op == "pow_":
        exact, args = ring.pow_(x, n), (wx, n)
    else:
        exact, args = getattr(ring, op)(x, y), (wx, wy)
    try:
        w = getattr(window, op)(*args)
    except PrecisionExhausted:
        return
    assert certifies(ring, w, exact)


def test_cancelled_constant_is_exact_zero():
    """1 - (1 + u) on a depth-2 tower over F_5 is -u: the constant 1 - 1
    cancels to the exact zero, where the window left a coefficient known
    only to a valuation, and is_zero raised."""
    ring = _tower(5, 2).domain()
    one_plus_u = ring.add(ring.one, ring.gen())
    minus_u = ring.from_coeffs(1, [ring.base.minus_one])
    assert ring.sub(ring.one, one_plus_u) == minus_u
    assert ring.is_zero(ring.sub(one_plus_u, one_plus_u))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_pool_elements_less_themselves_are_zero(depth):
    model = _tower(5, depth)
    ring = model.domain()
    pool = list(islice(model.pool(2), 200))
    assert pool and all(ring.is_zero(ring.sub(x, x)) for x in pool)


def test_sum_span_is_checked_before_it_is_laid_out():
    """1 - t^(10^9) spans 10^9 + 1 powers of t: it is refused at once,
    with no list of that length made.  A sum whose one term is zero
    spans only the other, wherever it lies."""
    ring = _tower(5, 1).domain()
    far = ring.from_coeffs(10**9, [1])
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"at most {MAX_TERMS} coefficients"):
        ring.sub(ring.one, far)
    assert time.perf_counter() - start < 0.1
    low = ring.from_coeffs(-5000, [1] * MAX_TERMS)
    assert ring.sub(ring.zero, low) == ring.from_coeffs(-5000, [4] * MAX_TERMS)
    assert ring.add(ring.zero, low) == low


def test_tower_cap_counts_every_level():
    """The cap counts the coefficients of every level: on a depth-2
    tower, one u-coefficient of MAX_TERMS t-terms and one more
    u-coefficient pass it."""
    ring = _tower(5, 2).domain()
    wide = ring.base.from_coeffs(0, [1] * (MAX_TERMS - 1))
    assert ring.val(ring.from_coeffs(0, [wide])) == 0
    with pytest.raises(ValidationError):
        ring.from_coeffs(0, [wide, ring.base.one])


def test_lone_constant_renders_bare():
    """A constant of a tower level prints as its coefficient, with no
    parentheses; beside other terms it keeps them."""
    ring = _tower(7, 2).domain()
    one_plus_t = ring.base.add(ring.base.one, ring.base.gen())
    constant = ring.from_const(one_plus_t)
    assert ring.render(constant) == "1 + t"
    assert ring.render(ring.add(constant, ring.gen())) == "(1 + t) + u"
    assert ring.render(ring.from_const(ring.base.inv(ring.base.gen()))) == "t^-1"

"""The O^+ valuation rule of ``field_models.o_membership`` against the
full series search of ``tests/omember_oracle.py``."""

from fractions import Fraction
from itertools import islice
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit.errors import ValidationError
from etkit.field_models import (
    FiniteField,
    Laurent,
    LocalRational,
    o_membership,
)
from omember_oracle import o_membership_series

# residue fields per p: q - 1 divisible by p, prime powers among them
TOWER_Q = {2: [3, 5, 7, 9, 25], 3: [4, 7, 13, 16, 25]}
LOCAL_ELL = {2: [3, 5, 7, 11], 3: [7, 13, 19]}


def _outcome(search, model, p, a, h, target, bound):
    try:
        return search(model, p, a, h, target, bound)
    except ValidationError as exc:
        return type(exc).__name__


@st.composite
def _subgroups(draw, d: int, p: int):
    """H as "all", or as the span of a few random class vectors, listed."""
    if draw(st.booleans()):
        return "all"
    gens = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=d, max_size=d),
                         max_size=d))
    span = {(0,) * d}
    for g in gens:
        span = {tuple((x + k * y) % p for x, y in zip(v, g))
                for v in span for k in range(p)}
    return [list(v) for v in sorted(span)]


@st.composite
def _laurent_element(draw, model, lead_nonzero=True, terms=3):
    """A Laurent polynomial of 1 to ``terms`` coefficients at each level:
    exact powers and products grow, and a p-th power of a depth-3
    element of three terms a level may pass the term cap."""
    if isinstance(model, FiniteField):
        return draw(st.integers(1 if lead_nonzero else 0, model.q - 1))
    n = draw(st.integers(1, terms))
    coeffs = [draw(_laurent_element(model.base, lead_nonzero and i == 0, terms))
              for i in range(n)]
    return model.domain().from_coeffs(draw(st.integers(-3, 3)), coeffs)


@st.composite
def _edge(draw, model, x):
    """x, or the difference of x and a nearby element: exactly -bump,
    which may be zero when the bump cancels."""
    ring = model.domain()
    if draw(st.booleans()):
        bump = draw(_laurent_element(model))
        bump = ring.from_coeffs(x.v + draw(st.integers(0, 3)), bump.coeffs or [ring.base.one])
        return ring.sub(x, ring.add(x, bump))
    return x


@st.composite
def _omember_inputs(draw):
    """A tame backend at p in {2, 3}: a Laurent tower of depth 1 to 3 over
    F_q, or Q_ell; an element a of any valuation, from the pool, a product
    of basis elements, a p-th power (its class 0, so that cl(a c) = cl(c)),
    or drawn, or a difference with a nearby element; H; a target; a
    bound."""
    p = draw(st.sampled_from([2, 3]))
    if draw(st.integers(0, 3)) == 0:
        ell = draw(st.sampled_from(LOCAL_ELL[p]))
        model = LocalRational(ell)
        k = draw(st.integers(-3, 3))
        num = draw(st.integers(-60, 60).filter(bool))
        drawn = Fraction(num, draw(st.integers(1, 60))) * Fraction(ell) ** k
    else:
        model = FiniteField(draw(st.sampled_from(TOWER_Q[p])))
        for var in "tuv"[: draw(st.integers(1, 3))]:
            model = Laurent(model, var)
        drawn = draw(_laurent_element(model))
        small = draw(_laurent_element(model, terms=2))
    ops = model.domain()
    reps = [r for _, r in model.basis(p)]
    source = draw(st.sampled_from(["drawn", "pool", "basis", "power"]))
    if source == "pool":
        a = draw(st.sampled_from(list(islice(model.pool(p), 40))))
    elif source == "basis":
        a = ops.one
        for r in reps:
            a = ops.mul(a, ops.pow_(r, draw(st.integers(-2, 2))))
        a = ops.mul(a, drawn) if draw(st.booleans()) else a
    elif source == "power":
        a = ops.pow_(small if isinstance(model, Laurent) else drawn, p)
    else:
        a = drawn
    if isinstance(model, Laurent):
        a = draw(_edge(model, a))
    h = draw(_subgroups(len(reps), p))
    target = draw(st.sampled_from(["OMinus", "OPlus", "ORing"]))
    return model, p, a, h, target, draw(st.sampled_from([20, 50, 200]))


@settings(max_examples=400, deadline=None)
@given(_omember_inputs())
def test_valuation_rule_matches_series_search(case):
    assert _outcome(o_membership, *case) == _outcome(o_membership_series, *case)


def test_rule_builds_only_the_refuting_c(monkeypatch):
    """With H everything and v(a) >= 1, a candidate of valuation 0 is
    skipped and one of nonzero valuation is read off its valuation: the
    series path runs only for the refuting c."""
    model = Laurent(Laurent(FiniteField(11), "t"), "u")
    ring = model.domain()
    a = ring.gen()
    want = o_membership_series(model, 2, a, "all", "OPlus")
    calls = []
    pow_ = type(ring).pow_
    monkeypatch.setattr(type(ring), "pow_",
                        lambda self, x, n: calls.append(x) or pow_(self, x, n))
    assert o_membership(model, 2, a, "all", "OPlus") == want
    assert want.verdict == "NonMember" and len(calls) == 1
    assert ring.val(calls[0]) < 0


@pytest.mark.parametrize("model,p", [
    (Laurent(FiniteField(7), "t"), 3), (Laurent(FiniteField(7), "t"), 2),
    (LocalRational(7), 3), (LocalRational(7), 2), (LocalRational(5), 2)])
def test_rule_matches_series_search_on_basis_products(model, p):
    """Every product of basis powers, at every target and at H all and
    H the classes of valuation 0 mod p; -1 is no square in F_7 and Q_7."""
    ops = model.domain()
    reps = [r for _, r in model.basis(p)]
    d = len(reps)
    units = [list(v) + [0] for v in iter_product(range(p), repeat=d - 1)]
    for exps in iter_product(range(-1, p + 1), repeat=d):
        a = ops.one
        for r, k in zip(reps, exps):
            a = ops.mul(a, ops.pow_(r, k))
        for h in ("all", units):
            for target in ("OMinus", "OPlus", "ORing"):
                args = (model, p, a, h, target, 200)
                assert (_outcome(o_membership, *args)
                        == _outcome(o_membership_series, *args)), args

"""The per-object memo of ``pairs.normalize``, ``validate`` and
``theta_image``: remembered answers equal fresh ones, a second call walks
no node, the memo is keyed by the prime, and it makes no reference
cycle and no difference to equality, hash, repr or JSON."""

import dataclasses
import gc
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from etkit import pairs
from etkit.cohomology import (
    build_cohomology,
    dims_closed_form,
    is_demuskin,
    log_level_direct,
    log_level_recursive,
)
from etkit.errors import ValidationError
from etkit.pairs import (
    EBlock,
    Ext,
    FreeProd,
    PAdicBlock,
    Trivial,
    ZBlock,
    normalize,
    parse,
    render,
    theta_image,
    to_json,
    validate,
)
from randexpr import random_expr

NODES = (Trivial, ZBlock, EBlock, PAdicBlock, FreeProd, Ext)
DEGREE = 4


def draw(seed: int, p: int):
    """A random normal form, and a tree around it that is not one."""
    rng = random.Random(seed)
    ne = random_expr(rng, p, max_rank=6)
    raw = FreeProd((Trivial(), Ext(1, Trivial()) if rng.random() < 0.5 else ne))
    return ne, FreeProd((raw, ne))


def values(e, p) -> dict:
    alg = build_cohomology(e, p, DEGREE)
    return {
        "normalize": normalize(e, p),
        "validate": validate(e, p),
        "theta_image": theta_image(e, p),
        "dims_closed_form": dims_closed_form(normalize(e, p), p, DEGREE),
        "is_demuskin": is_demuskin(e, p),
        "log_level_recursive": log_level_recursive(e, p),
        "log_level_direct": log_level_direct(e, p, DEGREE),
        "dims": alg.dims,
        "gram": alg.gram().tolist(),
    }


@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_remembered_values_match_a_fresh_parse(seed, p):
    for e in draw(seed, p):
        values(e, p)
        remembered = values(e, p)  # every answer now comes from the memo
        fresh = parse(render(e), p)
        assert remembered == values(fresh, p)
        # the memo lives outside the fields: ==, hash, repr and JSON see none
        assert dataclasses.fields(e) == dataclasses.fields(fresh)
        assert e == fresh and hash(e) == hash(fresh)
        assert repr(e) == repr(fresh) and to_json(e) == to_json(fresh)


@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_a_normal_form_is_its_own_normal_form(seed, p):
    for e in draw(seed, p):
        ne = normalize(e, p)
        assert normalize(ne, p) is ne
        assert normalize(e, p) is ne


@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_second_call_walks_no_node(seed, p):
    def walked(*args):
        raise AssertionError("walked a node")

    for e in draw(seed, p):
        ne = normalize(e, p)
        thetas = theta_image(e, p), theta_image(ne, p)
        with pytest.MonkeyPatch.context() as mp:
            for cls in NODES:
                for name in ("validate", "normalize", "theta_generators"):
                    mp.setattr(cls, name, walked)
            mp.setattr(pairs, "is_prime", walked)
            mp.setattr(pairs, "subgroup_invariants", walked)
            for x in (e, ne):
                validate(x, p)
                assert normalize(x, p) is ne
            assert (theta_image(e, p), theta_image(ne, p)) == thetas


@given(st.integers(0, 2**32))
def test_memo_is_keyed_by_the_prime(seed):
    for x in draw(seed, 2):
        e = Ext(1, FreeProd((x, EBlock())))  # E is valid at p = 2 only
        ne = normalize(e, 2)
        theta_image(e, 2)
        for x in (e, ne):
            for call in (validate, normalize, theta_image):
                with pytest.raises(ValidationError):
                    call(x, 3)


def test_memo_leaves_no_reference_cycles():
    # a normal form marks itself as one without a reference to itself:
    # E is its own normal form, triv * Z(3) normalizes to its factor, and
    # ext(1, triv) to a new node
    texts = [("E", 2), ("triv * Z(3)", 2), ("ext(1, triv)", 3),
             ("ext(2, Z(3) * E * ext(1, Z(5)))", 2),
             ("Z(7) * padic(n=4,q=3,case=I)", 3)]

    def use(text, p):
        e = parse(text, p)
        ne = normalize(e, p)
        for x in (e, ne):
            normalize(x, p)
            validate(x, p)
            theta_image(x, p)

    for text, p in texts:
        use(text, p)
    gc.collect()
    gc.disable()
    try:
        for text, p in texts:
            use(text, p)
        assert gc.collect() == 0
    finally:
        gc.enable()

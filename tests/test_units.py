import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from etkit.errors import (
    DenominatorNotInvertible,
    NotAUnit,
    PrecisionExhausted,
    ValidationError,
)
from etkit.units import (
    PAdicUnit,
    enumerate_subgroup,
    epsilon_of,
    make_unit,
    subgroup_invariants,
)


def test_make_unit_reduces_rationals():
    u = make_unit(2, -1, 3)
    assert u.value == (-pow(3, -1, 2**64)) % 2**64
    assert u.num == -1 and u.den == 3


def test_make_unit_rejects_bad_inputs():
    with pytest.raises(DenominatorNotInvertible):
        make_unit(2, 1, 4)
    with pytest.raises(NotAUnit):
        make_unit(2, 4, 1)
    with pytest.raises(NotAUnit):
        make_unit(3, 2, 1)


def test_multiplication_and_inverse():
    u = make_unit(2, 3)
    v = make_unit(2, 5)
    w = u * v
    assert w.value == 15
    assert (u * u.inverse()).value == 1


def test_epsilon_values():
    assert epsilon_of(make_unit(2, -1)) == 1
    assert epsilon_of(make_unit(2, 5)) == 0
    assert epsilon_of(make_unit(2, 3)) == 1
    assert epsilon_of(make_unit(2, -1, 3)) == 0  # -1/3 = 5 mod 8
    assert epsilon_of(make_unit(3, 4)) == 0


def test_to_json_prefers_provenance():
    assert make_unit(2, -1, 3).to_json() == {"num": -1, "den": 3}
    raw = PAdicUnit(2, 5, 16)
    assert raw.to_json() == {"residue": 5, "precision": 16}


def test_q_invariant_examples():
    inv = subgroup_invariants(2, [make_unit(2, 5)], K=16)
    assert inv.q_invariant == 4 and not inv.eps_nonzero
    inv = subgroup_invariants(2, [make_unit(2, -1)], K=16)
    assert inv.q_invariant == 2 and inv.eps_nonzero
    inv = subgroup_invariants(3, [make_unit(3, 4)], K=16)
    assert inv.q_invariant == 3
    inv = subgroup_invariants(2, [make_unit(2, 1)], K=16)
    assert inv.trivial and inv.q_invariant == 0


def test_precision_exhausted_on_deep_units():
    with pytest.raises(PrecisionExhausted):
        subgroup_invariants(2, [make_unit(2, 1 + 2**14, 1, 16)], K=16)


def test_q2_theta_image_invariants():
    # generators of the dyadic theta image: -1 and -1/3
    inv = subgroup_invariants(2, [make_unit(2, -1), make_unit(2, -1, 3)])
    assert inv.q_invariant == 2
    assert inv.eps_nonzero
    assert inv.square_index == 4


def _units(K, *nums):
    return K, [make_unit(2, n, 1, K) for n in nums]


@st.composite
def generator_sets(draw):
    K = draw(st.integers(3, 12))
    mod = 1 << K
    small = st.integers(-60, 60).filter(lambda n: n % 2)
    # (-1)^s 5^b (1 + 2^e): e >= K drops 1 + 2^e, b = 0 mod 2^(K-2) drops 5^b
    shaped = st.builds(lambda s, b, e: (-1) ** s * pow(5, b, mod) * (1 + 2**e),
                       st.integers(0, 1), st.integers(0, 2**K), st.integers(2, K + 1))
    nums = draw(st.lists(st.one_of(small, shaped), min_size=1, max_size=3))
    return _units(K, *nums)


@given(generator_sets())
@example(_units(10, -1))
@example(_units(10, 5))
@example(_units(10, -1, 5))
@example(_units(10, -1, 1 + 2**9))
@example(_units(10, 9, -25))  # both of depth 3, signs opposite
@example(_units(10, -5, -1))  # the least depth has sign -1
@example(_units(10, 1))
def test_invariants_match_enumeration(case):
    """Two-route check at low precision: the invariants read off 2-adic
    valuations against literal subgroup closure mod 2^K."""
    K, gens = case
    try:
        inv = subgroup_invariants(2, gens, K=K)
    except PrecisionExhausted:
        return
    subgroup = enumerate_subgroup(2, gens, K)
    mod = 1 << K
    squares = {(x * x) % mod for x in subgroup}
    assert inv.square_index == len(subgroup) // len(squares)
    assert inv.eps_nonzero == any(x % 4 == 3 for x in subgroup)
    if inv.trivial:
        assert subgroup == {1}
        return
    # q-invariant: from the minimal valuation of g-1 over the subgroup
    vals = []
    for x in subgroup:
        if x == 1:
            continue
        d, t = (x - 1) % mod, 0
        while d % 2 == 0:
            d //= 2
            t += 1
        vals.append(t)
    assert inv.q_invariant == 2 ** min(vals)

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from etkit.errors import DenominatorNotInvertible, NotAUnit
from etkit.units import PAdicUnit, epsilon_of, make_unit, subgroup_invariants
from unit_closure import closure_invariants, depth


def test_make_unit_reduces_rationals():
    u = make_unit(2, -1, 3)
    # -1/3 = 1 + 4*(-1/3): sign +1, depth 2
    assert (u.sign, u.depth) == (1, 2)
    assert u.num == -1 and u.den == 3
    assert make_unit(2, 3, 5) == make_unit(2, 9, 15) != make_unit(2, 3)
    assert (make_unit(3, 7, 7).depth, make_unit(2, -5, 5).sign) == (math.inf, -1)


def test_make_unit_rejects_bad_inputs():
    with pytest.raises(DenominatorNotInvertible):
        make_unit(2, 1, 4)
    with pytest.raises(NotAUnit):
        make_unit(2, 4, 1)
    with pytest.raises(NotAUnit):
        make_unit(3, 2, 1)


def test_epsilon_values():
    assert epsilon_of(make_unit(2, -1)) == 1
    assert epsilon_of(make_unit(2, 5)) == 0
    assert epsilon_of(make_unit(2, 3)) == 1
    assert epsilon_of(make_unit(2, -1, 3)) == 0  # -1/3 = 5 mod 8
    assert epsilon_of(make_unit(3, 4)) == 0


def test_to_json_prefers_provenance():
    assert make_unit(2, -1, 3).to_json() == {"num": -1, "den": 3}
    # a unit given by sign and depth is sign/(1 - sign*p^depth)
    assert PAdicUnit(2, 1, 2).to_json() == {"num": 1, "den": -3}
    assert PAdicUnit(2, -1, math.inf).to_json() == {"num": -1, "den": 1}


def test_q_invariant_examples():
    inv = subgroup_invariants(2, [make_unit(2, 5)])
    assert inv.q_invariant == 4 and not inv.eps_nonzero
    inv = subgroup_invariants(2, [make_unit(2, -1)])
    assert inv.q_invariant == 2 and inv.eps_nonzero
    inv = subgroup_invariants(3, [make_unit(3, 4)])
    assert inv.q_invariant == 3
    inv = subgroup_invariants(2, [make_unit(2, 1)])
    assert inv.trivial and inv.q_invariant == 0


def test_deep_units_are_exact():
    # exactly: 1 + 2^14 generates 1 + 2^14 Z_2
    inv = subgroup_invariants(2, [make_unit(2, 1 + 2**14)])
    assert (inv.trivial, inv.q_invariant, inv.eps_nonzero, inv.square_index) == (
        False, 2**14, False, 2)
    inv = subgroup_invariants(3, [make_unit(3, 1 + 3**200)])
    assert inv.q_invariant == 3**200


def test_q2_theta_image_invariants():
    # generators of the dyadic theta image: -1 and -1/3
    inv = subgroup_invariants(2, [make_unit(2, -1), make_unit(2, -1, 3)])
    assert inv.q_invariant == 2
    assert inv.eps_nonzero
    assert inv.square_index == 4


def _units(K, *nums):
    return K, nums


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
    """Two-route check: the invariants read off signs and 2-adic depths
    against the literal subgroup closure mod 2^K.  The closure sees only
    depths below K, so draws with a finite depth >= K are skipped."""
    K, nums = case
    if any(K <= depth(2, n, 1) < math.inf for n in nums):
        return
    gens = [make_unit(2, n) for n in nums]
    assert subgroup_invariants(2, gens) == closure_invariants(2, [(n, 1) for n in nums], K)

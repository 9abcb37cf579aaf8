"""The literal closure of a unit subgroup mod p^K, kept as the tests'
oracle for ``units.subgroup_invariants``.

Generators are given as rationals (num, den), so the oracle shares no
code with ``units``.  The invariants of the closure mod p^K equal those
of the subgroup of Z_p when every finite depth of a generator is below
K.  Reduction mod p^K sends a generator of depth k < K to one of the same
sign and depth, and one of depth >= K to its sign; the q-invariant,
epsilon and the square index (``units._square_index``, whose argument
holds in Z/2 x Z/2^(K-2) as in Z/2 x Z_2 while k0 < K) read only signs
and depths.
"""

import math

from etkit.units import UnitSubgroupInvariants


def _valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def depth(p: int, num: int, den: int) -> int | float:
    """The depth of num/den: v_p(u - 1), or v_2(-u - 1) when u = 3 mod 4."""
    d = num - den if p != 2 or (num - den) % 4 == 0 else num + den
    return math.inf if d == 0 else _valuation(d, p)


def enumerate_subgroup(p: int, rationals, K: int) -> set[int]:
    """Every residue mod p^K of the subgroup the rationals generate."""
    mod = p**K
    steps = [num * pow(den, -1, mod) % mod for num, den in rationals]
    steps += [pow(g, -1, mod) for g in steps]
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in steps:
            y = x * g % mod
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def closure_invariants(p: int, rationals, K: int) -> UnitSubgroupInvariants:
    """q, epsilon and [G : G^2] of the closure mod p^K, by enumeration."""
    mod = p**K
    subgroup = enumerate_subgroup(p, rationals, K)
    trivial = subgroup == {1}
    q = 0 if trivial else p ** min(_valuation(x - 1, p) for x in subgroup if x != 1)
    if p != 2:
        return UnitSubgroupInvariants(p, trivial, q, None, None)
    squares = {x * x % mod for x in subgroup}
    return UnitSubgroupInvariants(p, trivial, q, any(x % 4 == 3 for x in subgroup),
                                  len(subgroup) // len(squares))

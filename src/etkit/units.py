"""Exact p-adic units and invariants of their finitely generated subgroups.

A unit is held by its sign and its depth: u = sign*(1 + p^depth*w) with w
a p-adic unit, and depth = INF when u = sign.  At odd p the units are the
1-units 1 + pZ_p, with sign +1 and depth >= 1.  At p = 2 they are all of
Z_2^x = {+-1} x (1 + 4Z_2): the sign is -1 exactly when u = 3 mod 4, and
the depth is at least 2.  The invariants that classify theta-images (the
q-invariant, the epsilon component and the index of squares) are read off
signs and depths alone, so no modulus enters and every answer is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DenominatorNotInvertible, NotAUnit, ValidationError
from .fplinear import is_prime

INF = math.inf


def valuation(n: int, p: int) -> int | float:
    """v_p(n), and INF for n = 0."""
    if n == 0:
        return INF
    if p == 2:
        return (n & -n).bit_length() - 1
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@dataclass(frozen=True, eq=False)
class PAdicUnit:
    """The unit sign*(1 + p^depth*w) of Z_p, held exactly.

    ``make_unit`` builds a unit from a rational num/den and keeps the pair
    in ``given``; two such units are equal when their rationals are.  A
    unit built from its sign and depth alone is sign/(1 - sign*p^depth),
    the form of every Demuskin-block generator; its ``num`` and ``den``
    are formed only when asked for, so a depth of 10^20 costs nothing.
    """

    p: int
    sign: int
    depth: int | float
    given: tuple[int, int] | None = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")
        signs, least_depth = ((1, -1), 2) if self.p == 2 else ((1,), 1)
        if self.sign not in signs or self.depth < least_depth:
            raise NotAUnit(f"{self.num}/{self.den} is not a 1-unit at p={self.p}")

    @property
    def num(self) -> int:
        return self.sign if self.given is None else self.given[0]

    @property
    def den(self) -> int:
        if self.given is not None:
            return self.given[1]
        return 1 if self.depth == INF else 1 - self.sign * self.p**self.depth

    def _key(self) -> tuple:
        return (self.p, self.sign, self.depth,
                None if self.given is None else Fraction(*self.given))

    def __eq__(self, other) -> bool:
        return isinstance(other, PAdicUnit) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def to_json(self) -> dict:
        return {"num": self.num, "den": self.den}


def make_unit(p: int, num: int, den: int = 1) -> PAdicUnit:
    """num/den as a unit of Z_p; its sign and depth are read off num +- den.

    Raises DenominatorNotInvertible when p | den and NotAUnit when the
    value is not a 1-unit (for odd p: not in 1 + pZ_p).
    """
    if den % p == 0:
        raise DenominatorNotInvertible(f"{den} is divisible by {p}")
    # sign*num/den - 1 = (sign*num - den)/den, and p does not divide den
    sign = -1 if p == 2 and (num + den) % 4 == 0 else 1
    return PAdicUnit(p, sign, valuation(sign * num - den, p), (num, den))


def epsilon_of(u: PAdicUnit) -> int:
    """The epsilon component: 0 for odd p; for p=2 whether u = -1 mod 4."""
    return int(u.sign < 0)


@dataclass(frozen=True)
class UnitSubgroupInvariants:
    """Invariants of the closed subgroup generated by finitely many units.

    ``q_invariant`` is the largest p-power q > 1 with every generator in
    1 + qZ_p, or 0 for the trivial subgroup.  ``eps_nonzero`` and
    ``square_index`` are meaningful for p = 2 only (None otherwise).
    """

    p: int
    trivial: bool
    q_invariant: int
    eps_nonzero: bool | None
    square_index: int | None

    def __post_init__(self):
        q = self.q_invariant
        if q != 0 and (q < 2 or q != self.p ** valuation(q, self.p)):
            raise ValidationError("q must be 0 or a p-power > 1")
        if self.square_index == 4 and not (self.p == 2 and self.eps_nonzero):
            raise ValidationError("square index 4 forces p=2 and eps nonzero")

    def to_json(self) -> dict:
        out = {"trivial": self.trivial, "q": self.q_invariant}
        if self.p == 2:
            out["epsNonzero"] = self.eps_nonzero
            out["squareIndex"] = self.square_index
        return out


def _square_index(units: list[PAdicUnit]) -> int:
    """[G : G^2] for the closed subgroup G of Z_2^x generated by ``units``.

    Write u = (-1)^a(u) 5^b(u) with a(u) = [u = 3 mod 4].  The depth k(u)
    of u is v_2(5^b - 1) = v_2(b) + 2, or INF when b = 0, so G sits in
    Z/2 x Z_2 through (a, b) and depth orders the b's by valuation.  Let g
    have the least depth k0.  When k0 is finite, every generator is
    c (a(g), b(g)) + (e, 0), with c odd exactly when its depth is k0; so
    e(u) = 1 exactly when a(u) != a(g) [k(u) = k0].  G is procyclic, of
    index 2, unless some e(u) = 1; then (1, 0) lies outside the nontrivial
    <(a(g), b(g))>, and the index is 4.  When k0 = INF, G lies in {+-1}:
    index 2 if it holds -1, else 1.
    """
    k0 = min((u.depth for u in units), default=INF)
    if k0 == INF:
        return 2 if any(u.sign < 0 for u in units) else 1
    a0 = next(u.sign < 0 for u in units if u.depth == k0)
    if any((u.sign < 0) != (a0 and u.depth == k0) for u in units):
        return 4
    return 2


def subgroup_invariants(p: int, generators: list[PAdicUnit]) -> UnitSubgroupInvariants:
    """Invariants of the subgroup generated by the given units, exactly.

    v_p(u - 1) is 1 for a sign of -1 (p = 2) and the depth otherwise, so q
    is p to the least of these.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    for g in generators:
        if g.p != p:
            raise ValidationError("generator prime does not match")
    t = min((1 if g.sign < 0 else g.depth for g in generators), default=INF)
    trivial = t == INF
    q = 0 if trivial else p**t
    if p != 2:
        return UnitSubgroupInvariants(p, trivial, q, None, None)
    eps = any(g.sign < 0 for g in generators)
    return UnitSubgroupInvariants(p, trivial, q, eps, _square_index(generators))

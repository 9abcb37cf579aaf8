"""Truncated p-adic units and invariants of their finitely generated subgroups.

Units are residues mod p^K that are congruent to 1 mod p (for p = 2 that
means every odd residue, since Z_2^x = {+-1} x (1+4 Z_2) and -1 = 1 mod 2).
The subgroup invariants computed here are the ones that classify theta-images:
the q-invariant, the epsilon component, and the index of squares.  The
q-invariant and the index of squares are read off p-adic valuations of the
generators; the literal closure ``enumerate_subgroup`` is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DenominatorNotInvertible,
    NotAUnit,
    PrecisionExhausted,
    ValidationError,
)
from .fplinear import is_prime

DEFAULT_PRECISION = 64


@dataclass(frozen=True)
class PAdicUnit:
    """A 1-unit of Z_p known mod p^K.

    ``num``/``den`` record the rational the unit came from when known; they
    are provenance only and do not take part in equality.
    """

    p: int
    value: int
    K: int = DEFAULT_PRECISION
    num: int | None = field(default=None, compare=False)
    den: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")
        if self.K < 1:
            raise ValidationError("precision must be at least 1")
        v = self.value % self.p**self.K
        if v % self.p != 1 % self.p:
            raise NotAUnit(f"{self.value} is not congruent to 1 mod {self.p}")
        object.__setattr__(self, "value", v)

    @property
    def modulus(self) -> int:
        return self.p**self.K

    def reduce(self, K: int) -> "PAdicUnit":
        if K > self.K:
            raise ValidationError("cannot increase precision by reduction")
        return PAdicUnit(self.p, self.value % self.p**K, K, self.num, self.den)

    def __mul__(self, other: "PAdicUnit") -> "PAdicUnit":
        if self.p != other.p:
            raise ValidationError("mixed primes")
        K = min(self.K, other.K)
        return PAdicUnit(self.p, (self.value * other.value) % self.p**K, K)

    def inverse(self) -> "PAdicUnit":
        return PAdicUnit(self.p, pow(self.value, -1, self.modulus), self.K)

    def to_json(self) -> dict:
        if self.num is not None and self.den is not None:
            return {"num": self.num, "den": self.den}
        return {"residue": self.value, "precision": self.K}


def make_unit(p: int, num: int, den: int = 1, K: int = DEFAULT_PRECISION) -> PAdicUnit:
    """The residue of num/den mod p^K as a 1-unit.

    Raises DenominatorNotInvertible when p | den and NotAUnit when the
    value is not a 1-unit (for odd p: not in 1 + pZ_p).
    """
    if den % p == 0:
        raise DenominatorNotInvertible(f"{den} is divisible by {p}")
    value = num * pow(den, -1, p**K) % p**K
    if value % p != 1 % p:
        raise NotAUnit(f"{num}/{den} = {value} mod {p}^{K} is not a 1-unit")
    return PAdicUnit(p, value, K, num=num, den=den)


def epsilon_of(u: PAdicUnit) -> int:
    """The epsilon component: 0 for odd p; for p=2 whether u = -1 mod 4."""
    if u.p != 2:
        return 0
    return 0 if u.value % 4 == 1 else 1


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
        if self.q_invariant != 0:
            q = self.q_invariant
            while q % self.p == 0:
                q //= self.p
            if q != 1 or self.q_invariant <= 1:
                raise ValidationError("q must be 0 or a p-power > 1")
        if self.square_index == 4 and not (self.p == 2 and self.eps_nonzero):
            raise ValidationError("square index 4 forces p=2 and eps nonzero")

    def to_json(self) -> dict:
        out = {"trivial": self.trivial, "q": self.q_invariant}
        if self.p == 2:
            out["epsNonzero"] = self.eps_nonzero
            out["squareIndex"] = self.square_index
        return out


def _square_index(values: list[int], K: int) -> int:
    """[G : G^2] for the subgroup G of (Z/2^K)^x generated by ``values``.

    Write u = (-1)^a(u) 5^b(u) with a(u) = [u = 3 mod 4] (K >= 3).  The
    depth k(u) of u is v_2(5^b - 1) = v_2(b) + 2, or K when 5^b = 1
    mod 2^K, so G sits in Z/2 x Z/2^(K-2) through (a, b) and depth
    orders the b's by valuation.  Let g have the least depth k0.  When
    k0 < K, every generator is c (a(g), b(g)) + (e, 0), with c odd exactly
    when its depth is k0; so e(u) = 1 exactly when a(u) != a(g) [k(u) = k0].
    G is cyclic, of index 2, unless some e(u) = 1; then (1, 0) lies
    outside the nontrivial <(a(g), b(g))>, since k0 < K, and the index
    is 4.  When k0 = K, G lies in {+-1}: index 2 if it holds -1, else 1.
    """
    mod = 1 << K
    signs, depths = [], []
    for u in values:
        a = u % 4 == 3
        d = (-u if a else u) % mod - 1
        signs.append(a)
        depths.append((d & -d).bit_length() - 1 if d else K)
    k0 = min(depths, default=K)
    if k0 == K:
        return 2 if any(signs) else 1
    a0 = signs[depths.index(k0)]
    if any(a != (a0 and k == k0) for a, k in zip(signs, depths)):
        return 4
    return 2


def subgroup_invariants(
    p: int, generators: list[PAdicUnit], K: int | None = None
) -> UnitSubgroupInvariants:
    """Invariants of the subgroup generated by the given units mod p^K.

    Raises PrecisionExhausted when the q-invariant would need digits beyond
    K-2, where truncation can no longer distinguish it from larger values.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    for g in generators:
        if g.p != p:
            raise ValidationError("generator prime does not match")
    if K is None:
        K = min((g.K for g in generators), default=DEFAULT_PRECISION)
    mod = p**K
    values = [g.value % mod for g in generators]
    nontrivial = [v for v in values if v != 1]
    q = 0
    if nontrivial:
        t_min = K
        for v in nontrivial:
            d = (v - 1) % mod
            t = 0
            while d % p == 0:
                d //= p
                t += 1
            t_min = min(t_min, t)
        if p**t_min >= p ** (K - 2):
            raise PrecisionExhausted(
                f"q-invariant would be >= {p}^{K - 2}; rerun at higher precision"
            )
        q = p**t_min
    if p != 2:
        return UnitSubgroupInvariants(p, not nontrivial, q, None, None)
    eps = any(v % 4 != 1 for v in values)
    return UnitSubgroupInvariants(p, not nontrivial, q, eps, _square_index(values, K))


def enumerate_subgroup(p: int, generators: list[PAdicUnit], K: int) -> set[int]:
    """Literal closure of the generated subgroup mod p^K (test oracle).

    Only sensible at small K; see subgroup_invariants for the production
    route.
    """
    mod = p**K
    gens = [g.value % mod for g in generators]
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in ((x * g) % mod, (x * pow(g, -1, mod)) % mod):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen

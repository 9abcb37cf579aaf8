"""Graded F_p cohomology algebras of pair expressions.

Each expression gets a finite-dimensional model of its mod-p cohomology
ring up to a chosen degree: explicit bases, the cup product as structure
constants, and the epsilon class in degree one.  ``_build`` makes them,
and is the module's one dispatch on the kind of node; the structural
walks (closed-form Betti numbers, the recursive log level) are methods of
the node classes in ``pairs``.  Demuskin recognition reads the normal
form and builds no ring: ``is_demuskin`` proves its rule from the Betti
numbers and the pairings of the models below.  The two log-level
computations (structural recursion vs. direct cup powers) sit on top.

Below ``GradedAlgebra.product`` a product of two basis classes is sparse:
a map from basis index in the target degree to a coefficient in
1..p-1, so a node pays for the nonzero terms of its factors' products,
not for the length of its target degree.  ``gram``, ``cup`` and the
JSON form read those maps directly; ``product`` turns one into a dense
vector and memoizes it.  A product into a degree of dimension 0 is zero:
``product`` and ``cup`` return the length-0 vector without asking the
model.  An ``Ext`` node holds each subset of its b's as an int bitmask,
so its products find their block, sign and epsilon powers by bit
operations and popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import DegreeTooSmall, DimensionTooLarge, JsonRecord, ValidationError
from .pairs import (
    EBlock,
    Ext,
    FreeProd,
    PAdicBlock,
    PairExpr,
    Trivial,
    ZBlock,
    normalize,
    rank,
    theta_image,
)
from .units import epsilon_of

# README "Limits": the most basis classes a ring model builds
MAX_BASIS = 100_000


def _with_unit(core):
    """Extend a product defined in positive degrees by the H^0 unit."""

    def mul(d1: int, i: int, d2: int, j: int) -> dict[int, int]:
        if d1 == 0 or d2 == 0:
            return {j if d1 == 0 else i: 1}
        return core(d1, i, d2, j)

    return mul


def _no_product(d1: int, i: int, d2: int, j: int) -> dict[int, int]:
    """Trivial and Z blocks: every product in positive degrees is zero."""
    return {}


def _demuskin_gram(n: int, case: str, p: int) -> dict[tuple[int, int], int]:
    """Nonzero structure constants of the degree-(1,1) pairing of a
    Demuskin block."""
    g = {}
    for a in range(1 if case == "II" else 0, n - 1, 2):
        g[a, a + 1] = 1
        g[a + 1, a] = p - 1
    if p == 2 and case != "I":
        g[0, 0] = 1
    return g


def _demuskin_eps(n: int, case: str, p: int) -> list[int]:
    eps = [0] * n
    if p == 2 and case != "I":
        eps[0 if case == "II" else 1] = 1
    return eps


def _build(e: PairExpr, p: int, D: int):
    """Ring model ``(labels, eps, mul)`` of a validated node up to degree
    ``D``, of dimension ``len(labels[d])`` in degree d: one dispatch on kind.

    ``mul(d1, i, d2, j)`` is the sparse product of two basis classes of
    positive degree; ``_with_unit`` adds the unit where a caller needs
    it.  A free product shifts its factor's indices to the factor's
    block, and products across factors vanish.  ``Ext(m, base)`` has the
    basis b_S * i(x), S a subset of {1..m} and x a base class; S is an int
    bitmask whose bit k-1 stands for b_k, listed by ``combinations`` so
    the basis order and labels are those of sorted tuples.  At odd p,
    b_S i(x) * b_T i(y) = (-1)^(|S| deg y + inv(S, T)) b_(S|T) i(xy),
    which is zero when S & T != 0; inv(S, T), the pairs s > t, is the sum
    over s in S of popcount(T & (the bits below s)).  At p = 2 the square
    rule b_k^2 = b_k i(eps) makes it b_(S|T) i(x y eps^popcount(S&T)),
    each power of eps a sparse product against the support of the base's
    eps.
    """
    if isinstance(e, Trivial):
        return [["1"]] + [[] for _ in range(D)], [], _no_product

    if isinstance(e, ZBlock):
        labels = [["1"], ["x"]] + [[] for _ in range(D - 1)]
        return labels, [epsilon_of(e.alpha) if p == 2 else 0], _no_product

    if isinstance(e, EBlock):
        labels = [["1"], ["x"]] + [[f"x^{d}"] for d in range(2, D + 1)]
        return labels, [1], lambda d1, i, d2, j: {0: 1}

    if isinstance(e, PAdicBlock):
        n = e.n
        labels = [["1"], [f"x{k}" for k in range(1, n + 1)], ["w"]]
        labels += [[] for _ in range(D - 2)]
        gram = _demuskin_gram(n, e.case, p)

        def core(d1, i, d2, j):
            c = gram.get((i, j)) if d1 == d2 == 1 else None
            return {0: c} if c else {}

        return labels, _demuskin_eps(n, e.case, p), core

    if isinstance(e, FreeProd):
        kids = [_build(f, p, D) for f in e.factors]
        muls = [kid[2] for kid in kids]
        labels: list[list[str]] = [["1"]]
        owner: list[list[tuple[int, int]]] = [[]]
        start: list[list[int]] = [[0] * len(kids)]
        for d in range(1, D + 1):
            row: list[str] = []
            own: list[tuple[int, int]] = []
            st: list[int] = []
            for k, (klabels, _, _) in enumerate(kids):
                st.append(len(row))
                row.extend(f"g{k + 1}.{lbl}" for lbl in klabels[d])
                own.extend((k, li) for li in range(len(klabels[d])))
            labels.append(row)
            owner.append(own)
            start.append(st)

        def core(d1, i, d2, j):
            k1, li = owner[d1][i]
            k2, lj = owner[d2][j]
            if k1 != k2:
                # cross-factor cup products vanish in a free product
                return {}
            off = start[d1 + d2][k1]
            return {off + r: c for r, c in muls[k1](d1, li, d2, lj).items()}

        return labels, [c for kid in kids for c in kid[1]], core

    # the remaining kind: Ext
    blabels, beps, bmul = _build(e.base, p, D)
    bmul = _with_unit(bmul)
    m = e.m
    # monos[d][i] = (S, b) is the i-th class of degree d, S a bitmask whose
    # bit k-1 stands for b_k; the classes of one S are consecutive, and
    # block[d][S] is the index of the first
    monos: list[list[tuple[int, int]]] = []
    block: list[dict[int, int]] = []
    labels = []
    # the one-bit masks in ascending order, with their labels
    bname = {1 << k: f"b{k + 1}" for k in range(m)}
    for d in range(D + 1):
        row: list[tuple[int, int]] = []
        first: dict[int, int] = {}
        lab: list[str] = []
        for j in range(min(m, d) + 1):
            base = blabels[d - j]
            if not base:
                continue
            for ks in combinations(bname, j):
                S = sum(ks)
                first[S] = len(row)
                row.extend((S, b) for b in range(len(base)))
                bs = [bname[q] for q in ks]
                for bl in base:
                    lab.append("*".join(bs if bl == "1" else bs + [f"i({bl})"]) or "1")
        monos.append(row)
        block.append(first)
        labels.append(lab)
    eps_support = [k for k, c in enumerate(beps) if c % p]

    def times_eps(v: dict[int, int], t: int) -> dict[int, int]:
        # p = 2: every coefficient is 1, so a sum is a symmetric difference
        out: set[int] = set()
        for r in v:
            for k in eps_support:
                out.symmetric_difference_update(bmul(t, r, 1, k))
        return dict.fromkeys(out, 1)

    def core(d1, i, d2, j):
        S, b1 = monos[d1][i]
        T, b2 = monos[d2][j]
        if p != 2 and S & T:
            return {}
        bd1, bd2 = d1 - S.bit_count(), d2 - T.bit_count()
        v = bmul(bd1, b1, bd2, b2)
        sign = 1
        if p == 2:
            t = bd1 + bd2
            for _ in range((S & T).bit_count()):
                v = times_eps(v, t)
                t += 1
        elif v:
            # inv(S, T): the pairs s in S, t in T with s > t
            inversions, rest = 0, S
            while rest:
                low = rest & -rest
                inversions += (T & (low - 1)).bit_count()
                rest ^= low
            if (S.bit_count() * bd2 + inversions) & 1:
                sign = -1
        if not v:
            return {}
        off = block[d1 + d2][S | T]
        return {off + r: sign * c % p for r, c in v.items()}

    return labels, beps + [0] * m, core


@dataclass
class GradedAlgebra:
    """Cohomology ring truncated at ``max_degree``, with memoized products.

    ``product`` and ``cup`` into a degree of dimension 0 return a length-0
    int64 vector at once: they neither call ``_mul`` nor touch the memo.
    """

    p: int
    max_degree: int
    basis: tuple[tuple[str, ...], ...]
    eps: np.ndarray
    _mul: Callable[[int, int, int, int], dict[int, int]]
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dims(self) -> list[int]:
        return [len(b) for b in self.basis]

    def _check_degree(self, d: int) -> None:
        if d > self.max_degree:
            raise ValidationError(
                f"product lands in degree {d} > max degree {self.max_degree}"
            )

    def product(self, d1: int, i: int, d2: int, j: int) -> np.ndarray:
        """Cup product of the i-th degree-d1 and j-th degree-d2 basis classes."""
        self._check_degree(d1 + d2)
        if not self.basis[d1 + d2]:
            return np.zeros(0, dtype=np.int64)
        key = (d1, i, d2, j)
        if key not in self._cache:
            out = np.zeros(len(self.basis[d1 + d2]), dtype=np.int64)
            for r, c in self._mul(d1, i, d2, j).items():
                out[r] = c
            self._cache[key] = out
        return self._cache[key]

    def cup(self, v1, d1: int, v2, d2: int) -> np.ndarray:
        """Bilinear extension of the product to coefficient vectors."""
        self._check_degree(d1 + d2)
        if not self.basis[d1 + d2]:
            return np.zeros(0, dtype=np.int64)
        a1 = (np.asarray(v1, dtype=np.int64) % self.p).tolist()
        a2 = (np.asarray(v2, dtype=np.int64) % self.p).tolist()
        support2 = [(j, b) for j, b in enumerate(a2) if b]
        out = [0] * len(self.basis[d1 + d2])
        for i, a in enumerate(a1):
            if a:
                for j, b in support2:
                    for r, c in self._mul(d1, i, d2, j).items():
                        out[r] += a * b * c
        return np.array(out, dtype=np.int64) % self.p

    def gram(self) -> np.ndarray:
        """Degree-(1,1) structure tensor, shape (d1, d1, d2)."""
        n = self.dims[1]
        t = np.zeros((n, n, self.dims[2]), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                for r, c in self._mul(1, i, 1, j).items():
                    t[i, j, r] = c
        return t

    def gram_matrix(self) -> np.ndarray:
        if self.dims[2] != 1:
            raise ValidationError("gram matrix needs one-dimensional H^2")
        return self.gram()[:, :, 0]


def build_cohomology(e: PairExpr, p: int, max_degree: int) -> GradedAlgebra:
    """Cohomology model of the normal form of ``e`` up to ``max_degree``."""
    if max_degree < 2:
        raise DegreeTooSmall(
            f"cohomology model needs max degree >= 2, got {max_degree}"
        )
    ne = normalize(e, p)
    _check_basis(ne, max_degree)
    labels, eps, mul = _build(ne, p, max_degree)
    return GradedAlgebra(
        p=p,
        max_degree=max_degree,
        basis=tuple(tuple(row) for row in labels),
        eps=np.array(eps, dtype=np.int64) % p,
        _mul=_with_unit(mul),
        meta={"ext_inflation_dim": rank(ne.base) if isinstance(ne, Ext) else None},
    )


def _check_basis(ne: PairExpr, max_degree: int) -> None:
    """Refuse a ring with more than ``MAX_BASIS`` basis classes before
    building it.

    The count is at most (max_degree + 1) x 2^rank: a free product adds
    the factors' counts, and ext(m, -) multiplies a count by at most 2^m.
    Below that the ring passes at once.  Otherwise the closed-form count
    decides; it takes O(rank x degree) steps, as does the build's
    degree-by-factor table, so that product is refused first."""
    r = rank(ne)
    if r < MAX_BASIS.bit_length() and (max_degree + 1) << r <= MAX_BASIS:
        return
    if (r + 1) * (max_degree + 1) > MAX_BASIS:
        # the rank is not printed: it can pass Python's int-to-str limit
        raise DimensionTooLarge(
            f"(rank + 1) x (max degree + 1) exceeds the basis bound {MAX_BASIS}"
        )
    count = sum(ne.dims_closed_form(max_degree))
    if count > MAX_BASIS:
        raise DimensionTooLarge(
            f"the ring would have more than {MAX_BASIS} basis classes "
            f"up to degree {max_degree}"
        )


def dims_closed_form(e: PairExpr, p: int, max_degree: int) -> list[int]:
    """Betti numbers by structural recursion, no basis construction.

    Free products add in positive degrees; an extension by Z_p^m convolves
    with binomial coefficients.  Used as an independent check on the
    constructed bases.
    """
    return e.dims_closed_form(max_degree)


def algebra_to_json(alg: GradedAlgebra) -> dict:
    gram = alg.gram_matrix() if alg.dims[2] == 1 else alg.gram()
    return {
        "dims": alg.dims,
        "basis": [list(row) for row in alg.basis],
        "eps": [int(c) for c in alg.eps],
        "gram": gram.tolist(),
    }


# ---------------------------------------------------------------------------
# Demuskin recognition


@dataclass(frozen=True)
class DemuskinVerdict(JsonRecord):
    is_demuskin: bool
    n: int
    q: int | None
    case: str | None


def _classify(p: int, q: int, n: int, square_index: int | None) -> str:
    if p != 2 or q != 2:
        return "I"
    if n % 2:
        return "II"
    return "III" if square_index == 2 else "IV"


def is_demuskin(e: PairExpr, p: int) -> DemuskinVerdict:
    """Decide whether the pair is Demuskin: one-dimensional H^2 and a
    nondegenerate cup pairing on H^1 (Demuskin 1961; Labute 1967).

    The verdict is read off the normal form ``ne`` and no ring is built;
    the degree-2 basis bound still refuses what ``build_cohomology(ne, p,
    2)`` would.  It is True exactly when ``ne`` is a ``PAdicBlock``, an
    ``EBlock``, ``Ext(1, ZBlock)`` or ``Ext(2, Trivial)``.  The proof goes
    shape by shape; b1 and b2 are the Betti numbers of an ``Ext``'s base.

    H^2 has dimension 1 only in those four shapes.  Trivial and Z blocks
    have H^2 = 0, E and p-adic blocks H^2 = F_p.  For ``Ext(m, base)``,
    dims[2] = C(m, 2) + m b1 + b2, and a normal form's base is neither an
    ``Ext`` nor E, and ``Trivial`` only when m >= 2.  So m >= 3 gives at
    least 3; m = 2 gives 1 only when b1 = b2 = 0, over ``Trivial``; and
    m = 1 gives 1 only when b1 = 1 and b2 = 0 (a base of rank 0 is
    trivial, so b1 = 0 forces b2 = 0), which leaves a Z block.  The same
    count shows that a normal ``Ext`` never has dims[2] = 0.  A free
    product in normal form has at least two factors, none trivial and
    none a free product, and its dims[2] is the sum of theirs.  Either
    every factor has dims[2] >= 1, and the sum is at least 2, or some
    factor has dims[2] = 0, which makes it a Z block.  The class x of a
    Z block pairs to zero with everything: x^2 = 0, and products across
    factors vanish.  So the pairing is degenerate.

    The pairing is nondegenerate in each of the four shapes.  On E it
    is x^2 = w.  On a p-adic block (``_demuskin_gram``) it is a sum of
    planes [[0, 1], [-1, 0]] on consecutive classes; at p = 2, Cases
    II-IV add x1^2 = w, which is a 1 x 1 block [1] in Case II and turns
    the first plane into [[1, 1], [1, 0]] in Cases III and IV.  On
    ``Ext(1, Z(alpha))``, in the basis i(x), b1, the gram is
    [[0, 1], [-1, c]], where c = eps(alpha) at p = 2 (b1^2 = b1 i(eps))
    and c = 0 at odd p.  On ``Ext(2, Trivial)``, in the basis b1, b2, it
    is [[0, 1], [-1, 0]], since b_k^2 = 0 (the trivial base has no eps).
    Every one of these has determinant +-1.

    The case label reads only p, q, n and the square index of the theta
    image.
    """
    ne = normalize(e, p)
    _check_basis(ne, 2)
    n = rank(ne)
    inv = theta_image(ne, p)
    q = inv.q_invariant
    ok = isinstance(ne, (PAdicBlock, EBlock)) or (
        isinstance(ne, Ext) and (ne.m, type(ne.base)) in ((1, ZBlock), (2, Trivial)))
    if not ok:
        return DemuskinVerdict(False, n, q, None)
    return DemuskinVerdict(True, n, q, _classify(p, q, n, inv.square_index))


# ---------------------------------------------------------------------------
# log-level of the epsilon class


def log_level_recursive(e: PairExpr, p: int) -> float | int:
    """Least m with eps^m = 0, by structural recursion (math.inf possible)."""
    ne = normalize(e, p)
    if p != 2:
        return 1
    return ne.log_level_recursive()


def log_level_direct(e: PairExpr, p: int, max_degree: int) -> int | str:
    """Least m with eps^m = 0 by computing cup powers up to max_degree.

    Returns ">{max_degree}" when the chain stays nonzero that far.
    """
    alg = build_cohomology(e, p, max_degree)
    v = alg.eps % p
    if not v.any():
        return 1
    deg = 1
    while deg < max_degree:
        v = alg.cup(v, deg, alg.eps, 1)
        deg += 1
        if not v.any():
            return deg
    return f">{max_degree}"

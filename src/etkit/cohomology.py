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

Below ``GradedAlgebra`` each node writes the structure tensor of a whole
degree pair (an ``Ext`` node places a few blocks of its base at every
pair of subsets of its b's); ``product`` keeps it dense and read-only,
one build per degree pair, and ``gram`` and the JSON form read the
(1, 1) tensor.  Each node's per-pair rule gives the sparse product of
two basis classes, a map from basis index to a coefficient in 1..p-1;
only ``cup`` and a ``product`` past ``MAX_BLOCK_CELLS`` read it, so cup
powers pay for the pairs they touch and build no block.  Both rules of
an ``Ext`` node read one memo of its base's products times powers of
epsilon, and find place, sign and epsilon power by bit operations on
its subsets of b's, held as int bitmasks.  A product into a degree of
dimension 0 is zero: ``product`` and ``cup`` return the length-0 vector
without asking the model.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
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
# the most entries of one degree-pair block that ``product`` builds
# (128 MB of int64)
MAX_BLOCK_CELLS = 1 << 24


def _indices(*values) -> list[int]:
    """Degrees and class indices through ``operator.index``; a bool, which
    numpy reads as a mask, or a non-integer raises ``ValidationError``."""
    try:
        if not any(isinstance(v, bool) for v in values):
            return [operator.index(v) for v in values]
    except TypeError:
        pass
    raise ValidationError("degrees and class indices must be integers, got "
                          + ", ".join(type(v).__name__ for v in values))


def _with_unit(core):
    """Extend a product defined in positive degrees by the H^0 unit."""

    def mul(d1: int, i: int, d2: int, j: int) -> dict[int, int]:
        if d1 == 0 or d2 == 0:
            return {j if d1 == 0 else i: 1}
        return core(d1, i, d2, j)

    return mul


def _with_unit_block(labels: list[list[str]], core):
    """Extend a block defined in positive degrees by the H^0 unit."""

    def block(d1: int, d2: int, out, o1: int, o2: int, o3: int) -> None:
        if d1 and d2:
            core(d1, d2, out, o1, o2, o3)
        elif d1 == 0:
            for j in range(len(labels[d2])):
                out[o1, o2 + j, o3 + j] = 1
        else:
            for i in range(len(labels[d1])):
                out[o1 + i, o2, o3 + i] = 1

    return block


def _dense(labels: list[list[str]], block):
    """The int64 structure tensor of a degree pair, written by its block."""

    def dense(d1: int, d2: int) -> np.ndarray:
        out = np.zeros((len(labels[d1]), len(labels[d2]), len(labels[d1 + d2])),
                       dtype=np.int64)
        block(d1, d2, out, 0, 0, 0)
        return out

    return dense


def _no_product(d1: int, i: int, d2: int, j: int) -> dict[int, int]:
    """Trivial and Z blocks: every product in positive degrees is zero."""
    return {}


def _no_block(d1: int, d2: int, out, o1: int, o2: int, o3: int) -> None:
    pass


def _e_block(d1: int, d2: int, out, o1: int, o2: int, o3: int) -> None:
    out[o1, o2, o3] = 1


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
    """Ring model ``(labels, eps, mul, block)`` of a validated node up to
    degree ``D``, of dimension ``len(labels[d])`` in degree d: one dispatch
    on kind.

    ``mul(d1, i, d2, j)``, the per-pair rule, is the sparse product of two
    basis classes of positive degree (an ``Ext`` reads only its base's
    blocks).  ``block(d1, d2, out, o1, o2, o3)`` writes the structure
    tensor of all of them, of shape (n_d1, n_d2, n_(d1+d2)), into ``out``
    shifted by the offsets: each nonzero entry c in 1..p-1 at
    (i, j, r) goes to ``out[o1 + i, o2 + j, o3 + r]``, and nothing else
    is written.  ``out`` is the dense int64 tensor (see ``_dense``), or a
    dict when an ``Ext`` node collects its base's entries.
    ``_with_unit`` and ``_with_unit_block`` add the unit where a caller
    needs it.  A free product shifts its factor's indices to the factor's
    block, so its blocks sit on the diagonal of its own, and products
    across factors vanish.  ``Ext(m, base)`` has the basis b_S * i(x), S
    a subset of {1..m} and x a base class; S is an int bitmask whose bit
    k-1 stands for b_k, listed by ``combinations`` so the basis order and
    labels are those of sorted tuples.  At odd p,
    b_S i(x) * b_T i(y) = (-1)^(|S| deg y + inv(S, T)) b_(S|T) i(xy),
    which is zero when S & T != 0; inv(S, T), the pairs s > t, is the sum
    over s in S of popcount(T & (the bits below s)).  At p = 2 the square
    rule b_k^2 = b_k i(eps) makes it b_(S|T) i(x y eps^popcount(S&T)).
    Both rules read one memo, ``twisted[a, b][k]``: for each pair (x, y)
    of base classes of degrees (a, b), the nonzero entries (r, c) of
    x y eps^k, made from the base's blocks.  ``core`` looks up one pair, with
    k = popcount(S & T), and ``block`` places all of them at every pair
    (S, T) of given sizes that meets in k elements; ``twist`` gives the
    sign and where S | T starts.
    """
    if isinstance(e, Trivial):
        return [["1"]] + [[] for _ in range(D)], [], _no_product, _no_block

    if isinstance(e, ZBlock):
        labels = [["1"], ["x"]] + [[] for _ in range(D - 1)]
        eps = [epsilon_of(e.alpha) if p == 2 else 0]
        return labels, eps, _no_product, _no_block

    if isinstance(e, EBlock):
        labels = [["1"], ["x"]] + [[f"x^{d}"] for d in range(2, D + 1)]
        return labels, [1], lambda d1, i, d2, j: {0: 1}, _e_block

    if isinstance(e, PAdicBlock):
        n = e.n
        labels = [["1"], [f"x{k}" for k in range(1, n + 1)], ["w"]]
        labels += [[] for _ in range(D - 2)]
        gram = _demuskin_gram(n, e.case, p)

        def core(d1, i, d2, j):
            c = gram.get((i, j)) if d1 == d2 == 1 else None
            return {0: c} if c else {}

        def block(d1, d2, out, o1, o2, o3):
            if d1 == d2 == 1:
                for (a, b), c in gram.items():
                    out[o1 + a, o2 + b, o3] = c

        return labels, _demuskin_eps(n, e.case, p), core, block

    if isinstance(e, FreeProd):
        return _build_free(e, p, D)

    # the remaining kind: Ext
    return _build_ext(e, p, D)


def _build_free(e: FreeProd, p: int, D: int):
    """``_build`` of a free product.  This and ``_build_ext`` are kept out
    of ``_build``: a call creates the cells of every closure in its
    function, so each leaf would pay for theirs."""
    kids = [_build(f, p, D) for f in e.factors]
    muls = [kid[2] for kid in kids]
    labels: list[list[str]] = [["1"]]
    owner: list[list[tuple[int, int]]] = [[]]
    start: list[list[int]] = [[0] * len(kids)]
    for d in range(1, D + 1):
        row: list[str] = []
        own: list[tuple[int, int]] = []
        st: list[int] = []
        for k, (klabels, _, _, _) in enumerate(kids):
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

    def block(d1, d2, out, o1, o2, o3):
        s1, s2, s3 = start[d1], start[d2], start[d1 + d2]
        for k, kid in enumerate(kids):
            kid[3](d1, d2, out, o1 + s1[k], o2 + s2[k], o3 + s3[k])

    return labels, [c for kid in kids for c in kid[1]], core, block


def _build_ext(e: Ext, p: int, D: int):
    """``_build`` of an extension ``Ext(m, base)``."""
    blabels, beps, _, bblock = _build(e.base, p, D)
    bblock = _with_unit_block(blabels, bblock)
    m = e.m
    # monos[d][i] = (S, b) is the i-th class of degree d, S a bitmask whose
    # bit k-1 stands for b_k; the classes of one S are consecutive, and
    # first[d][S] is the index of the first; sized[d][s] lists the masks of
    # s bits that have classes in degree d, in basis order
    monos: list[list[tuple[int, int]]] = []
    first: list[dict[int, int]] = []
    sized: list[dict[int, list[int]]] = []
    labels = []
    # the one-bit masks in ascending order, with their labels
    bname = {1 << k: f"b{k + 1}" for k in range(m)}
    for d in range(D + 1):
        row: list[tuple[int, int]] = []
        fst: dict[int, int] = {}
        sz: dict[int, list[int]] = {}
        lab: list[str] = []
        for j in range(min(m, d) + 1):
            base = blabels[d - j]
            if not base:
                continue
            masks = sz[j] = []
            for ks in combinations(bname, j):
                S = sum(ks)
                masks.append(S)
                fst[S] = len(row)
                row.extend((S, b) for b in range(len(base)))
                bs = [bname[q] for q in ks]
                for bl in base:
                    lab.append("*".join(bs if bl == "1" else bs + [f"i({bl})"]) or "1")
        monos.append(row)
        first.append(fst)
        sized.append(sz)
        labels.append(lab)
    eps_support = [k for k, c in enumerate(beps) if c % p]

    def twist(S: int, T: int, bd2: int, d: int) -> tuple[int, int | None]:
        """``(sign, off)`` for b_S i(x) * b_T i(y), y of base degree
        ``bd2``, where S & T = 0 at odd p: the product is
        sign * b_(S|T) i(x y eps^popcount(S & T)), and the classes of
        S | T start at ``off`` in degree ``d`` (None when it has none)."""
        sign = 1
        if p != 2:
            # inv(S, T): the pairs s in S, t in T with s > t
            inversions, rest = 0, S
            while rest:
                low = rest & -rest
                inversions += (T & (low - 1)).bit_count()
                rest ^= low
            if (S.bit_count() * bd2 + inversions) & 1:
                sign = -1
        return sign, first[d].get(S | T)

    # the memo ``twisted`` of ``_build``, filled on first use by loops (a
    # recursive closure is a reference cycle, which keeps the ring until the
    # garbage collector runs)
    twisted: dict[tuple[int, int], list[dict[tuple[int, int], list[tuple[int, int]]]]] = {}

    def base_powers(a: int, b: int) -> list[dict[tuple[int, int], list[tuple[int, int]]]]:
        """``twisted[a, b]``, holding at least the base's (a, b) block."""
        powers = twisted.get((a, b))
        if powers is None:
            entries: dict[tuple[int, int, int], int] = {}
            bblock(a, b, entries, 0, 0, 0)
            part: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for (x, y, r), c in entries.items():
                part.setdefault((x, y), []).append((r, c))
            powers = twisted[a, b] = [part]
        return powers

    def base_part(a: int, b: int, k: int) -> dict[tuple[int, int], list[tuple[int, int]]]:
        powers = base_powers(a, b)
        while len(powers) <= k:
            # p = 2: r eps is the symmetric difference of r * eps_l over
            # the eps support, and every coefficient is 1
            prev, t = powers[-1], a + b + len(powers) - 1
            times = {r: set() for rcs in prev.values() for r, _ in rcs}
            for (r, y), r2s in base_powers(t, 1)[0].items():
                if r in times and y in eps_support:
                    times[r] ^= {r2 for r2, _ in r2s}
            part = {}
            for xy, rcs in prev.items():
                acc: set[int] = set()
                for r, _ in rcs:
                    acc ^= times[r]
                if acc:
                    part[xy] = [(r2, 1) for r2 in acc]
            powers.append(part)
        return powers[k]

    def core(d1, i, d2, j):
        S, b1 = monos[d1][i]
        T, b2 = monos[d2][j]
        if p != 2 and S & T:
            return {}
        bd1, bd2 = d1 - S.bit_count(), d2 - T.bit_count()
        rcs = base_part(bd1, bd2, (S & T).bit_count()).get((b1, b2))
        if not rcs:
            return {}
        sign, off = twist(S, T, bd2, d1 + d2)
        return {off + r: sign * c % p for r, c in rcs}

    def block(d1, d2, out, o1, o2, o3):
        d = d1 + d2
        for s, Ss in sized[d1].items():
            for t, Ts in sized[d2].items():
                a, b = d1 - s, d2 - t
                # parts[k]: the base's (a, b) block times eps^k, nonzero;
                # |S | T| <= m, and at odd p only k = 0 (S & T = 0) survives
                ks = range(max(0, s + t - m), (min(s, t) if p == 2 else 0) + 1)
                parts = {k: part for k in ks if (part := base_part(a, b, k))}
                if not parts:
                    continue
                for S in Ss:
                    row = o1 + first[d1][S]
                    for T in Ts:
                        part = parts.get((S & T).bit_count())
                        if part is None:
                            continue
                        sign, off = twist(S, T, b, d)
                        col, tgt = o2 + first[d2][T], o3 + off
                        if sign == 1:
                            for (x, y), rcs in part.items():
                                for r, c in rcs:
                                    out[row + x, col + y, tgt + r] = c
                        else:
                            for (x, y), rcs in part.items():
                                for r, c in rcs:
                                    out[row + x, col + y, tgt + r] = p - c

    return labels, beps + [0] * m, core, block


@dataclass
class GradedAlgebra:
    """Cohomology ring truncated at ``max_degree``.

    ``product`` memoizes by degree pair: its first call into (d1, d2)
    builds the whole structure tensor of that pair, of shape
    (n_d1, n_d2, n_(d1+d2)) and n_d1 * n_d2 * n_(d1+d2) int64 entries,
    marks it read-only and keeps it in ``_cache``; every call returns
    ``block[i, j]``, a read-only view.  Once (d2, d1) is kept, (d1, d2)
    is read off it by graded commutativity, x y = (-1)^(d1 d2) y x: a
    transposed view, negated mod p when p is odd and d1 d2 is.  A block
    past ``MAX_BLOCK_CELLS`` entries is not built: such a product is
    read off ``_mul`` alone.

    ``gram`` is the (1, 1) tensor built fresh by ``_block``, writable and
    not kept; ``cup`` reads the per-pair rule ``_mul``, which pays only
    for the pairs it touches.  Into a degree of dimension 0 ``product``
    and ``cup`` return a length-0 int64 vector at once.  A bad degree,
    class index (a bool or a float too) or vector raises
    ``ValidationError``.

    ``build_cohomology`` hands the same ring to every caller that asks for
    an equal normal form, p and degree back to back, so a ring is
    read-only: ``eps`` and every block refuse writes, and the memos
    (``_cache`` and ``_map``, the degree-one map that
    ``rigidity.from_cohomology`` makes on first use) only fill.
    """

    p: int
    max_degree: int
    basis: tuple[tuple[str, ...], ...]
    eps: np.ndarray
    _mul: Callable[[int, int, int, int], dict[int, int]]
    _block: Callable[[int, int], np.ndarray]
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)
    _map: object = field(default=None, init=False, repr=False)

    @property
    def dims(self) -> list[int]:
        return [len(b) for b in self.basis]

    def _check_degrees(self, d1: int, d2: int) -> int:
        if d1 < 0 or d2 < 0:
            raise ValidationError(f"negative degree in a product of degrees {d1}, {d2}")
        d = d1 + d2
        if d > self.max_degree:
            raise ValidationError(
                f"product lands in degree {d} > max degree {self.max_degree}"
            )
        return d

    def _block_of(self, d1: int, d2: int) -> np.ndarray | None:
        """The read-only block of the degree pair, built and memoized on
        first use; None when it would pass ``MAX_BLOCK_CELLS``."""
        d = self._check_degrees(d1, d2)
        n1, n2, n3 = len(self.basis[d1]), len(self.basis[d2]), len(self.basis[d])
        mirror = self._cache.get((d2, d1))
        if not n3:
            # into a degree of dimension 0: the model is not asked
            block = np.zeros((n1, n2, 0), dtype=np.int64)
        elif mirror is not None:
            # graded commutativity: x y = (-1)^(d1 d2) y x, so at p = 2 or
            # an even d1 d2 the block is a view of its mirror
            block = mirror.transpose(1, 0, 2)
            if self.p != 2 and d1 * d2 % 2:
                block = -block % self.p
        elif n1 * n2 * n3 > MAX_BLOCK_CELLS:
            return None
        else:
            block = self._block(d1, d2)
        block.setflags(write=False)
        self._cache[d1, d2] = block
        return block

    def product(self, d1: int, i: int, d2: int, j: int) -> np.ndarray:
        """Cup product of the i-th degree-d1 and j-th degree-d2 basis
        classes, as a read-only vector."""
        if not type(d1) is type(i) is type(d2) is type(j) is int:
            d1, i, d2, j = _indices(d1, i, d2, j)
        block = self._cache.get((d1, d2))
        if block is None:
            block = self._block_of(d1, d2)
        if block is not None and i >= 0 and j >= 0:
            try:
                return block[i, j]  # numpy checks the upper bounds
            except IndexError:
                pass
        if not (0 <= i < len(self.basis[d1]) and 0 <= j < len(self.basis[d2])):
            raise ValidationError(
                f"no basis class pair ({i}, {j}) in degrees ({d1}, {d2}), "
                f"of dimensions {len(self.basis[d1])} and {len(self.basis[d2])}"
            )
        out = np.zeros(len(self.basis[d1 + d2]), dtype=np.int64)
        for r, c in self._mul(d1, i, d2, j).items():
            out[r] = c
        out.setflags(write=False)
        return out

    def cup(self, v1, d1: int, v2, d2: int) -> np.ndarray:
        """Bilinear extension of the product to coefficient vectors."""
        d1, d2 = _indices(d1, d2)
        d = self._check_degrees(d1, d2)
        a1 = np.asarray(v1, dtype=np.int64)
        a2 = np.asarray(v2, dtype=np.int64)
        if a1.shape != (len(self.basis[d1]),) or a2.shape != (len(self.basis[d2]),):
            raise ValidationError(
                f"cup of vectors of shapes {list(a1.shape)} and {list(a2.shape)} in "
                f"degrees {d1} and {d2}, of dimensions {len(self.basis[d1])} and "
                f"{len(self.basis[d2])}"
            )
        if not self.basis[d]:
            return np.zeros(0, dtype=np.int64)
        a1, a2 = (a1 % self.p).tolist(), (a2 % self.p).tolist()
        support2 = [(j, b) for j, b in enumerate(a2) if b]
        out = [0] * len(self.basis[d])
        for i, a in enumerate(a1):
            if a:
                for j, b in support2:
                    for r, c in self._mul(d1, i, d2, j).items():
                        out[r] += a * b * c
        return np.array(out, dtype=np.int64) % self.p

    def gram(self) -> np.ndarray:
        """Degree-(1,1) structure tensor, shape (d1, d1, d2), built fresh."""
        return self._block(1, 1)

    def gram_matrix(self) -> np.ndarray:
        if self.dims[2] != 1:
            raise ValidationError("gram matrix needs one-dimensional H^2")
        return self.gram()[:, :, 0]


def build_cohomology(e: PairExpr, p: int, max_degree: int) -> GradedAlgebra:
    """Cohomology model of the normal form of ``e`` up to ``max_degree``.

    The checks run on every call: the degree, ``normalize`` and the basis
    bound.  The ring then comes from a one-entry memo keyed by (normal
    form, p, max_degree), so a caller that asks again for the ring it
    just had, such as ``rigidity.check_rigidity_criterion`` followed by
    a report on the same pair, gets the same read-only object back, with
    the blocks and the map already built on it.  One entry holds the
    repeats, which come back to back; the last ring and its blocks stay
    alive until the next build.

    Equal keys give identical rings.  Normal forms are frozen dataclasses
    whose ``__eq__`` compares the node type and every field, and
    ``_build``, the labels and ``meta`` read only those fields and p:
    ``n`` and ``case`` of a p-adic block, the sign of a Z-block's alpha
    (``PAdicUnit.__eq__`` compares the sign), ``m`` and the
    base of an extension, and the factors of a free product.  Equal rings
    under unequal keys, such as ``Z(3)`` and ``Z(-5)`` at p = 2, only
    miss the memo.
    """
    if max_degree < 2:
        raise DegreeTooSmall(
            f"cohomology model needs max degree >= 2, got {max_degree}"
        )
    ne = normalize(e, p)
    _check_basis(ne, max_degree)
    return _ring(ne, p, max_degree)


@lru_cache(maxsize=1)
def _ring(ne: PairExpr, p: int, max_degree: int) -> GradedAlgebra:
    """The ring of a checked normal form; ``build_cohomology`` memoizes it."""
    labels, eps, mul, block = _build(ne, p, max_degree)
    eps = np.array(eps, dtype=np.int64) % p
    eps.setflags(write=False)
    return GradedAlgebra(
        p=p,
        max_degree=max_degree,
        basis=tuple(tuple(row) for row in labels),
        eps=eps,
        _mul=_with_unit(mul),
        _block=_dense(labels, _with_unit_block(labels, block)),
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

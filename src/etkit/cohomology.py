"""Graded F_p cohomology algebras of pair expressions.

Each expression gets a finite-dimensional model of its mod-p cohomology
ring up to a chosen degree: explicit bases, the cup product as structure
constants, and the epsilon class in degree one.  ``_build`` makes them,
and is the module's one dispatch on the kind of node; the structural
walks (closed-form Betti numbers, the recursive log level) are methods of
the node classes in ``pairs``.  Demuskin recognition and the two
log-level computations (structural recursion vs. direct cup powers) sit
on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from . import fplinear
from .errors import DegreeTooSmall, DimensionTooLarge, ValidationError
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
from .units import DEFAULT_PRECISION, epsilon_of

# README "Limits": the most basis classes a ring model builds
MAX_BASIS = 100_000


class _Alg:
    """Raw algebra data produced by the structural builders."""

    __slots__ = ("dims", "labels", "eps", "mul")

    def __init__(self, dims, labels, eps, mul):
        self.dims = dims
        self.labels = labels
        self.eps = eps
        self.mul = mul


def _with_unit(dims: list[int], core) -> Callable[[int, int, int, int], np.ndarray]:
    """Extend a product defined in positive degrees by the H^0 unit."""

    def mul(d1: int, i: int, d2: int, j: int) -> np.ndarray:
        if d1 == 0 or d2 == 0:
            out = np.zeros(dims[d1 + d2], dtype=np.int64)
            out[j if d1 == 0 else i] = 1
            return out
        return core(d1, i, d2, j)

    return mul


def _zeros_mul(dims):
    def core(d1, i, d2, j):
        return np.zeros(dims[d1 + d2], dtype=np.int64)

    return core


def _demuskin_gram(n: int, case: str, p: int) -> np.ndarray:
    """Structure constants of the degree-(1,1) pairing of a Demuskin block."""
    g = np.zeros((n, n), dtype=np.int64)
    start = 1 if case == "II" else 0
    for a in range(start, n - 1, 2):
        g[a, a + 1] = 1
        g[a + 1, a] = 1 if p == 2 else p - 1
    if p == 2 and case in ("II", "III", "IV"):
        g[0, 0] = 1
    return g


def _demuskin_eps(n: int, case: str, p: int) -> np.ndarray:
    eps = np.zeros(n, dtype=np.int64)
    if p == 2:
        if case == "II":
            eps[0] = 1
        elif case in ("III", "IV"):
            eps[1] = 1
    return eps


def _build(e: PairExpr, p: int, D: int) -> _Alg:
    """Ring model of a validated node: the one dispatch on node kind."""
    if isinstance(e, Trivial):
        dims = [1] + [0] * D
        labels = [["1"]] + [[] for _ in range(D)]
        return _Alg(dims, labels, np.zeros(0, dtype=np.int64),
                    _with_unit(dims, _zeros_mul(dims)))

    if isinstance(e, ZBlock):
        dims = [1, 1] + [0] * (D - 1)
        labels = [["1"], ["x"]] + [[] for _ in range(D - 1)]
        eps = np.array([epsilon_of(e.alpha) if p == 2 else 0], dtype=np.int64)
        return _Alg(dims, labels, eps, _with_unit(dims, _zeros_mul(dims)))

    if isinstance(e, EBlock):
        dims = [1] * (D + 1)
        labels = [["1"], ["x"]] + [[f"x^{d}"] for d in range(2, D + 1)]

        def core(d1, i, d2, j):
            return np.ones(1, dtype=np.int64)

        return _Alg(dims, labels, np.array([1], dtype=np.int64),
                    _with_unit(dims, core))

    if isinstance(e, PAdicBlock):
        n = e.n
        dims = [1, n, 1] + [0] * (D - 2)
        labels = [["1"], [f"x{k}" for k in range(1, n + 1)], ["w"]]
        labels += [[] for _ in range(D - 2)]
        gram = _demuskin_gram(n, e.case, p)

        def core(d1, i, d2, j):
            if d1 == 1 and d2 == 1:
                return np.array([gram[i, j]], dtype=np.int64)
            return np.zeros(dims[d1 + d2], dtype=np.int64)

        return _Alg(dims, labels, _demuskin_eps(n, e.case, p),
                    _with_unit(dims, core))

    if isinstance(e, FreeProd):
        kids = [_build(f, p, D) for f in e.factors]
        dims = [1] + [sum(k.dims[d] for k in kids) for d in range(1, D + 1)]
        labels: list[list[str]] = [["1"]]
        owner: list[list[tuple[int, int]]] = [[]]
        start: list[list[int]] = [[0] * len(kids)]
        for d in range(1, D + 1):
            row: list[str] = []
            own: list[tuple[int, int]] = []
            st: list[int] = []
            for k, kid in enumerate(kids):
                st.append(len(row))
                row.extend(f"g{k + 1}.{lbl}" for lbl in kid.labels[d])
                own.extend((k, li) for li in range(kid.dims[d]))
            labels.append(row)
            owner.append(own)
            start.append(st)
        eps = (np.concatenate([k.eps for k in kids])
               if dims[1] else np.zeros(0, dtype=np.int64))

        def core(d1, i, d2, j):
            out = np.zeros(dims[d1 + d2], dtype=np.int64)
            k1, li = owner[d1][i]
            k2, lj = owner[d2][j]
            if k1 == k2:
                # cross-factor cup products vanish in a free product
                v = kids[k1].mul(d1, li, d2, lj)
                off = start[d1 + d2][k1]
                out[off:off + len(v)] = v
            return out

        return _Alg(dims, labels, eps, _with_unit(dims, core))

    # the remaining kind: Ext
    base = _build(e.base, p, D)
    m = e.m
    monos: list[list[tuple[tuple[int, ...], int]]] = []
    index: list[dict[tuple[tuple[int, ...], int], int]] = []
    labels = []
    for d in range(D + 1):
        row: list[tuple[tuple[int, ...], int]] = []
        for j in range(min(m, d) + 1):
            for S in combinations(range(1, m + 1), j):
                row.extend((S, b) for b in range(base.dims[d - j]))
        monos.append(row)
        index.append({mb: i for i, mb in enumerate(row)})
        lab = []
        for S, b in row:
            parts = [f"b{k}" for k in S]
            bl = base.labels[d - len(S)][b]
            if bl != "1":
                parts.append(f"i({bl})")
            lab.append("*".join(parts) if parts else "1")
        labels.append(lab)
    dims = [len(r) for r in monos]
    eps = np.concatenate(
        [base.eps % p, np.zeros(m, dtype=np.int64)]
    ).astype(np.int64)

    eps_mats: dict[int, np.ndarray] = {}

    def eps_mat(t: int) -> np.ndarray:
        if t not in eps_mats:
            mat = np.zeros((base.dims[t + 1], base.dims[t]), dtype=np.int64)
            for i0 in range(base.dims[t]):
                col = np.zeros(base.dims[t + 1], dtype=np.int64)
                for k, ec in enumerate(base.eps):
                    if ec % p:
                        col += int(ec) * base.mul(t, i0, 1, k)
                mat[:, i0] = col % p
            eps_mats[t] = mat
        return eps_mats[t]

    def core(d1, i, d2, j):
        S, b1 = monos[d1][i]
        T, b2 = monos[d2][j]
        bd1, bd2 = d1 - len(S), d2 - len(T)
        out = np.zeros(dims[d1 + d2], dtype=np.int64)
        if p == 2:
            c = len(set(S) & set(T))
            U = tuple(sorted(set(S) | set(T)))
            v = base.mul(bd1, b1, bd2, b2) % 2
            t = bd1 + bd2
            for _ in range(c):
                v = (eps_mat(t) @ v) % 2
                t += 1
            sign = 1
        else:
            if set(S) & set(T):
                return out
            inversions = sum(1 for s in S for t2 in T if s > t2)
            sign = (-1) ** (len(S) * bd2 + inversions)
            U = tuple(sorted(S + T))
            v = base.mul(bd1, b1, bd2, b2)
        look = index[d1 + d2]
        for bi, coef in enumerate(v):
            if coef % p:
                out[look[(U, int(bi))]] = (sign * int(coef)) % p
        return out

    return _Alg(dims, labels, eps, _with_unit(dims, core))


@dataclass
class GradedAlgebra:
    """Cohomology ring truncated at ``max_degree``, with memoized products."""

    p: int
    max_degree: int
    basis: tuple[tuple[str, ...], ...]
    eps: np.ndarray
    meta: dict = field(default_factory=dict)
    _mul: Callable[[int, int, int, int], np.ndarray] | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dims(self) -> list[int]:
        return [len(b) for b in self.basis]

    def product(self, d1: int, i: int, d2: int, j: int) -> np.ndarray:
        """Cup product of the i-th degree-d1 and j-th degree-d2 basis classes."""
        if d1 + d2 > self.max_degree:
            raise ValidationError(
                f"product lands in degree {d1 + d2} > max degree {self.max_degree}"
            )
        key = (d1, i, d2, j)
        if key not in self._cache:
            assert self._mul is not None
            self._cache[key] = self._mul(d1, i, d2, j) % self.p
        return self._cache[key]

    def cup(self, v1, d1: int, v2, d2: int) -> np.ndarray:
        """Bilinear extension of the product to coefficient vectors."""
        out = np.zeros(len(self.basis[d1 + d2]), dtype=np.int64)
        a1 = np.asarray(v1, dtype=np.int64) % self.p
        a2 = np.asarray(v2, dtype=np.int64) % self.p
        for i, a in enumerate(a1):
            if not a:
                continue
            for j, b in enumerate(a2):
                if b:
                    out += int(a) * int(b) * self.product(d1, i, d2, j)
        return out % self.p

    def gram(self) -> np.ndarray:
        """Degree-(1,1) structure tensor, shape (d1, d1, d2)."""
        n, e2 = self.dims[1], self.dims[2]
        t = np.zeros((n, n, e2), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                t[i, j] = self.product(1, i, 1, j)
        return t

    def gram_matrix(self) -> np.ndarray:
        if self.dims[2] != 1:
            raise ValidationError("gram matrix needs one-dimensional H^2")
        return self.gram()[:, :, 0]


def build_cohomology(e: PairExpr, p: int, max_degree: int,
                     K: int = DEFAULT_PRECISION) -> GradedAlgebra:
    """Cohomology model of the normal form of ``e`` up to ``max_degree``."""
    if max_degree < 2:
        raise DegreeTooSmall(
            f"cohomology model needs max degree >= 2, got {max_degree}"
        )
    ne = normalize(e, p, K)
    _check_basis(ne, max_degree)
    raw = _build(ne, p, max_degree)
    meta = {
        "expr": ne,
        "ext_inflation_dim": rank(ne.base) if isinstance(ne, Ext) else None,
    }
    return GradedAlgebra(
        p=p,
        max_degree=max_degree,
        basis=tuple(tuple(row) for row in raw.labels),
        eps=raw.eps % p,
        meta=meta,
        _mul=raw.mul,
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
    n, e2 = alg.dims[1], alg.dims[2]
    if e2 == 1:
        gram = [[int(alg.product(1, i, 1, j)[0]) for j in range(n)]
                for i in range(n)]
    else:
        gram = [[[int(c) for c in alg.product(1, i, 1, j)] for j in range(n)]
                for i in range(n)]
    return {
        "dims": alg.dims,
        "basis": [list(row) for row in alg.basis],
        "eps": [int(c) for c in alg.eps],
        "gram": gram,
    }


# ---------------------------------------------------------------------------
# Demuskin recognition


@dataclass(frozen=True)
class DemuskinVerdict:
    is_demuskin: bool
    n: int
    q: int | None
    case: str | None
    f: float | int | None = None

    def to_json(self) -> dict:
        return {
            "isDemuskin": self.is_demuskin,
            "n": self.n,
            "q": self.q,
            "case": self.case,
        }


def _classify(p: int, q: int, n: int, square_index: int | None) -> str:
    if p != 2 or q != 2:
        return "I"
    if n % 2:
        return "II"
    return "III" if square_index == 2 else "IV"


def is_demuskin(e: PairExpr, p: int, K: int = DEFAULT_PRECISION) -> DemuskinVerdict:
    """Decide whether the pair is Demuskin: one-dimensional H^2 and a
    nondegenerate cup pairing on H^1."""
    ne = normalize(e, p, K)
    alg = build_cohomology(ne, p, 2, K)
    n = alg.dims[1]
    inv = theta_image(ne, p, K)
    q = inv.q_invariant
    ok = alg.dims[2] == 1 and n >= 1
    if ok:
        ok = fplinear.rank(alg.gram_matrix(), p) == n
    if not ok:
        return DemuskinVerdict(False, n, q, None, None)
    case = _classify(p, q, n, inv.square_index)
    f = ne.f if isinstance(ne, PAdicBlock) else None
    return DemuskinVerdict(True, n, q, case, f)


# ---------------------------------------------------------------------------
# log-level of the epsilon class


def log_level_recursive(e: PairExpr, p: int,
                        K: int = DEFAULT_PRECISION) -> float | int:
    """Least m with eps^m = 0, by structural recursion (math.inf possible)."""
    ne = normalize(e, p, K)
    if p != 2:
        return 1
    return ne.log_level_recursive()


def log_level_direct(e: PairExpr, p: int, max_degree: int,
                     K: int = DEFAULT_PRECISION) -> int | str:
    """Least m with eps^m = 0 by computing cup powers up to max_degree.

    Returns ">{max_degree}" when the chain stays nonzero that far.
    """
    alg = build_cohomology(e, p, max_degree, K)
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

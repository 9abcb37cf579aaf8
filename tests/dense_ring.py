"""The dense ring builder, kept as the tests' oracle for ``cohomology``.

Each node's product of two basis classes is a dense int64 vector as long
as its whole target degree; a free product copies its factor's vector
into a slice, and ``Ext`` at p = 2 multiplies by the base's epsilon
through dense matrices.  ``_build(e, p, D)`` takes a normalized,
validated expression.
"""

from itertools import combinations
from typing import Callable

import numpy as np

from etkit.pairs import (
    EBlock,
    Ext,
    FreeProd,
    PAdicBlock,
    PairExpr,
    Trivial,
    ZBlock,
)
from etkit.units import epsilon_of


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

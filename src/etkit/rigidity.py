"""Augmented F_p-bilinear maps and rigid-element analysis.

An augmented map is a pairing A_1 x A_1 -> A_2 of F_p-spaces together
with a distinguished degree-one element eps (2*eps = 0, so eps = 0 for
odd p).  A nonzero a is rigid when every b pairing to zero with a is
linearly dependent with u = eps + a.

Rigidity is decided by rank.  Write W_a = a.T, the d x e matrix with
B(a, b) = b W_a.  The b pairing to zero with a form the left null space
of W_a, of dimension d - rank W_a, so a is rigid exactly when u = 0, or
rank W_a = d, or rank W_a = d - 1 and u W_a = 0.  A scan computes these
ranks for every nonzero a in one batched elimination, chunked so that its
working memory stays fixed, and caches the flags on the map.  The
brute-force test ``_rigid_one``, which enumerates every b, is kept in
``tests/test_rigidity.py`` as the oracle for the rank test.

Equivalence of two maps is decided by a search over the columns of the
change of basis, restricted and pruned by rank invariants of every vector
(see ``find_equivalence``); the enumeration of all p^(d^2) matrices,
``_find_equivalence_brute``, is kept there as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohomology import GradedAlgebra, build_cohomology
from .errors import DimensionTooLarge, NotAnExtension, ValidationError
from .fplinear import batch_rank, rank, row_space_basis, rref
from .pairs import Ext, PairExpr, normalize
from .units import DEFAULT_PRECISION

# A scan lists all p^d vectors of A_1 in its output, so the bound is set by
# output size; working memory is fixed by _CHUNK_CELLS whatever the bound.
DEFAULT_ENUM_BOUND = 2**16
DEFAULT_PAIR_CAP = 2_000_000
_CHUNK_CELLS = 2**14  # entries per batched elimination; larger chunks ran slower


@dataclass(frozen=True, eq=False)
class AugBilinearMap:
    """Pairing tensor of shape (d, d, e) with a distinguished eps in A_1.

    ``tensor`` and ``eps`` are read-only copies, so the rigidity scan
    cached on the instance cannot go stale.
    """

    p: int
    tensor: np.ndarray
    eps: np.ndarray
    labels: tuple[str, ...] = ()
    multiplicative: bool = False
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=np.int64) % self.p
        if t.ndim != 3 or t.shape[0] != t.shape[1]:
            raise ValidationError("pairing tensor must have shape (d, d, e)")
        ep = np.asarray(self.eps, dtype=np.int64) % self.p
        if ep.shape != (t.shape[0],):
            raise ValidationError("eps must be a degree-one vector of length d")
        if self.p != 2 and ep.any():
            raise ValidationError("eps must vanish when p is odd")
        t.flags.writeable = False
        ep.flags.writeable = False
        object.__setattr__(self, "tensor", t)
        object.__setattr__(self, "eps", ep)
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"a{i + 1}" for i in range(t.shape[0]))
            )
        elif len(self.labels) != t.shape[0]:
            raise ValidationError("need one label per basis vector")

    @property
    def d(self) -> int:
        return self.tensor.shape[0]

    @property
    def e(self) -> int:
        return self.tensor.shape[2]

    def pair(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64) % self.p
        b = np.asarray(b, dtype=np.int64) % self.p
        return np.einsum("i,ijk,j->k", a, self.tensor, b) % self.p


def from_cohomology(ga: GradedAlgebra) -> AugBilinearMap:
    """Cup product H^1 x H^1 -> H^2 with the epsilon class."""
    return AugBilinearMap(
        p=ga.p,
        tensor=ga.gram(),
        eps=ga.eps,
        labels=tuple(ga.basis[1]),
        multiplicative=False,
    )


def _all_vectors(p: int, d: int) -> np.ndarray:
    """All p^d vectors of F_p^d, in lexicographic order."""
    place = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    return np.arange(p**d, dtype=np.int64)[:, None] // place % p


def _rank_flags(bmap: AugBilinearMap, vecs: np.ndarray) -> np.ndarray:
    """Rigidity flags of the nonzero rows of ``vecs`` by the rank test."""
    p, d, e = bmap.p, bmap.d, bmap.e
    flat = bmap.tensor.reshape(d, d * e)
    flags = np.empty(len(vecs), dtype=bool)
    step = max(1, _CHUNK_CELLS // max(1, d * e))
    for s in range(0, len(vecs), step):
        a = vecs[s : s + step]
        w = (a @ flat % p).reshape(len(a), d, e)
        u = (bmap.eps + a) % p
        r = batch_rank(w, p)
        u_kills = ~(np.einsum("cj,cjk->ck", u, w) % p).any(axis=1)
        flags[s : s + step] = (
            ~u.any(axis=1) | (r == d) | ((r == d - 1) & u_kills)
        )
    return flags


def _check_bound(p: int, d: int) -> None:
    """Refuse to enumerate F_p^d past ``DEFAULT_ENUM_BOUND``.  The message
    gives p^d as a power: the integer can pass Python's int-to-str limit."""
    if p**d > DEFAULT_ENUM_BOUND:
        raise DimensionTooLarge(
            f"p^d = {p}^{d} exceeds the enumeration bound {DEFAULT_ENUM_BOUND}"
        )


def is_rigid(bmap: AugBilinearMap, a) -> bool:
    """Rigidity of the nonzero vector a, by the rank test.

    Raises ``DimensionTooLarge`` past ``DEFAULT_ENUM_BOUND``, as a scan does.
    """
    p, d = bmap.p, bmap.d
    _check_bound(p, d)
    av = np.asarray(a, dtype=np.int64) % p
    if av.shape != (d,):
        raise ValidationError(f"expected a vector of length {d}")
    if not av.any():
        raise ValidationError("rigidity is defined for nonzero vectors")
    return bool(_rank_flags(bmap, av[None, :])[0])


def _scan(bmap: AugBilinearMap):
    """All nonzero vectors of A_1 with their rigidity flags, computed once
    per map."""
    _check_bound(bmap.p, bmap.d)
    if "scan" not in bmap._cache:
        vecs = _all_vectors(bmap.p, bmap.d)[1:]
        flags = _rank_flags(bmap, vecs)
        vecs.flags.writeable = flags.flags.writeable = False
        bmap._cache["scan"] = (vecs, flags)
    return bmap._cache["scan"]


def _n_basis(bmap: AugBilinearMap) -> np.ndarray:
    """The cached N-subspace basis, shared by n_subspace and the report."""
    vecs, flags = _scan(bmap)
    if "n" not in bmap._cache:
        rows = np.vstack([bmap.eps[None, :], vecs[~flags]])
        bmap._cache["n"] = row_space_basis(rows, bmap.p)
    return bmap._cache["n"]


def vector_label(bmap: AugBilinearMap, v) -> str:
    """Human-readable name of a coefficient vector in the map's basis."""
    parts = []
    for c, lbl in zip(np.asarray(v) % bmap.p, bmap.labels):
        c = int(c)
        if not c:
            continue
        if c == 1:
            parts.append(lbl)
        elif bmap.multiplicative:
            parts.append(f"{lbl}^{c}")
        else:
            parts.append(f"{c}*{lbl}")
    if not parts:
        return "1" if bmap.multiplicative else "0"
    return ("*" if bmap.multiplicative else "+").join(parts)


def n_subspace(bmap: AugBilinearMap) -> np.ndarray:
    """Basis of the span of eps and all non-rigid nonzero vectors."""
    return _n_basis(bmap).copy()


def rigidity_report(bmap: AugBilinearMap) -> dict:
    vecs, flags = _scan(bmap)
    rigid = [vector_label(bmap, v) for v, f in zip(vecs, flags) if f]
    non = [vector_label(bmap, v) for v, f in zip(vecs, flags) if not f]
    return {"rigid": rigid, "nonRigid": non,
            "nSubspaceDim": int(len(_n_basis(bmap)))}


@dataclass(frozen=True)
class RigidityCriterionReport:
    holds: bool
    checked: int
    counterexamples: tuple[str, ...]


def check_rigidity_criterion(
    e: PairExpr,
    p: int,
    K: int = DEFAULT_PRECISION,
) -> RigidityCriterionReport:
    """Every degree-one class outside the inflation subspace of an
    extension must be rigid; scan them all and report violations."""
    ne = normalize(e, p, K)
    if not isinstance(ne, Ext):
        raise NotAnExtension(f"normal form {type(ne).__name__} has no extension root")
    _check_bound(p, ne.rank())  # before building the ring and its gram
    alg = build_cohomology(ne, p, 2, K)
    bmap = from_cohomology(alg)
    t = alg.meta["ext_inflation_dim"]
    vecs, flags = _scan(bmap)
    outside = [i for i, v in enumerate(vecs) if v[t:].any()]
    counter = tuple(
        vector_label(bmap, vecs[i]) for i in outside if not flags[i]
    )
    return RigidityCriterionReport(not counter, len(outside), counter)


def _keys(bmap: AugBilinearMap) -> np.ndarray:
    """Invariant key of every vector a of A_1, indexed like ``_all_vectors``.

    The key packs rank(b -> B(a, b)), rank(b -> B(b, a)), the rank of the
    two together, whether B(a, a) = 0 and whether a = eps.  The three ranks
    of a chunk come from one batched elimination; computed once per map.
    """
    _check_bound(bmap.p, bmap.d)
    if "keys" not in bmap._cache:
        p, d, e = bmap.p, bmap.d, bmap.e
        vecs = _all_vectors(p, d)
        keys = np.empty(len(vecs), dtype=np.int64)
        left_flat = bmap.tensor.reshape(d, d * e)
        right_flat = bmap.tensor.transpose(1, 0, 2).reshape(d, d * e)
        step = max(1, _CHUNK_CELLS // max(1, 6 * d * e))
        for s in range(0, len(vecs), step):
            a = vecs[s : s + step]
            left = (a @ left_flat % p).reshape(len(a), d, e)
            stack = np.zeros((3, len(a), d, 2 * e), dtype=np.int64)
            stack[0, ..., :e] = stack[2, ..., :e] = left
            stack[1, ..., :e] = stack[2, ..., e:] = (a @ right_flat % p).reshape(
                len(a), d, e
            )
            r = batch_rank(stack.reshape(3 * len(a), d, 2 * e), p).reshape(3, len(a))
            iso = ~(np.einsum("cj,cjk->ck", a, left) % p).any(axis=1)
            is_eps = (a == bmap.eps).all(axis=1)
            keys[s : s + step] = (
                ((r[0] * (d + 1) + r[1]) * (d + 1) + r[2]) * 2 + iso
            ) * 2 + is_eps
        keys.flags.writeable = False
        bmap._cache["keys"] = keys
    return bmap._cache["keys"]


def _basis(rows: np.ndarray, p: int):
    """The first maximal independent set of ``rows``, extended by unit
    vectors to a basis B of F_p^e: (indices of the rows used, B, B^-1).

    Reducing [rows^T | I] turns the columns of B^T into the identity, so
    the last block becomes (B^T)^-1."""
    n, e = rows.shape
    eye = np.eye(e, dtype=np.int64)
    red, sel = rref(np.hstack([rows.T, eye]), p)
    return [i for i in sel if i < n], np.vstack([rows, eye])[sel], red[:, n:].T


def _q_finder(m1: AugBilinearMap, m2: AugBilinearMap):
    """For a candidate P: an invertible Q with Q B1(a,b) = B2(Pa, Pb), or
    None.  With V the rows B1(e_i, e_j) and W the rows B2(Pe_i, Pe_j), any
    such Q maps the rows of V that ``_basis`` picks, a basis of V's row
    span, onto the same rows of W, which are then independent.  So it
    agrees on that span with the Q mapping the two extended bases onto each
    other, and that Q answers exactly when V Q^T = W."""
    p, d, e = m1.p, m1.d, m1.e
    v = m1.tensor.reshape(d * d, e)
    piv, _, b1_inv = _basis(v, p)

    def try_p(pm: np.ndarray):
        if ((pm @ m1.eps) % p != m2.eps).any():
            return None
        if rank(pm, p) < d:
            return None
        w = np.einsum("ia,jb,ijk->abk", pm, pm, m2.tensor).reshape(d * d, e) % p
        q_t = b1_inv @ _basis(w[piv], p)[1] % p  # Q^T = B1^-1 B2
        return q_t.T if np.array_equal(v @ q_t % p, w) else None

    return try_p


def _same_shape(m1: AugBilinearMap, m2: AugBilinearMap) -> bool:
    if m1.p != m2.p:
        raise ValidationError("maps live over different primes")
    return (m1.d, m1.e) == (m2.d, m2.e)


def find_equivalence(
    m1: AugBilinearMap,
    m2: AugBilinearMap,
    cap: int = DEFAULT_PAIR_CAP,
):
    """Invertible P, Q with Q B1(a,b) = B2(Pa, Pb) and P eps1 = eps2.

    Returns the pair (P, Q) or None.

    Such a P maps every vector a of m1 to a vector Pa of m2 with the same
    key (see ``_keys``).  Indeed b -> B2(Pa, b) is b -> Q B1(a, P^-1 b),
    whose rank is that of b -> B1(a, b) because P and Q are invertible;
    the same holds for b -> B2(b, Pa) and for the two together.
    B2(Pa, Pa) = Q B1(a, a) vanishes exactly when B1(a, a) does, and
    Pa = eps2 exactly when a = eps1.  So a -> Pa is a key-preserving
    bijection of A_1 that fixes 0: when the key counts of the two maps
    differ, or the keys of their zero vectors do, the answer is None.

    Otherwise the columns of P are chosen one basis vector at a time, the
    basis vectors with the fewest candidates first.  The image of e_j
    ranges over the vectors of m2 with the key of e_j in m1.  A branch is
    pruned when a nonzero combination of the chosen columns is zero or has
    another key than the same combination of basis vectors in m1, or when
    no invertible Q fits the pairs of chosen basis vectors: with columns
    X1 = B1(e_a, e_b) and X2 = B2(Pe_a, Pe_b), an invertible Q with
    Q X1 = X2 exists exactly when rank X1 = rank X2 = rank [X1; X2].  At a
    leaf, P eps1 = eps2 is checked and Q is built (see ``_q_finder``).

    Raises ``DimensionTooLarge`` when p^d exceeds ``DEFAULT_ENUM_BOUND``
    (the keys enumerate A_1) or when the search tries more than ``cap``
    candidate columns.
    """
    if not _same_shape(m1, m2):
        return None
    p, d, e = m1.p, m1.d, m1.e
    if d == 0:
        return np.zeros((0, 0), dtype=np.int64), np.eye(e, dtype=np.int64)
    k1, k2 = _keys(m1), _keys(m2)
    if k1[0] != k2[0] or not np.array_equal(np.bincount(k1), np.bincount(k2)):
        return None
    vecs = _all_vectors(p, d)
    place = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    cands = [vecs[np.flatnonzero(k2[1:] == k1[place[j]]) + 1] for j in range(d)]
    order = sorted(range(d), key=lambda j: len(cands[j]))
    levels = []
    for j in range(d):
        s = order[: j + 1]
        lam = vecs[: p ** (j + 1), d - j - 1 :]  # all of F_p^(j+1)
        lam = lam[lam[:, -1] != 0]  # the combinations that use the new column
        x1 = m1.tensor[s][:, s].reshape((j + 1) ** 2, e)
        cells = max(len(lam) * d, 4 * len(x1) * e, 1)
        levels.append((lam, k1[lam @ place[s]], x1,
                       max(1, _CHUNK_CELLS // cells)))
    flat2 = m2.tensor.reshape(d, d * e)
    try_p = _q_finder(m1, m2)
    nodes = 0

    def extend(chosen: np.ndarray):
        nonlocal nodes
        j = len(chosen)
        lam, target, x1, step = levels[j]
        base = lam[:, :j] @ chosen
        for s in range(0, len(cands[order[j]]), step):
            c = cands[order[j]][s : s + step]
            nodes += len(c)
            if nodes > cap:
                raise DimensionTooLarge(
                    f"equivalence search tried more than {cap} candidate columns"
                )
            img = (base[None] + lam[None, :, j, None] * c[:, None, :]) % p @ place
            c = c[(k2[img] == target).all(axis=1) & (img != 0).all(axis=1)]
            if not len(c):
                continue
            n = len(c)
            full = np.empty((n, j + 1, d), dtype=np.int64)
            full[:, :j] = chosen
            full[:, j] = c
            if j:  # for one column, the B(a, a) = 0 part of the key decides
                # ranks of X1, of each X2 and of each [X1; X2], as rows
                half = (full @ flat2 % p).reshape(n, j + 1, d, e)
                stack = np.zeros((2 * n + 1, len(x1), 2 * e), dtype=np.int64)
                stack[0, :, :e] = stack[n + 1 :, :, :e] = x1
                stack[1 : n + 1, :, :e] = stack[n + 1 :, :, e:] = (
                    full[:, None] @ half % p
                ).reshape(n, len(x1), e)
                r = batch_rank(stack, p)
                full = full[(r[1 : n + 1] == r[0]) & (r[n + 1 :] == r[0])]
            for cols in full:
                if j + 1 < d:
                    got = extend(cols)
                    if got is not None:
                        return got
                    continue
                pm = np.empty((d, d), dtype=np.int64)
                pm[:, order] = cols.T
                q = try_p(pm)
                if q is not None:
                    return pm, q
        return None

    return extend(np.zeros((0, d), dtype=np.int64))

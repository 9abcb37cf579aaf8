"""Augmented F_p-bilinear maps and rigid-element analysis.

An augmented map is a pairing A_1 x A_1 -> A_2 of F_p-spaces together
with a distinguished degree-one element eps (2*eps = 0, so eps = 0 for
odd p).  A nonzero a is rigid when every b pairing to zero with a is
linearly dependent with u = eps + a.

Rigidity is decided by rank.  Write W_a = a.T, the d x e matrix with
B(a, b) = b W_a.  The b pairing to zero with a form the left null space
of W_a, of dimension d - rank W_a, so a is rigid exactly when u = 0, or
rank W_a = d, or rank W_a = d - 1 and u W_a = 0.  A scan computes these
flags for every nonzero a in batched eliminations, chunked so that its
working memory stays fixed, and caches them on the map:

- at p = 2, W_a is built by linearity in a: its e columns are d-bit
  words, each the XOR of the same column of the basis vectors that a
  selects.  The words are ranked by XOR elimination
  (``fplinear.xor_rank``), and u W_a = 0 is the parity of each word
  masked by u.
- at odd p, eps = 0 and W_ca = c W_a, so the flags are constant on lines:
  only the vectors whose first nonzero coordinate is 1 are ranked, in
  int64, and each flag is spread over the p - 1 multiples.

The report names every vector; its labels are built for all of A_1 at
once, as a product over the coordinates (``vector_label`` names one
vector, and is the oracle of that product).  The brute-force test
``_rigid_one``, which enumerates every b, is kept in
``tests/test_rigidity.py`` as the oracle for the rank test.

Equivalence of two maps is decided by a search over the columns of the
change of basis, restricted and pruned by rank invariants of every vector
(see ``find_equivalence``), so that each leaf's P is already invertible
with P eps1 = eps2; the enumeration of all p^(d^2) matrices,
``_find_equivalence_brute``, tests P itself and is kept there as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .cohomology import GradedAlgebra, build_cohomology
from .errors import DimensionTooLarge, NotAnExtension, ValidationError
from .fplinear import batch_rank, row_space_basis, rref, xor_rank
from .pairs import Ext, PairExpr, normalize

# A scan lists all p^d vectors of A_1 in its output, so the bound is set by
# output size.  Working memory is fixed by the chunk budgets whatever the
# bound: _CHUNK_CELLS int64 entries per batched elimination at odd p and in
# the equivalence search (larger chunks ran slower), _CHUNK_WORDS uint64
# words of W_a per chunk of the p = 2 scan (512 KiB; 2^15 to 2^16 ran
# fastest on the bench's p = 2 maps and at p^d = 2^16).
DEFAULT_ENUM_BOUND = 2**16
DEFAULT_PAIR_CAP = 2_000_000
_CHUNK_CELLS = 2**14
_CHUNK_WORDS = 2**16


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
    """Cup product H^1 x H^1 -> H^2 with the epsilon class.

    One map per ring: the first call builds it and keeps it on the ring
    (``GradedAlgebra._map``), and later calls return it.  A ring is
    read-only, and so is the map, so the scan, the N-basis and the keys
    cached on the map are computed once per ring, and a ring that
    ``build_cohomology`` hands out again comes with them.
    """
    if ga._map is None:
        ga._map = AugBilinearMap(
            p=ga.p,
            tensor=ga.gram(),
            eps=ga.eps,
            labels=tuple(ga.basis[1]),
            multiplicative=False,
        )
    return ga._map


def _all_vectors(p: int, d: int) -> np.ndarray:
    """All p^d vectors of F_p^d, in lexicographic order."""
    place = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    return np.arange(p**d, dtype=np.int64)[:, None] // place % p


def _rank_flags(bmap: AugBilinearMap, vecs: np.ndarray) -> np.ndarray:
    """Rigidity flags of the nonzero rows of ``vecs`` by the rank test."""
    p, d, e = bmap.p, bmap.d, bmap.e
    flags = np.empty(len(vecs), dtype=bool)
    if p == 2:
        # Column k of W_a, as a d-bit word, is the XOR over the i that a
        # selects of cols[i, k], whose bit j is B(e_i, e_j)_k.  Each byte of
        # a's bits picks its XOR from a table built by doubling.
        cols = (bmap.tensor << np.arange(d)[None, :, None]).sum(axis=1)
        tables = []
        for g in range(0, d, 8):
            t = np.zeros((1, e), dtype=np.uint64)
            for row in cols[g : g + 8].astype(np.uint64):
                t = np.concatenate([t, t ^ row])
            tables.append(t)
        bit = np.left_shift(1, np.arange(d), dtype=np.int64)
        step = max(1, _CHUNK_WORDS // max(1, e))
    else:
        flat = bmap.tensor.reshape(d, d * e)
        step = max(1, _CHUNK_CELLS // max(1, d * e))
    for s in range(0, len(vecs), step):
        a = vecs[s : s + step]
        u = (bmap.eps + a) % p
        if p == 2:
            x = a @ bit
            w = np.zeros((len(a), e), dtype=np.uint64)
            for g, t in enumerate(tables):
                w ^= t[(x >> 8 * g) & 255]
            u_bits = (u @ bit).astype(np.uint64)[:, None]
            u_kills = ~_parity(w & u_bits, d).any(axis=1)
            r = xor_rank(w[:, :, None], d)
        else:
            w = (a @ flat % p).reshape(len(a), d, e)
            u_kills = ~(np.einsum("cj,cjk->ck", u, w) % p).any(axis=1)
            r = batch_rank(w, p)
        flags[s : s + step] = (
            ~u.any(axis=1) | (r == d) | ((r == d - 1) & u_kills)
        )
    return flags


def _parity(x: np.ndarray, bits: int) -> np.ndarray:
    """Parity of the low ``bits`` bits of each uint64, by shift-folding
    (numpy before 2.0 has no bit count); overwrites x."""
    s = 1
    while s < bits:
        s *= 2
    while s > 1:
        s //= 2
        x ^= x >> np.uint64(s)
    return x & np.uint64(1)


def _check_bound(p: int, d: int) -> None:
    """Refuse to enumerate F_p^d past ``DEFAULT_ENUM_BOUND``.  Since p >= 2,
    a d past the bound's bit length is refused before p^d is computed, and
    the message gives p^d as a power: the integer can pass Python's
    int-to-str limit."""
    if d > DEFAULT_ENUM_BOUND.bit_length() or p**d > DEFAULT_ENUM_BOUND:
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
    per map.  At odd p one vector per line is ranked (see the module
    docstring)."""
    p, d = bmap.p, bmap.d
    _check_bound(p, d)
    if "scan" not in bmap._cache:
        vecs = _all_vectors(p, d)[1:]
        if p == 2 or d == 0:
            flags = _rank_flags(bmap, vecs)
        else:
            # the vectors led by a 1 at coordinate i fill [place_i, 2 place_i)
            place = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
            lead = vecs[np.concatenate([np.arange(q, 2 * q) for q in place]) - 1]
            lead_flags = _rank_flags(bmap, lead)
            flags = np.empty(len(vecs), dtype=bool)
            for c in range(1, p):
                flags[c * lead % p @ place - 1] = lead_flags
        vecs.flags.writeable = flags.flags.writeable = False
        bmap._cache["scan"] = (vecs, flags)
    return bmap._cache["scan"]


def _n_basis(bmap: AugBilinearMap) -> np.ndarray:
    """The cached N-subspace basis, shared by n_subspace and the report."""
    vecs, flags = _scan(bmap)
    if "n" not in bmap._cache:
        rows = vecs[~flags]
        if len(rows):
            # the vectors led by a 1, one per line, span the same space
            lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
            rows = rows[lead == 1]
        bmap._cache["n"] = row_space_basis(np.vstack([bmap.eps[None, :], rows]), bmap.p)
    return bmap._cache["n"]


def vector_label(bmap: AugBilinearMap, v) -> str:
    """Human-readable name of a coefficient vector in the map's basis.  A
    multiplicative label with a "+" is put in parentheses unless it
    stands alone."""
    terms = [(int(c), lbl) for c, lbl in zip(np.asarray(v) % bmap.p, bmap.labels) if c]
    if not terms:
        return "1" if bmap.multiplicative else "0"
    if not bmap.multiplicative:
        return "+".join(lbl if c == 1 else f"{c}*{lbl}" for c, lbl in terms)
    if len(terms) > 1 or terms[0][0] != 1:
        terms = [(c, f"({lbl})" if "+" in lbl else lbl) for c, lbl in terms]
    return "*".join(lbl if c == 1 else f"{lbl}^{c}" for c, lbl in terms)


def n_subspace(bmap: AugBilinearMap) -> np.ndarray:
    """Basis of the span of eps and all non-rigid nonzero vectors."""
    return _n_basis(bmap).copy()


def _all_labels(bmap: AugBilinearMap) -> list[str]:
    """``vector_label`` of every vector of ``_all_vectors``, in its order,
    built as a product over the coordinates."""
    sep = "*" if bmap.multiplicative else "+"
    labels = [""]
    for lbl in bmap.labels:
        factor = f"({lbl})" if bmap.multiplicative and "+" in lbl else lbl
        terms = [""] + [
            factor if c == 1 else f"{factor}^{c}" if bmap.multiplicative else f"{c}*{lbl}"
            for c in range(1, bmap.p)
        ]
        labels = [f"{a}{sep}{t}" if a and t else a + t for a in labels for t in terms]
    labels[0] = "1" if bmap.multiplicative else "0"
    # a basis vector alone keeps its label bare
    for i, lbl in enumerate(reversed(bmap.labels)):
        labels[bmap.p ** i] = lbl
    return labels


def rigidity_report(bmap: AugBilinearMap) -> dict:
    _, flags = _scan(bmap)
    labels = _all_labels(bmap)[1:]
    return {"rigid": list(compress(labels, flags.tolist())),
            "nonRigid": list(compress(labels, (~flags).tolist())),
            "nSubspaceDim": int(len(_n_basis(bmap)))}


@dataclass(frozen=True)
class RigidityCriterionReport:
    holds: bool
    checked: int
    counterexamples: tuple[str, ...]


def check_rigidity_criterion(e: PairExpr, p: int) -> RigidityCriterionReport:
    """Every degree-one class outside the inflation subspace of an
    extension must be rigid; scan them all and report violations."""
    ne = normalize(e, p)
    if not isinstance(ne, Ext):
        raise NotAnExtension(f"normal form {type(ne).__name__} has no extension root")
    _check_bound(p, ne.rank())  # before building the ring and its gram
    alg = build_cohomology(ne, p, 2)
    bmap = from_cohomology(alg)
    t = alg.meta["ext_inflation_dim"]
    vecs, flags = _scan(bmap)
    outside = np.flatnonzero(vecs[:, t:].any(axis=1))
    counter = tuple(vector_label(bmap, v) for v in vecs[outside[~flags[outside]]])
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
    """For an invertible P with P eps1 = eps2, which the callers
    guarantee (every leaf of ``find_equivalence`` has both, and
    ``field_models.check_pairing_match`` tests eps1 = eps2 itself for
    P = I): an invertible Q with Q B1(a,b) = B2(Pa, Pb), or None.  With
    V the rows B1(e_i, e_j) and W the rows B2(Pe_i, Pe_j), any such Q maps
    the rows of V that ``_basis`` picks, a basis of V's row span, onto the
    same rows of W, which are then independent.  So it agrees on that span
    with the Q mapping the two extended bases onto each other, and that Q
    answers exactly when V Q^T = W."""
    p, d, e = m1.p, m1.d, m1.e
    v = m1.tensor.reshape(d * d, e)
    piv, _, b1_inv = _basis(v, p)

    def try_p(pm: np.ndarray):
        w = np.einsum("ia,jb,ijk->abk", pm, pm, m2.tensor).reshape(d * d, e) % p
        q_t = b1_inv @ _basis(w[piv], p)[1] % p  # Q^T = B1^-1 B2
        return q_t.T if np.array_equal(v @ q_t % p, w) else None

    return try_p


def _same_shape(m1: AugBilinearMap, m2: AugBilinearMap) -> bool:
    if m1.p != m2.p:
        raise ValidationError("maps live over different primes")
    return (m1.d, m1.e) == (m2.d, m2.e)


def find_equivalence(m1: AugBilinearMap, m2: AugBilinearMap):
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
    pruned when a nonzero combination of the chosen columns has another
    key than the same combination of basis vectors in m1, or when no
    invertible Q fits the pairs of chosen basis vectors: with columns
    X1 = B1(e_a, e_b) and X2 = B2(Pe_a, Pe_b), an invertible Q with
    Q X1 = X2 exists exactly when rank X1 = rank X2 = rank [X1; X2].  A
    leaf only builds Q (see ``_q_finder``).  Its P has P eps1 = eps2: each
    nonzero a keeps its key, whose last bit is a = eps, and for eps1 = 0
    the keys of the zero vectors agree only when eps2 = 0.  And P is
    invertible, by the same bit: were Px = 0 for some x != 0, then at
    eps1 = 0 the key of x would say x != eps1 while Px = 0 = eps2; at
    eps1 != 0 either x = -eps1, and P eps1 = 0 != eps2, or eps1 + x is
    nonzero, differs from eps1 and still maps to eps2.

    Raises ``DimensionTooLarge`` when p^d exceeds ``DEFAULT_ENUM_BOUND``
    (the keys enumerate A_1) or when the search tries more than
    ``DEFAULT_PAIR_CAP`` candidate columns.
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
            if nodes > DEFAULT_PAIR_CAP:
                raise DimensionTooLarge(
                    f"equivalence search tried more than {DEFAULT_PAIR_CAP} "
                    "candidate columns"
                )
            img = (base[None] + lam[None, :, j, None] * c[:, None, :]) % p @ place
            c = c[(k2[img] == target).all(axis=1)]
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

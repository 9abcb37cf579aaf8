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

- at p = 2, W_a is built by linearity in a: its d rows B(a, e_j) are
  e-bit words, each the XOR of the same row for the basis vectors that a
  selects.  The rows are ranked by XOR elimination
  (``fplinear.xor_rank``), and u W_a is the XOR of the rows that u
  selects.
- at odd p, eps = 0 and W_ca = c W_a, so the flags are constant on lines:
  only the vectors whose first nonzero coordinate is 1 are ranked, and
  each flag is spread over the p - 1 multiples.  W_a and u W_a are built
  by ``einsum`` (numpy has no BLAS for integers) in the narrowest signed
  type that holds them unreduced and also holds ``batch_rank``'s
  elimination (``fplinear.lane``), so that the elimination runs in that
  type with no wider copy: int16 at p = 3, where the budget of a chunk,
  counted in bytes, then holds four times the matrices of int64.

The N-subspace, the span of eps and the non-rigid vectors, is grown by
closure over vector indices, at most dim N steps, and its RREF is read
off its members (``_n_basis``).

A vector v of A_1 has index v @ ``_place(p, d)``, the number its
coordinates spell in base p, and ``_all_vectors`` lists A_1 in that
order.  The report names every vector, and a failing criterion the ones
it breaks on; the labels are built for all of A_1 at once, as a product
over the coordinates (``_all_labels``; ``tests/label_oracle.py`` names
one vector at a time and is its oracle).  The brute-force test ``_rigid_one``, which
enumerates every b, is kept in ``tests/test_rigidity.py`` as the oracle
for the rank test.

Equivalence of two maps is decided by a search over the columns of the
change of basis, restricted and pruned by rank invariants of every vector
(see ``find_equivalence``), so that each leaf's P is already invertible
with P eps1 = eps2.  Maps of which exactly one has eps = 0 are refused
before any vector is keyed.  The keys and the prune both read the ranks
of A, B and [A | B] off one stacked elimination (``_side_by_side_ranks``),
and ``_keys`` keys both maps in the same pass: each chunk of vectors goes
through one product with both tensors and one elimination.  The
enumeration of all p^(d^2) matrices, ``_find_equivalence_brute``, tests P
itself and is kept in ``tests/test_rigidity.py`` as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .cohomology import GradedAlgebra, build_cohomology
from .errors import DimensionTooLarge, NotAnExtension, ValidationError
from .fplinear import batch_rank, lane, pack_words, rref, xor_rank
from .pairs import Ext, PairExpr, normalize

# A scan lists all p^d vectors of A_1 in its output, so the bound is set by
# output size.  Working memory is fixed by the chunk budgets whatever the
# bound, and they are counted in bytes: _CHUNK_BYTES (128 KiB) per batched
# elimination at odd p, in the scan's lane (2^16 int16 entries at p = 3,
# four times the matrices of an int64 chunk) and in int64 in the
# equivalence search, and per map in _keys, which keys a chunk of
# _CHUNK_BYTES // (48 d e) vectors in both maps at once; _CHUNK_WORDS uint64
# words of W_a per chunk of the p = 2 scan (512 KiB).  A budget shared by
# the two maps of _keys would cut the step at d = 12, e = 66 from 3 vectors
# to 1: the pairing fallback's yes answer on the 11-level tower then took
# 1.15-1.21 s against 0.74-0.83 s (in process, first call, 2-core machine).
# For the row-by-row int64 eliminations (in process, best of 3, two sweeps
# on a shared 2-core machine), 512 KiB against 128 KiB sped up the 3^10
# scan of ext(9,Z(7)) (0.41-0.44 s against 0.51-0.54 s) but not the bench's
# equivalence rounds (0.33-0.40 against 0.31-0.34 ms per item) nor its
# p = 3 scans (0.57-0.64 against 0.61 ms); the scan of ext(15,E) took
# 0.15-0.19 s at 2^14 words, 0.12-0.14 s at 2^16 and 0.11-0.12 s at 2^17,
# and the bench's p = 2 maps fit one chunk from 2^13 words on.  The int16
# lane in the same 128 KiB took the bench's p = 3, d = 6 scans from 1.23 to
# 0.95 ms per item (median, min of 3 runs), ranking their 364 lines in one
# chunk instead of two, and the 3^10 scan from 0.49-0.52 s to 0.23-0.25 s.
DEFAULT_ENUM_BOUND = 2**16
DEFAULT_PAIR_CAP = 2_000_000
_CHUNK_BYTES = 2**17
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


def _place(p: int, d: int) -> np.ndarray:
    """Digit weights of F_p^d: vector v sits at index v @ _place(p, d)."""
    return p ** np.arange(d - 1, -1, -1, dtype=np.int64)


def _all_vectors(p: int, d: int) -> np.ndarray:
    """All p^d vectors of F_p^d, in lexicographic order."""
    return np.arange(p**d, dtype=np.int64)[:, None] // _place(p, d) % p


def _rank_flags(bmap: AugBilinearMap, vecs: np.ndarray) -> np.ndarray:
    """Rigidity flags of the nonzero rows of ``vecs`` by the rank test."""
    p, d, e = bmap.p, bmap.d, bmap.e
    flags = np.empty(len(vecs), dtype=bool)
    if p == 2:
        # Row j of W_a, B(a, e_j) as an e-bit word in w uint64 words, is the
        # XOR over the i that a selects of rows[i, j], that row for e_i.
        # Each byte of a's bits picks its XOR from a table built by
        # doubling, whose last axis is the byte, as ``xor_rank`` reads it.
        rows = pack_words(bmap.tensor)
        w = rows.shape[2]
        tables = []
        for g in range(0, d, 8):
            t = np.zeros((1, d, w), dtype=np.uint64)
            for row in rows[g : g + 8]:
                t = np.concatenate([t, t ^ row])
            tables.append(np.ascontiguousarray(t.transpose(1, 2, 0)))
        bit = np.left_shift(1, np.arange(d), dtype=np.int64)
        step = max(1, _CHUNK_WORDS // max(1, d * w))
    else:
        # W_a = a @ flat, unreduced, has entries up to d (p - 1)^2, and
        # u W_a up to d (p - 1) times that; both are built in a lane that
        # also holds batch_rank's elimination, so that it ranks them as
        # they are, with no wider copy
        dtype = lane(p, min(d, e), d * d * (p - 1) ** 3)
        flat = bmap.tensor.reshape(d, d * e).astype(dtype)
        step = max(1, _CHUNK_BYTES // max(1, dtype.itemsize * d * e))
    for s in range(0, len(vecs), step):
        a = vecs[s : s + step]
        if p == 2:
            u = (bmap.eps + a) % p
            x = a @ bit
            wa = np.zeros((d, w, len(a)), dtype=np.uint64)
            for g, t in enumerate(tables):
                wa ^= t.take((x >> 8 * g) & 255, axis=2)
            # u W_a is the XOR of the rows of W_a that u selects
            u_kills = ~np.bitwise_xor.reduce(
                wa * u.T.astype(np.uint64)[:, None, :], axis=0).any(axis=0)
            r = xor_rank(wa)
        else:
            u = a = a.astype(dtype)  # eps = 0 at odd p
            # numpy has no BLAS for integers, and einsum beats @ on them
            wa = np.einsum("ci,ij->cj", a, flat).reshape(len(a), d, e)
            u_kills = ~(np.einsum("cj,cjk->ck", u, wa) % p).any(axis=1)
            r = batch_rank(wa, p)
        flags[s : s + step] = (
            ~u.any(axis=1) | (r == d) | ((r == d - 1) & u_kills)
        )
    return flags


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
            place = _place(p, d)
            lead = vecs[np.concatenate([np.arange(q, 2 * q) for q in place]) - 1]
            lead_flags = _rank_flags(bmap, lead)
            flags = np.empty(len(vecs), dtype=bool)
            for c in range(1, p):
                flags[c * lead % p @ place - 1] = lead_flags
        vecs.flags.writeable = flags.flags.writeable = False
        bmap._cache["scan"] = (vecs, flags)
    return bmap._cache["scan"]


def _n_basis(bmap: AugBilinearMap) -> np.ndarray:
    """The cached N-subspace basis, shared by n_subspace and the report.

    N is spanned by closure over vector indices: the first wanted vector
    (eps or a non-rigid one) outside the span so far is added with its
    multiples, at most dim N times.  The RREF of N is then read off its
    members: the members whose first nonzero coordinate is a 1 at c fill
    the indices [place_c, 2 place_c), and when c is a pivot the least of
    them is its RREF row.  They differ by the members that vanish up to c,
    which the RREF rows of the later pivots span, and the least is 0 at
    each of those pivots in turn."""
    vecs, flags = _scan(bmap)
    if "n" not in bmap._cache:
        p, d = bmap.p, bmap.d
        place = _place(p, d)
        wanted = np.concatenate([[False], ~flags])
        wanted[bmap.eps @ place] = True
        span = np.zeros((1, d), dtype=np.int64)
        multiples = np.arange(p)[:, None, None]
        members = np.zeros(1, dtype=np.int64)
        while True:
            wanted[members] = False
            i = wanted.argmax()
            if not wanted[i]:
                break
            span = ((span + multiples * vecs[i - 1]) % p).reshape(-1, d)
            members = span @ place
        members.sort()
        least = members[np.minimum(np.searchsorted(members, place), len(members) - 1)]
        bmap._cache["n"] = vecs[least[least // place == 1] - 1]
    return bmap._cache["n"]


def n_subspace(bmap: AugBilinearMap) -> np.ndarray:
    """Basis of the span of eps and all non-rigid nonzero vectors."""
    return _n_basis(bmap).copy()


def _all_labels(bmap: AugBilinearMap) -> list[str]:
    """The name of every vector of ``_all_vectors``, in its order, built as
    a product over the coordinates; ``tests/label_oracle.py`` names one
    vector at a time and is its oracle."""
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
    bad = outside[~flags[outside]].tolist()
    # scan row i is vector i + 1; a correct ring has no label to build
    labels = _all_labels(bmap) if bad else []
    counter = tuple(labels[i + 1] for i in bad)
    return RigidityCriterionReport(not counter, len(outside), counter)


def _keys(vecs: np.ndarray, *maps: AugBilinearMap) -> list[np.ndarray]:
    """Invariant key of every vector a of A_1, indexed like ``vecs``, which
    is ``_all_vectors(p, d)``, for each of ``maps``, which share p, d and
    e and whose p^d the caller has checked against the bound.

    The key packs rank(b -> B(a, b)), rank(b -> B(b, a)), the rank of the
    two together, whether B(a, a) = 0 and whether a = eps.  The maps not
    keyed yet, each once however often it is passed, are keyed together,
    and their keys cached on them: for each chunk of vectors, one product
    with the stacked tensors gives both sides of every map, and one
    ``_side_by_side_ranks`` gives the three ranks of every map.
    """
    todo = list({id(m): m for m in maps if "keys" not in m._cache}.values())
    if todo:
        p, d, e, k = todo[0].p, todo[0].d, todo[0].e, len(todo)
        keys = np.empty((k, len(vecs)), dtype=np.int64)
        # row i of flat holds, for each map, B(e_i, e_j) and then B(e_j, e_i)
        # for every j, so a @ flat holds B(a, e_j) and B(e_j, a); batch_rank
        # reduces them mod p
        flat = np.concatenate(
            [t for m in todo for t in (m.tensor, m.tensor.transpose(1, 0, 2))],
            axis=1).reshape(d, 2 * k * d * e)
        step = max(1, _CHUNK_BYTES // max(1, 8 * 6 * d * e))
        for s in range(0, len(vecs), step):
            a = vecs[s : s + step]
            sides = (a @ flat).reshape(len(a), k, 2, d, e)
            left = sides[:, :, 0]
            n = len(a) * k
            r = _side_by_side_ranks(left.reshape(n, d, e),
                                    sides[:, :, 1].reshape(n, d, e), p)
            ranks = ((r[0] * (d + 1) + r[1]) * (d + 1) + r[2]).reshape(len(a), k)
            iso = ~(np.einsum("cj,cmjk->cmk", a, left) % p).any(axis=2)
            keys[:, s : s + step] = ((ranks * 2 + iso) * 2).T
        keys[np.arange(k), np.array([m.eps for m in todo]) @ _place(p, d)] += 1
        keys.flags.writeable = False
        for m, row in zip(todo, keys):
            m._cache["keys"] = row
    return [m._cache["keys"] for m in maps]


def _side_by_side_ranks(a: np.ndarray, b: np.ndarray, p: int):
    """Ranks of each A, each B and each [A | B], for two stacks of matrices
    with as many rows, from one ``batch_rank`` call.  A stack holding one
    matrix pairs with every matrix of the other."""
    na, nb, ea, eb = len(a), len(b), a.shape[2], b.shape[2]
    stack = np.zeros((na + nb + max(na, nb), a.shape[1], ea + eb), dtype=np.int64)
    stack[:na, :, :ea] = stack[na + nb :, :, :ea] = a
    stack[na : na + nb, :, :eb] = stack[na + nb :, :, ea:] = b
    r = batch_rank(stack, p)
    return r[:na], r[na : na + nb], r[na + nb :]


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
    bijection of A_1 that fixes 0.  The key of 0 says whether eps = 0, so
    when one of eps1 and eps2 is zero and the other is not, the answer is
    None before any key is computed; otherwise it is None when the key
    counts of the two maps differ.

    Otherwise the columns of P are chosen one basis vector at a time, the
    basis vectors with the fewest candidates first.  The image of e_j
    ranges over the vectors of m2 with the key of e_j in m1.  A branch is
    pruned when a nonzero combination of the chosen columns has another
    key than the same combination of basis vectors in m1, or when no
    invertible Q fits the pairs of chosen basis vectors: with columns
    X1 = B1(e_a, e_b) and X2 = B2(Pe_a, Pe_b), an invertible Q with
    Q X1 = X2 exists exactly when rank X1 = rank X2 = rank [X1; X2].  A
    leaf, where all d columns are chosen (at the root when d = 0), only
    builds Q (see ``_q_finder``).  Its P has P eps1 = eps2: each nonzero
    a keeps its key, whose last bit is a = eps, and eps1 = 0 only when
    eps2 = 0, by the test on eps.  And P is invertible, by the same bit:
    were Px = 0 for some x != 0, then at eps1 = 0 the key of x would say
    x != eps1 while Px = 0 = eps2; at eps1 != 0 either x = -eps1, and
    P eps1 = 0 != eps2, or eps1 + x is nonzero, differs from eps1 and
    still maps to eps2.

    Raises ``DimensionTooLarge`` when p^d exceeds ``DEFAULT_ENUM_BOUND``
    (the keys enumerate A_1), before the test on eps, or when the search
    tries more than ``DEFAULT_PAIR_CAP`` candidate columns.
    """
    if not _same_shape(m1, m2):
        return None
    p, d, e = m1.p, m1.d, m1.e
    _check_bound(p, d)
    if m1.eps.any() != m2.eps.any():
        return None
    vecs = _all_vectors(p, d)
    k1, k2 = _keys(vecs, m1, m2)
    if not np.array_equal(np.bincount(k1), np.bincount(k2)):
        return None
    place = _place(p, d)
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
                       max(1, _CHUNK_BYTES // (8 * cells))))
    flat2 = m2.tensor.reshape(d, d * e)
    try_p = _q_finder(m1, m2)
    nodes = 0

    def extend(chosen: np.ndarray):
        nonlocal nodes
        j = len(chosen)
        if j == d:
            pm = np.empty((d, d), dtype=np.int64)
            pm[:, order] = chosen.T
            q = try_p(pm)
            return None if q is None else (pm, q)
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
                x2 = (full[:, None] @ half % p).reshape(n, len(x1), e)
                r1, r2, r12 = _side_by_side_ranks(x1[None], x2, p)
                full = full[(r2 == r1) & (r12 == r1)]
            for cols in full:
                got = extend(cols)
                if got is not None:
                    return got
        return None

    return extend(np.zeros((0, d), dtype=np.int64))

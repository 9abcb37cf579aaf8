"""Finite-group cohomology oracle in degrees one and two.

Groups are multiplication tables with identity at index 0.  Cochains are
normalized and inhomogeneous; everything reduces to F_p linear algebra,
so dimensions and explicit classes come out of rank computations that
are independent of the pro-p machinery elsewhere in the package.

Both degrees are read off the Cayley graph of G on a generating set S of
d elements, with n vertices and n*d edges.  Hom(G, F_p) is cut out by
f(1) = 0 and one row per edge.  For F free on S and R the kernel of F -> G, the five-term
sequence and H^2(F) = 0 give H^2(G) = H^1(R)^G / H^1(F), and H^1(R) is
H^1 of the Cayley graph, on which G acts by left translation.  A class
there is an edge function z; it is invariant when z(gx, s) - z(x, s) =
h_g(xs) - h_g(x) for each g in S and some vertex functions h_g.  These
n*d^2 rows, with four nonzeros each, go into an ``fplinear`` echelon
basis and cut out the space W of pairs (z, h); ``H2Space`` turns a basis
of W into 2-cocycles and reads its representatives and every coordinate
off one reduced basis of Z^2.  Nothing here enumerates the (n-1)^3
cocycle conditions.  At order 32, ``h2_dim`` takes a few milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    KernelNotCentral,
    NotAHomomorphism,
    OrderBound,
    ValidationError,
    int_param,
    is_int,
)
from .fplinear import (
    dense_row,
    echelon_insert,
    echelon_kernel,
    echelon_reduce,
    kernel_basis,
    rref,
    sparse_row,
    sparse_rows,
)

MAX_ORDER = 32


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Multiplication table group; table[i, j] is the index of g_i g_j."""

    table: np.ndarray
    name: str = ""
    inverses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=np.int64)
        object.__setattr__(self, "table", t)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValidationError("the table must be square")
        n = t.shape[0]
        if n < 1:
            raise ValidationError("empty table")
        if n > MAX_ORDER:
            raise OrderBound(f"order {n} exceeds the bound {MAX_ORDER}")
        if t.min() < 0 or t.max() >= n:
            raise ValidationError("table entries must be element indices")
        ident = np.arange(n)
        if not (np.array_equal(t[0], ident) and np.array_equal(t[:, 0], ident)):
            raise ValidationError("index 0 must be the identity")
        if (np.sort(t, axis=0).T != ident).any() or (np.sort(t, axis=1) != ident).any():
            raise ValidationError("rows and columns must be permutations")
        if not np.array_equal(t[t], t[:, t]):  # t[t[i,j],k] against t[i,t[j,k]]
            raise ValidationError("the table is not associative")
        # each row is a permutation, so it holds the identity exactly once
        object.__setattr__(self, "inverses", np.nonzero(t == 0)[1])

    @property
    def order(self) -> int:
        return int(self.table.shape[0])


def _table_group(fn, n: int, name: str) -> FiniteGroup:
    if n > MAX_ORDER:  # checked before the n x n table is built
        raise OrderBound(f"order {n} exceeds the bound {MAX_ORDER}")
    return FiniteGroup(np.array([[fn(i, j) for j in range(n)] for i in range(n)]), name)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic groups need n >= 1")
    return _table_group(lambda i, j: (i + j) % n, n, f"C{n}")


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order; index i + n*j encodes
    r^i s^j with n = order/2, so r is index 1 and s is index n."""
    if order < 4 or order % 2:
        raise ValidationError("dihedral groups need an even order >= 4")
    n = order // 2

    def mul(x: int, y: int) -> int:
        i1, j1 = x % n, x // n
        i2, j2 = y % n, y // n
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        return i + n * ((j1 + j2) % 2)

    return _table_group(mul, order, f"D{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order

    def mul(x: int, y: int) -> int:
        xa, xb = divmod(x, nb)
        ya, yb = divmod(y, nb)
        return int(a.table[xa, ya]) * nb + int(b.table[xb, yb])

    return _table_group(mul, na * nb, f"{a.name}x{b.name}")


def klein4() -> FiniteGroup:
    g = direct_product(cyclic(2), cyclic(2))
    return FiniteGroup(g.table, "V4")


def group_from_json(data) -> FiniteGroup:
    """Decode group JSON; any malformed input raises ``ValidationError``."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("group JSON needs a 'kind' key")
    kind = data["kind"]
    if kind == "cyclic":
        return cyclic(int_param(data, "n", ValidationError,
                                "group JSON needs an integer 'n'"))
    if kind == "dihedral":
        return dihedral(int_param(data, "order", ValidationError,
                                  "group JSON needs an integer 'order'"))
    if kind == "klein4":
        return klein4()
    if kind == "product":
        if not isinstance(data.get("factors"), list) or not data["factors"]:
            raise ValidationError("a product needs a nonempty 'factors' list")
        return reduce(direct_product, [group_from_json(f) for f in data["factors"]])
    if kind == "table":
        t = data.get("table")
        if not isinstance(t, list) or not all(
            isinstance(row, list) and len(row) == len(t)
            and all(is_int(c) and 0 <= c < len(t) for c in row)
            for row in t
        ):
            raise ValidationError(
                "a group table must be a square list of lists of element indices"
            )
        return FiniteGroup(np.array(t, dtype=np.int64).reshape(len(t), len(t)))
    raise ValidationError(f"unknown group kind {kind!r}")


def cochain_from_json(data, g: FiniteGroup, p: int) -> list[int]:
    """Decode a degree-one cochain, one integer per element, read mod p."""
    if not (isinstance(data, list) and len(data) == g.order
            and all(is_int(x) for x in data)):
        raise ValidationError(f"a cochain must be a list of {g.order} integers")
    return [x % p for x in data]


def kernel_from_json(data, g: FiniteGroup) -> list[int]:
    """Decode a kernel given as a list of element indices."""
    if not (isinstance(data, list)
            and all(is_int(x) and 0 <= x < g.order for x in data)):
        raise ValidationError(
            f"a kernel must be a list of element indices in [0, {g.order})"
        )
    return data


# ---------------------------------------------------------------------------
# subgroups and quotients


def subgroup_closure(g: FiniteGroup, gens: list[int]) -> list[int]:
    seen = {0}
    frontier = [0]
    gens = [int(x) for x in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                for y in (int(g.table[x, s]), int(g.table[s, x])):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return sorted(seen)


def quotient(g: FiniteGroup, normal: list[int]) -> tuple[FiniteGroup, np.ndarray]:
    """Quotient by a normal subgroup; returns (G/N, projection array)."""
    nset = set(int(x) for x in normal)
    if 0 not in nset:
        raise ValidationError("the subgroup must contain the identity")
    nl = sorted(nset)
    if not np.isin(g.table[np.ix_(nl, nl)], nl).all():
        raise ValidationError("not closed under multiplication")
    if not np.isin(g.table[g.table[:, nl], g.inverses[:, None]], nl).all():
        raise ValidationError("the subgroup is not normal")
    proj = -np.ones(g.order, dtype=np.int64)
    rep_of = []
    for x in range(g.order):
        if proj[x] >= 0:
            continue
        cid = len(rep_of)
        rep_of.append(x)
        for k in nset:
            proj[int(g.table[x, k])] = cid
    qt = proj[g.table[np.ix_(rep_of, rep_of)]]
    return FiniteGroup(qt, f"{g.name}/N"), proj


# ---------------------------------------------------------------------------
# the Cayley graph


def generators(g: FiniteGroup) -> list[int]:
    """A deterministic generating set S: each index in 1..n-1 that lies
    outside the subgroup generated by the ones kept before it."""
    gens: list[int] = []
    span = {0}
    for x in range(1, g.order):
        if x not in span:
            gens.append(x)
            span = set(subgroup_closure(g, gens))
    return gens


# ---------------------------------------------------------------------------
# degree one


def h1_basis(g: FiniteGroup, p: int) -> np.ndarray:
    """Basis of Hom(G, F_p) as rows of values over the elements.

    The rows are f(1) = 0 and f(x) + f(s) - f(xs) = 0 for each edge (x, s)
    of the Cayley graph, s in S.  Their kernel is Hom(G, F_p), so they span
    the row space of all n^2 conditions f(x) + f(y) - f(xy) = 0 and give
    the same RREF kernel basis.
    """
    n, gens = g.order, generators(g)
    eye = np.eye(n, dtype=np.int64)
    edges = eye[:, None, :] + eye[gens][None, :, :] - eye[g.table[:, gens]]
    return kernel_basis(np.vstack([eye[:1], edges.reshape(-1, n)]) % p, p)


def h1_dim(g: FiniteGroup, p: int) -> int:
    return len(h1_basis(g, p))


# ---------------------------------------------------------------------------
# degree two


def _invariant_space(g: FiniteGroup, p: int) -> tuple[list[int], dict]:
    """S, and the echelon basis of the rows z(gx, s) - z(x, s) - h_g(xs) +
    h_g(x) = 0 that cut out W, one per (g, s, x) with g, s in S; z(x, s_j)
    is column x*d + j and h_{g_i}(v) is column n*d + i*n + v."""
    gens = generators(g)
    n, d, t = g.order, len(gens), g.table.tolist()
    basis: dict = {}
    for i, gi in enumerate(gens):
        h = n * d + i * n
        for j, s in enumerate(gens):
            for x in range(n):
                # g != 1 and s != 1, so the four columns are distinct
                row = {t[gi][x] * d + j: 1, x * d + j: -1, h + t[x][s]: -1, h + x: 1}
                echelon_insert(basis, sparse_row(row, p), p)
    return gens, basis


def _transgressions(g: FiniteGroup, gens: list[int], z: np.ndarray,
                    p: int) -> np.ndarray:
    """The 2-cocycle c(x, y) = T(1, x) + T(x, y) - T(1, xy) of each edge
    function in z (shape (k, n, d)), over nonidentity pairs.  T(x, y) sums
    z along x times the path from 1 to y in a BFS tree of the Cayley
    graph; c(x, y) is the sum of z around a closed loop."""
    n, t = g.order, g.table
    paths = np.zeros((len(z), n, n), dtype=np.int64)  # T, one column per y
    seen, order = {0}, [0]
    for u in order:  # the BFS queue grows while it is read
        for j, s in enumerate(gens):
            v = int(t[u, s])
            if v not in seen:
                seen.add(v)
                order.append(v)
                # the path to v = us is the path to u, then the edge (u, s)
                paths[:, :, v] = (paths[:, :, u] + z[:, t[:, u], j]) % p
    base = paths[:, 0]
    c = base[:, :, None] + paths - base[:, t]
    return c[:, 1:, 1:].reshape(len(z), (n - 1) ** 2) % p


def _coboundaries(g: FiniteGroup) -> np.ndarray:
    """Rows spanning B^2: the coboundary of each delta function on a
    nonidentity element, c(x, y) = [x = g] + [y = g] - [xy = g]."""
    n = g.order
    eye = np.eye(n, dtype=np.int64)
    rows = eye[:, 1:, None] + eye[:, None, 1:] - eye[:, g.table[1:, 1:]]
    return rows[1:].reshape(n - 1, (n - 1) ** 2)


def h2_dim(g: FiniteGroup, p: int) -> int:
    """dim H^2(G, F_p) with trivial action, from the Cayley graph: dim W,
    less the (n - 1) + d dimensions of pairs (z, h) with z a vertex
    coboundary, less the image of H^1(F), of dimension d - dim H^1."""
    n = g.order
    gens, basis = _invariant_space(g, p)
    d = len(gens)
    return 2 * n * d - len(basis) - 2 * d - (n - 1) + h1_dim(g, p)


@dataclass
class H2Space:
    """Explicit H^2(G, F_p): representatives and coordinates, both read
    off one reduced basis of Z^2.

    Z^2 is spanned by B^2 and the transgression of each basis vector of W.
    ``rref`` of those rows with the columns reversed gives Z^2 one basis
    vector z_k per pivot.  In the original column order z_k is 1 at its
    last nonzero column L_k and 0 at every other L_j, with L_1 < ... <
    L_r, so c -> c[L] maps Z^2 isomorphically onto F_p^r, and c = sum
    c[L_k] z_k.

    The representatives are the z_k, in order, that lie outside B^2 plus
    the z_j kept before them.  By induction that span is B^2 + span(z_1,
    ..., z_(k-1)), so z_k is kept exactly when no coboundary has its last
    nonzero L-coordinate at k: the kept k are the non-pivots of the
    echelon of B^2's rows at the columns L, with those columns reversed.
    The reversed ``rref``'s pivots list the L in that order already.

    ``coords`` reduces a cochain against Z^2's echelon; a nonzero
    remainder means it is not a cocycle.  It then reduces c[L] by the
    small B^2 echelon, which clears every pivot, and reads the kept
    positions: the unique lambda with c in B^2 + sum lambda_k z_k.
    """

    group: FiniteGroup
    p: int
    reps: np.ndarray = field(init=False)
    _cocycles: dict = field(init=False, repr=False)  # Z^2, columns reversed
    _pivots: list = field(init=False, repr=False)  # the L, reversed
    _coboundaries: dict = field(init=False, repr=False)  # B^2 at the L
    _kept: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g, p = self.group, self.p
        n = g.order
        gens, w = _invariant_space(g, p)
        z = echelon_kernel(w, 2 * n * len(gens), p)
        # each vector of W is z, then the h_g: n*d values each
        edges = np.array(z, dtype=np.int64).reshape(len(z), 2, n, len(gens))[:, 0]
        cob = _coboundaries(g)
        spanning = np.vstack([cob, _transgressions(g, gens, edges, p)])  # Z^2
        # row i of flipped is z_(r-i): it pivots at the reversed column of L_(r-i)
        flipped, self._pivots = rref(spanning[:, ::-1], p)
        r = len(self._pivots)
        self._cocycles = dict(zip(self._pivots, sparse_rows(flipped[:r], p)))
        self._coboundaries = {}
        for row in sparse_rows(cob[:, ::-1][:, self._pivots] % p, p):
            echelon_insert(self._coboundaries, row, p)
        self._kept = np.array([i for i in range(r - 1, -1, -1)
                               if i not in self._coboundaries], dtype=np.intp)
        self.reps = flipped[self._kept, ::-1]

    @property
    def dim(self) -> int:
        return len(self.reps)

    def cochain_of_pairs(self, fn) -> np.ndarray:
        """Vectorize fn(x, y) over nonidentity pairs."""
        n = self.group.order
        return np.array([fn(x, y) % self.p for x in range(1, n) for y in range(1, n)],
                        dtype=np.int64)

    def coords(self, cvec: np.ndarray) -> np.ndarray:
        """Coordinates of a cocycle in the chosen H^2 basis."""
        p = self.p
        flipped = np.asarray(cvec, dtype=np.int64)[::-1]
        if echelon_reduce(self._cocycles, sparse_row(flipped, p), p):
            raise ValidationError("the cochain is not a cocycle")
        rest = echelon_reduce(self._coboundaries,
                              sparse_row(flipped[self._pivots], p), p)
        return dense_row(rest, len(self._pivots), p)[self._kept]


def cup_h1_h1(g: FiniteGroup, p: int, f, h,
              space: H2Space | None = None) -> np.ndarray:
    """Cup product of two degree-one classes, in H^2 coordinates."""
    f = np.asarray(f, dtype=np.int64) % p
    h = np.asarray(h, dtype=np.int64) % p
    n = g.order
    if f.shape != (n,) or h.shape != (n,):
        raise ValidationError("degree-one cochains assign a value per element")
    for a in (f, h):
        if a[0] % p:
            raise NotAHomomorphism("value at the identity must vanish")
        if ((a[g.table] - a[:, None] - a[None, :]) % p).any():
            raise NotAHomomorphism("not additive on some pair")
    if space is None:
        space = H2Space(g, p)
    cvec = space.cochain_of_pairs(lambda x, y: int(f[x]) * int(h[y]))
    return space.coords(cvec)


# ---------------------------------------------------------------------------
# extension classes


def _validate_kernel(e: FiniteGroup, kernel: list[int], p: int) -> int:
    """A nonidentity element of the kernel, after checking that the kernel
    is a central subgroup of prime order p.  A closed finite subset that
    holds the identity is a subgroup; of prime order p, it is cyclic and
    any other element generates it, so cyclicity needs no check."""
    kset = [int(x) for x in kernel]
    if sorted(kset) != sorted(set(kset)) or 0 not in kset:
        raise ValidationError("the kernel must be a subgroup containing 0")
    if len(kset) != p:
        raise ValidationError(f"the kernel must have order {p}")
    if not np.isin(e.table[np.ix_(kset, kset)], kset).all():
        raise ValidationError("the kernel is not closed")
    bad = np.argwhere(e.table[kset] != e.table[:, kset].T)
    if len(bad):
        k, x = kset[bad[0, 0]], bad[0, 1]
        raise KernelNotCentral(f"element {k} does not commute with {x}")
    return next(x for x in kset if x)


def default_section(e: FiniteGroup, proj: np.ndarray) -> np.ndarray:
    return np.unique(proj, return_index=True)[1].astype(np.int64)  # first lifts


def extension_class(e: FiniteGroup, kernel: list[int], p: int,
                    section: np.ndarray | None = None,
                    space: H2Space | None = None):
    """Class of a central extension of G = E/N by N = Z/p in H^2(G, F_p).

    Returns (quotient group, coordinate vector).  The class does not
    depend on the chosen section; sections must lift the identity to 0.
    The factor set l_x l_y l_xy^-1 lies in N, since l_x l_y and l_xy both
    map to xy in G, so its discrete log needs no membership test.
    """
    gen = _validate_kernel(e, kernel, p)
    dlog = {}
    acc = 0
    for k in range(p):
        dlog[acc] = k
        acc = int(e.table[acc, gen])
    q, proj = quotient(e, kernel)
    if section is None:
        sec = default_section(e, proj)
    else:
        sec = np.asarray(section, dtype=np.int64)
        if sec.shape != (q.order,):
            raise ValidationError("the section must list one lift per coset")
        if not np.array_equal(proj[sec], np.arange(q.order)):
            raise ValidationError("the section does not split the projection")
        if sec[0] != 0:
            raise ValidationError("the section must lift the identity to 0")
    if space is None:
        space = H2Space(q, p)

    t, inv, qt = e.table.tolist(), e.inverses.tolist(), q.table.tolist()
    lift = sec.tolist()

    def factor_set(x: int, y: int) -> int:
        return dlog[t[t[lift[x]][lift[y]]][inv[lift[qt[x][y]]]]]

    return q, space.coords(space.cochain_of_pairs(factor_set))

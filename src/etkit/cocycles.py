"""Finite-group cohomology oracle in degrees one and two.

Groups are multiplication tables with identity at index 0.  Cochains are
normalized and inhomogeneous; everything reduces to F_p linear algebra,
so dimensions and explicit classes come out of rank computations that
are independent of the pro-p machinery elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .errors import (
    KernelNotCentral,
    NotAHomomorphism,
    OrderBound,
    ValidationError,
)
from .fplinear import in_span, kernel_basis, row_space_basis, solve

MAX_ORDER = 32


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Multiplication table group; table[i, j] is the index of g_i g_j."""

    table: np.ndarray
    name: str = ""

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
        if not (np.array_equal(t[0], np.arange(n))
                and np.array_equal(t[:, 0], np.arange(n))):
            raise ValidationError("index 0 must be the identity")
        for i in range(n):
            if len(set(t[i].tolist())) != n or len(set(t[:, i].tolist())) != n:
                raise ValidationError("rows and columns must be permutations")
        # left[i,j,k] = t[t[i,j],k]; right[i,j,k] = t[i,t[j,k]]
        left = t[t]
        right = t[:, t]
        if not np.array_equal(left, right):
            raise ValidationError("the table is not associative")

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    def inverse(self, i: int) -> int:
        row = self.table[i]
        return int(np.nonzero(row == 0)[0][0])

    def power(self, i: int, k: int) -> int:
        acc, base = 0, i
        if k < 0:
            base, k = self.inverse(i), -k
        for _ in range(k):
            acc = int(self.table[acc, base])
        return acc


def _table_group(fn, n: int, name: str) -> FiniteGroup:
    if n > MAX_ORDER:  # checked before the n x n table is built
        raise OrderBound(f"order {n} exceeds the bound {MAX_ORDER}")
    t = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            t[i, j] = fn(i, j)
    return FiniteGroup(t, name)


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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_param(data: dict, key: str) -> int:
    if not _is_int(data.get(key)):
        raise ValidationError(f"group JSON needs an integer {key!r}")
    return data[key]


def group_from_json(data) -> FiniteGroup:
    """Decode group JSON; any malformed input raises ``ValidationError``."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("group JSON needs a 'kind' key")
    kind = data["kind"]
    if kind == "cyclic":
        return cyclic(_int_param(data, "n"))
    if kind == "dihedral":
        return dihedral(_int_param(data, "order"))
    if kind == "klein4":
        return klein4()
    if kind == "product":
        if not isinstance(data.get("factors"), list) or not data["factors"]:
            raise ValidationError("a product needs a nonempty 'factors' list")
        factors = [group_from_json(f) for f in data["factors"]]
        g = factors[0]
        for h in factors[1:]:
            g = direct_product(g, h)
        return g
    if kind == "table":
        t = data.get("table")
        if not isinstance(t, list) or not all(
            isinstance(row, list) and len(row) == len(t)
            and all(_is_int(c) and 0 <= c < len(t) for c in row)
            for row in t
        ):
            raise ValidationError(
                "a group table must be a square list of lists of element indices"
            )
        return FiniteGroup(np.array(t, dtype=np.int64).reshape(len(t), len(t)))
    raise ValidationError(f"unknown group kind {kind!r}")


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


def commutator_subgroup(g: FiniteGroup) -> list[int]:
    n = g.order
    comms = set()
    for a in range(n):
        ia = g.inverse(a)
        for b in range(n):
            c = g.table[g.table[a, b], g.table[ia, g.inverse(b)]]
            comms.add(int(c))
    return subgroup_closure(g, sorted(comms))


def quotient(g: FiniteGroup, normal: list[int]) -> tuple[FiniteGroup, np.ndarray]:
    """Quotient by a normal subgroup; returns (G/N, projection array)."""
    nset = set(int(x) for x in normal)
    if 0 not in nset:
        raise ValidationError("the subgroup must contain the identity")
    for x in nset:
        for y in nset:
            if int(g.table[x, y]) not in nset:
                raise ValidationError("not closed under multiplication")
    for x in range(g.order):
        ix = g.inverse(x)
        for k in nset:
            if int(g.table[g.table[x, k], ix]) not in nset:
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
    m = len(rep_of)
    qt = np.zeros((m, m), dtype=np.int64)
    for i, ri in enumerate(rep_of):
        for j, rj in enumerate(rep_of):
            qt[i, j] = proj[int(g.table[ri, rj])]
    return FiniteGroup(qt, f"{g.name}/N"), proj


# ---------------------------------------------------------------------------
# degree one


def h1_basis(g: FiniteGroup, p: int) -> np.ndarray:
    """Basis of Hom(G, F_p) as rows of values over the elements."""
    n = g.order
    rows = np.zeros((n * n, n), dtype=np.int64)
    r = 0
    for i in range(n):
        for j in range(n):
            rows[r, i] += 1
            rows[r, j] += 1
            rows[r, int(g.table[i, j])] -= 1
            r += 1
    return kernel_basis(rows % p, p)


def h1_dim(g: FiniteGroup, p: int) -> int:
    return len(h1_basis(g, p))


def h1_dim_structural(g: FiniteGroup, p: int) -> int:
    """Independent route: p-torsion count in the abelianization."""
    q, _ = quotient(g, commutator_subgroup(g))
    count = sum(1 for x in range(q.order) if q.power(x, p) == 0)
    k = 0
    while p ** (k + 1) <= count:
        k += 1
    if p ** k != count:
        raise ValidationError("torsion count is not a p-power")
    return k


# ---------------------------------------------------------------------------
# degree two


def _rank_mod(m: np.ndarray, p: int) -> int:
    """Row-echelon rank over F_p, in place on an int32 copy."""
    m = (np.asarray(m, dtype=np.int64) % p).astype(np.int32)
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if len(nz) == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask] = (m[mask] - np.outer(col[mask], m[r])) % p
        r += 1
    return r


def _pair_index(n: int, x: int, y: int) -> int:
    return (x - 1) * (n - 1) + (y - 1)


def _cocycle_matrix(g: FiniteGroup, p: int) -> np.ndarray:
    """Constraint rows of the normalized 2-cocycle condition on variables
    c(x, y) indexed over nonidentity pairs."""
    n = g.order
    nv = (n - 1) * (n - 1)
    rows = []
    t = g.table
    for a, b, c in iter_product(range(1, n), repeat=3):
        row = np.zeros(nv, dtype=np.int64)
        ab, bc = int(t[a, b]), int(t[b, c])
        row[_pair_index(n, a, b)] += 1
        if ab:
            row[_pair_index(n, ab, c)] += 1
        row[_pair_index(n, b, c)] -= 1
        if bc:
            row[_pair_index(n, a, bc)] -= 1
        rows.append(row % p)
    return np.array(rows, dtype=np.int64)


def _coboundary_rows(g: FiniteGroup, p: int) -> np.ndarray:
    n = g.order
    nv = (n - 1) * (n - 1)
    rows = np.zeros((n - 1, nv), dtype=np.int64)
    for gidx in range(1, n):
        for x in range(1, n):
            for y in range(1, n):
                val = (x == gidx) + (y == gidx) - (int(g.table[x, y]) == gidx)
                rows[gidx - 1, _pair_index(n, x, y)] = val % p
    return rows % p


def h2_dim(g: FiniteGroup, p: int) -> int:
    """dim H^2(G, F_p) with trivial action, by rank counting."""
    nv = (g.order - 1) ** 2
    z2 = nv - _rank_mod(_cocycle_matrix(g, p), p)
    b2 = _rank_mod(_coboundary_rows(g, p), p)
    return z2 - b2


@dataclass
class H2Space:
    """Explicit H^2(G, F_p): coboundary basis plus chosen representatives."""

    group: FiniteGroup
    p: int
    b_basis: np.ndarray = field(init=False)
    reps: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g, p = self.group, self.p
        z = kernel_basis(_cocycle_matrix(g, p), p)
        self.b_basis = row_space_basis(_coboundary_rows(g, p), p)
        picked = []
        current = self.b_basis
        for v in z:
            if not in_span(current, v, p):
                picked.append(v)
                current = row_space_basis(
                    np.vstack([current, v[None, :]]) if len(current) else v[None, :],
                    p,
                )
        nv = (g.order - 1) ** 2
        self.reps = (
            np.array(picked, dtype=np.int64)
            if picked else np.zeros((0, nv), dtype=np.int64)
        )

    @property
    def dim(self) -> int:
        return len(self.reps)

    def cochain_of_pairs(self, fn) -> np.ndarray:
        """Vectorize fn(x, y) over nonidentity pairs."""
        n = self.group.order
        out = np.zeros((n - 1) * (n - 1), dtype=np.int64)
        for x in range(1, n):
            for y in range(1, n):
                out[_pair_index(n, x, y)] = fn(x, y) % self.p
        return out

    def coords(self, cvec: np.ndarray) -> np.ndarray:
        """Coordinates of a cocycle in the chosen H^2 basis."""
        stacked = np.vstack([self.b_basis, self.reps]) if self.dim or len(self.b_basis) \
            else np.zeros((0, len(cvec)), dtype=np.int64)
        x = solve(stacked.T % self.p, np.asarray(cvec) % self.p, self.p)
        if x is None:
            raise ValidationError("the cochain is not a cocycle")
        return x[len(self.b_basis):] % self.p


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
        for i in range(n):
            for j in range(n):
                if (a[int(g.table[i, j])] - a[i] - a[j]) % p:
                    raise NotAHomomorphism("not additive on some pair")
    if space is None:
        space = H2Space(g, p)
    cvec = space.cochain_of_pairs(lambda x, y: int(f[x]) * int(h[y]))
    return space.coords(cvec)


# ---------------------------------------------------------------------------
# extension classes


def _validate_kernel(e: FiniteGroup, kernel: list[int], p: int) -> int:
    kset = [int(x) for x in kernel]
    if sorted(kset) != sorted(set(kset)) or 0 not in kset:
        raise ValidationError("the kernel must be a subgroup containing 0")
    if len(kset) != p:
        raise ValidationError(f"the kernel must have order {p}")
    for x in kset:
        for y in kset:
            if int(e.table[x, y]) not in kset:
                raise ValidationError("the kernel is not closed")
    for k in kset:
        for x in range(e.order):
            if int(e.table[k, x]) != int(e.table[x, k]):
                raise KernelNotCentral(
                    f"element {k} does not commute with {x}"
                )
    gen = next(x for x in kset if x)
    if p > 2:
        # must be cyclic of order p; any nonidentity element generates
        acc, count = gen, 1
        while acc != 0:
            acc = int(e.table[acc, gen])
            count += 1
        if count != p:
            raise ValidationError("the kernel is not cyclic of order p")
    return gen


def default_section(e: FiniteGroup, proj: np.ndarray) -> np.ndarray:
    m = int(proj.max()) + 1
    sec = np.zeros(m, dtype=np.int64)
    for c in range(m):
        sec[c] = int(np.nonzero(proj == c)[0][0])
    return sec


def extension_class(e: FiniteGroup, kernel: list[int], p: int,
                    section: np.ndarray | None = None,
                    space: H2Space | None = None):
    """Class of a central extension of G = E/N by N = Z/p in H^2(G, F_p).

    Returns (quotient group, coordinate vector).  The class does not
    depend on the chosen section; sections must lift the identity to 0.
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
        for c in range(q.order):
            if int(proj[sec[c]]) != c:
                raise ValidationError("the section does not split the projection")
        if sec[0] != 0:
            raise ValidationError("the section must lift the identity to 0")
    if space is None:
        space = H2Space(q, p)

    def factor_set(x: int, y: int) -> int:
        lx, ly = int(sec[x]), int(sec[y])
        lxy = int(sec[int(q.table[x, y])])
        val = int(e.table[int(e.table[lx, ly]), e.inverse(lxy)])
        if val not in dlog:
            raise ValidationError("factor set leaves the kernel")
        return dlog[val]

    return q, space.coords(space.cochain_of_pairs(factor_set))

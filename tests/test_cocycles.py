import random
from functools import reduce
from itertools import combinations
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etkit.cocycles import (
    H2Space,
    FiniteGroup,
    cup_h1_h1,
    cyclic,
    default_section,
    dihedral,
    direct_product,
    extension_class,
    group_from_json,
    h1_basis,
    h1_dim,
    h2_dim,
    klein4,
    quotient,
    subgroup_closure,
)
from etkit.errors import (
    KernelNotCentral,
    NotAHomomorphism,
    OrderBound,
    ValidationError,
)
from dense_fp import in_span, kernel_basis, rank, solve
from group_oracle import commutator_subgroup, h1_dim_structural, inverse, power
from etkit.fplinear import (
    dense_row,
    echelon_insert,
    echelon_kernel,
    echelon_reduce,
    sparse_row,
)

D4 = dihedral(8)
# index i + 4j encodes r^i s^j
BETA = np.array([(x % 4) % 2 for x in range(8)])
EPS = np.array([x // 4 for x in range(8)])


def test_table_validation():
    with pytest.raises(ValidationError):
        FiniteGroup(np.array([[0, 1], [1, 1]]))  # column not a permutation
    with pytest.raises(ValidationError):
        FiniteGroup(np.array([[1, 0], [0, 1]]))  # identity not at 0
    t = cyclic(5).table.copy()
    t[2, 3], t[2, 4] = t[2, 4], t[2, 3]
    with pytest.raises(ValidationError):
        FiniteGroup(t)  # permutation rows, broken associativity
    with pytest.raises(OrderBound):
        cyclic(33)


def test_builtins_shapes():
    assert cyclic(6).order == 6
    assert D4.order == 8
    assert D4.name == "D4"
    assert klein4().order == 4
    assert direct_product(cyclic(2), cyclic(3)).order == 6
    # r has order 4, s has order 2, rs has order 2
    assert power(D4, 1, 4) == 0 and power(D4, 1, 2) != 0
    assert power(D4, 4, 2) == 0
    assert power(D4, 5, 2) == 0
    assert inverse(D4, 1) == 3


def test_group_from_json():
    assert group_from_json({"kind": "cyclic", "n": 4}).order == 4
    assert group_from_json({"kind": "dihedral", "order": 8}).table.tolist() \
        == D4.table.tolist()
    assert group_from_json({"kind": "klein4"}).order == 4
    g = group_from_json({"kind": "product",
                         "factors": [{"kind": "cyclic", "n": 2},
                                     {"kind": "cyclic", "n": 2}]})
    assert g.table.tolist() == klein4().table.tolist()
    g = group_from_json({"kind": "table", "table": cyclic(3).table.tolist()})
    assert g.order == 3
    with pytest.raises(ValidationError):
        group_from_json({"n": 4})


def test_subgroups_and_quotient():
    assert subgroup_closure(D4, [2]) == [0, 2]
    assert sorted(subgroup_closure(D4, [1])) == [0, 1, 2, 3]
    assert commutator_subgroup(D4) == [0, 2]
    q, proj = quotient(D4, [0, 2])
    assert q.order == 4 and proj.tolist() == [0, 1, 0, 1, 2, 3, 2, 3]
    assert h1_dim(q, 2) == 2  # the quotient is a Klein four group
    with pytest.raises(ValidationError):
        quotient(D4, [0, 4])  # <s> is not normal


def test_h1_two_routes():
    groups = [cyclic(n) for n in (2, 3, 4, 6, 8, 9, 12, 16)]
    groups += [D4, dihedral(12), dihedral(16), klein4(),
               direct_product(cyclic(4), cyclic(2)),
               direct_product(cyclic(3), cyclic(3))]
    for g in groups:
        for p in (2, 3):
            assert h1_dim(g, p) == h1_dim_structural(g, p), (g.name, p)


def test_h1_basis_values():
    basis = h1_basis(cyclic(4), 2)
    assert len(basis) == 1
    assert basis[0].tolist() == [0, 1, 0, 1]


def test_h2_checkpoints():
    assert h2_dim(cyclic(2), 2) == 1
    assert h2_dim(cyclic(4), 2) == 1
    assert h2_dim(D4, 2) == 3
    assert h2_dim(cyclic(5), 2) == 0
    assert h2_dim(cyclic(6), 3) == 1
    assert h2_dim(klein4(), 2) == 3


def test_h2_at_the_order_limit():
    assert h2_dim(dihedral(32), 2) == 3
    assert h2_dim(cyclic(27), 3) == 1


def test_kunneth():
    for a, b, p in [(cyclic(2), cyclic(2), 2), (cyclic(4), cyclic(2), 2),
                    (cyclic(3), cyclic(3), 3), (cyclic(2), cyclic(4), 2)]:
        lhs = h2_dim(direct_product(a, b), p)
        rhs = h2_dim(a, p) + h1_dim(a, p) * h1_dim(b, p) + h2_dim(b, p)
        assert lhs == rhs, (a.name, b.name, p)


def test_cup_squares():
    x = np.array([0, 1])
    assert cup_h1_h1(cyclic(2), 2, x, x).tolist() == [1]
    xbar = np.array([0, 1, 0, 1])
    assert cup_h1_h1(cyclic(4), 2, xbar, xbar).tolist() == [0]


def test_dihedral_identity():
    got = cup_h1_h1(D4, 2, BETA, (EPS + BETA) % 2)
    assert got.tolist() == [0, 0, 0]
    # beta squared alone is nonzero, the identity needs the eps twist
    assert cup_h1_h1(D4, 2, BETA, BETA).any()


def test_cup_validation_and_bilinearity():
    with pytest.raises(NotAHomomorphism):
        cup_h1_h1(cyclic(4), 2, np.array([0, 1, 1, 1]), np.array([0, 1, 0, 1]))
    with pytest.raises(NotAHomomorphism):
        cup_h1_h1(cyclic(2), 2, np.array([1, 0]), np.array([0, 1]))
    space = H2Space(D4, 2)
    rng = random.Random(5)
    homs = [row for row in h1_basis(D4, 2)]
    for _ in range(10):
        f = sum(rng.randrange(2) * h for h in homs) % 2
        g = sum(rng.randrange(2) * h for h in homs) % 2
        h = sum(rng.randrange(2) * h for h in homs) % 2
        left = cup_h1_h1(D4, 2, (f + g) % 2, h, space)
        right = (cup_h1_h1(D4, 2, f, h, space)
                 + cup_h1_h1(D4, 2, g, h, space)) % 2
        assert np.array_equal(left, right)
        # commutative in every degree at p = 2
        assert np.array_equal(cup_h1_h1(D4, 2, f, h, space),
                              cup_h1_h1(D4, 2, h, f, space))


def test_cup_anticommutes_odd_p():
    g = direct_product(cyclic(3), cyclic(3))
    space = H2Space(g, 3)
    basis = h1_basis(g, 3)
    assert len(basis) == 2
    f, h = basis[0], basis[1]
    fh = cup_h1_h1(g, 3, f, h, space)
    hf = cup_h1_h1(g, 3, h, f, space)
    assert np.array_equal(fh, (-hf) % 3)
    assert fh.any()
    assert not cup_h1_h1(g, 3, f, f, space).any()


def test_cup_c3_c9_coordinates():
    # index x encodes (x // 9, x mod 9); phi reads C3, psi reads C9 mod 3
    g = direct_product(cyclic(3), cyclic(9))
    space = H2Space(g, 3)
    phi = np.array([x // 9 for x in range(27)])
    psi = np.array([x % 9 % 3 for x in range(27)])
    assert space.dim == 3
    assert cup_h1_h1(g, 3, phi, psi, space).tolist() == [1, 2, 0]
    assert cup_h1_h1(g, 3, psi, phi, space).tolist() == [2, 1, 0]


def test_extension_class_values():
    q, coords = extension_class(cyclic(4), [0, 2], 2)
    assert q.order == 2
    x = np.array([0, 1])
    assert coords.tolist() == cup_h1_h1(q, 2, x, x).tolist() == [1]

    q, coords = extension_class(klein4(), [0, 1], 2)
    assert q.order == 2 and coords.tolist() == [0]  # split extension

    q, coords = extension_class(D4, [0, 2], 2)
    assert q.order == 4
    space = H2Space(q, 2)
    bbar = np.array([0, 1, 0, 1])
    ebar = np.array([0, 0, 1, 1])
    expect = cup_h1_h1(q, 2, bbar, (bbar + ebar) % 2, space)
    assert coords.tolist() == expect.tolist() == [0, 1, 0]

    q, coords = extension_class(cyclic(9), [0, 3, 6], 3)
    assert q.order == 3 and coords.any()


def test_extension_class_section_independence():
    rng = random.Random(6)
    q, proj = quotient(D4, [0, 2])
    base = default_section(D4, proj)
    space = H2Space(q, 2)
    _, expect = extension_class(D4, [0, 2], 2, space=space)
    for _ in range(8):
        sec = base.copy()
        for c in range(1, q.order):
            lifts = np.nonzero(proj == c)[0]
            sec[c] = int(rng.choice(list(lifts)))
        _, got = extension_class(D4, [0, 2], 2, section=sec, space=space)
        assert got.tolist() == expect.tolist()


def _small_groups():
    """The cyclic, dihedral and cyclic-product groups up to order 32."""
    yield from (cyclic(n) for n in range(2, 33))
    yield from (dihedral(n) for n in range(4, 33, 2))
    for a in range(2, 6):
        for b in range(a, 32 // a + 1):
            yield direct_product(cyclic(a), cyclic(b))


@pytest.mark.parametrize("p", [2, 3])
def test_central_kernels_are_cyclic_and_hold_the_factor_set(p):
    """What ``extension_class`` takes on trust: every central subgroup
    of order p, found as a closed p-subset holding 0, is generated by each
    of its nonidentity elements, and the factor set of a random section
    takes its values in it."""
    rng = random.Random(p)
    kernels = 0
    for g in _small_groups():
        inv = np.argmax(g.table == 0, axis=1)
        central = [k for k in range(1, g.order) if (g.table[k] == g.table[:, k]).all()]
        for rest in combinations(central, p - 1):
            kset = [0, *rest]
            if not np.isin(g.table[np.ix_(kset, kset)], kset).all():
                continue
            kernels += 1
            for x in rest:
                assert sorted(subgroup_closure(g, [x])) == kset
            q, proj = quotient(g, kset)
            sec = np.array([0] + [rng.choice(np.flatnonzero(proj == c).tolist())
                                  for c in range(1, q.order)])
            lift = g.table[sec[:, None], sec[None, :]]
            values = g.table[lift, inv[sec[q.table]]]
            assert np.isin(values, kset).all()
    assert kernels >= 30  # 73 at p = 2, 34 at p = 3


def test_extension_class_rejections():
    with pytest.raises(KernelNotCentral):
        extension_class(D4, [0, 4], 2)  # <s> is not central
    with pytest.raises(ValidationError):
        extension_class(D4, [0, 1], 2)  # not closed
    with pytest.raises(ValidationError):
        extension_class(cyclic(4), [0, 2], 3)  # wrong kernel order
    with pytest.raises(ValidationError):
        sec = np.array([1, 0])
        extension_class(cyclic(4), [0, 2], 2, section=sec)


# ---------------------------------------------------------------------------
# the (n-1)^3 cocycle conditions, kept as the oracle of the Cayley graph
# route: dense elimination up to order 16, the sparse echelon above


def _pair_index(n, x, y):
    return (x - 1) * (n - 1) + (y - 1)


def _cocycle_matrix(g, p):
    """Dense rows of the normalized 2-cocycle condition on c(x, y)."""
    n = g.order
    rows = []
    t = g.table
    for a, b, c in iter_product(range(1, n), repeat=3):
        row = np.zeros((n - 1) ** 2, dtype=np.int64)
        ab, bc = int(t[a, b]), int(t[b, c])
        row[_pair_index(n, a, b)] += 1
        if ab:
            row[_pair_index(n, ab, c)] += 1
        row[_pair_index(n, b, c)] -= 1
        if bc:
            row[_pair_index(n, a, bc)] -= 1
        rows.append(row % p)
    return np.array(rows, dtype=np.int64).reshape(len(rows), (n - 1) ** 2)


def _cocycle_rows(g, p):
    """Sparse rows of the normalized 2-cocycle condition
    c(a,b) + c(ab,c) - c(b,c) - c(a,bc) = 0, one per nonidentity (a, b, c),
    on variables c(x, y) over nonidentity pairs."""
    n = g.order
    t = g.table.tolist()
    for a, b, c in iter_product(range(1, n), repeat=3):
        ab, bc = t[a][b], t[b][c]
        row = {}
        for x, y, v in ((a, b, 1), (ab, c, 1), (b, c, -1), (a, bc, -1)):
            if x and y:  # normalized: c vanishes on pairs with an identity
                k = _pair_index(n, x, y)
                row[k] = row.get(k, 0) + v
        yield sparse_row(row, p)


def _coboundary_rows(g, p):
    n = g.order
    rows = np.zeros((n - 1, (n - 1) ** 2), dtype=np.int64)
    for gidx in range(1, n):
        for x in range(1, n):
            for y in range(1, n):
                val = (x == gidx) + (y == gidx) - (int(g.table[x, y]) == gidx)
                rows[gidx - 1, _pair_index(n, x, y)] = val % p
    return rows


def _dense_reps(z, b_rows, p):
    """The greedy pick: each Z^2 basis vector outside the span of B^2 and
    of the vectors picked before it."""
    picked, current = [], b_rows
    for v in z:
        if not in_span(current, v, p):
            picked.append(v)
            current = np.vstack([current, v[None, :]])
    return np.array(picked, dtype=np.int64).reshape(len(picked), b_rows.shape[1])


DENSE_LIMIT = 16


class _OracleSpace:
    """H^2 from the cocycle conditions, in the form ``cup_h1_h1`` and
    ``extension_class`` take as their ``space``.  ``coords`` gives None
    for a cochain that is not a cocycle."""

    def __init__(self, g, p):
        self.group, self.p = g, p
        n = g.order
        nv = (n - 1) ** 2
        b_rows = _coboundary_rows(g, p)
        self.b_rank = rank(b_rows, p)
        if n <= DENSE_LIMIT:
            z = kernel_basis(_cocycle_matrix(g, p), p)
            self.reps = _dense_reps(z, b_rows, p)
            stacked = np.vstack([b_rows, self.reps])

            def coords(cvec):
                x = solve(stacked.T, cvec, p)
                # B^2 is spanned by rows that may be dependent, so only the
                # representatives' part of x is unique
                return None if x is None else x[len(b_rows):] % p
        else:
            cocycles, echelon, picked = {}, {}, []
            for row in _cocycle_rows(g, p):
                echelon_insert(cocycles, row, p)
            z = echelon_kernel(cocycles, nv, p)
            for row in b_rows:
                echelon_insert(echelon, sparse_row(row, p), p)
            # the k-th pick carries a 1 in column nv + k, which the
            # reduction carries along: it records which picks a row combines
            width = nv + len(z)
            for v in z:
                tagged = np.zeros(width, dtype=np.int64)
                tagged[:nv], tagged[nv + len(picked)] = v, 1
                rest = echelon_reduce(echelon, sparse_row(tagged, p), p)
                if dense_row(rest, width, p)[:nv].any():
                    echelon_insert(echelon, rest, p)
                    picked.append(v)
            self.reps = np.array(picked, dtype=np.int64).reshape(len(picked), nv)

            def coords(cvec):
                rest = dense_row(echelon_reduce(echelon, sparse_row(cvec, p), p), width, p)
                # the reduction subtracted the rows that sum to the cochain
                return None if rest[:nv].any() else -rest[nv:nv + len(picked)] % p
        self.z_dim = len(z)
        self.coords = coords

    def cochain_of_pairs(self, fn):
        n = self.group.order
        out = np.zeros((n - 1) ** 2, dtype=np.int64)
        for x in range(1, n):
            for y in range(1, n):
                out[_pair_index(n, x, y)] = fn(x, y) % self.p
        return out


def _h1_oracle(g, p):
    """Hom(G, F_p) from all n^2 conditions f(x) + f(y) - f(xy) = 0."""
    n = g.order
    eye = np.eye(n, dtype=np.int64)
    rows = (eye[:, None, :] + eye[None, :, :] - eye[g.table]).reshape(n * n, n)
    return kernel_basis(rows % p, p)


def _relabel(g, rng):
    n = g.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    t = [[perm[int(g.table[inv[i], inv[j]])] for j in range(n)] for i in range(n)]
    return group_from_json({"kind": "table", "table": t})


def _table(elements, mul):
    index = {e: i for i, e in enumerate(elements)}
    t = [[index[mul(x, y)] for y in elements] for x in elements]
    return group_from_json({"kind": "table", "table": t})


def quaternion8():
    # +-1, +-i, +-j, +-k as (sign, unit); ij = k, jk = i, ki = j
    units = {(0, 0): (1, 0), (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
             (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
             (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}
    for u in range(1, 4):
        units[0, u] = units[u, 0] = (1, u)

    def mul(x, y):
        sign, unit = units[x[1], y[1]]
        return x[0] * y[0] * sign, unit

    return _table([(s, u) for u in range(4) for s in (1, -1)], mul)


def heisenberg3():
    """Upper unitriangular 3x3 matrices over F_3, order 27, exponent 3."""
    return _table(list(iter_product(range(3), repeat=3)),
                  lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3,
                                (x[2] + y[2] + x[0] * y[1]) % 3))


def c9_semi_c3():
    """C9 x| C3 with b a b^-1 = a^4: order 27, exponent 9; a^i b^j is (i, j)."""
    return _table([(i, j) for j in range(3) for i in range(9)],
                  lambda x, y: ((x[0] + y[0] * 4 ** x[1]) % 9, (x[1] + y[1]) % 3))


def _elementary2(k):
    return reduce(direct_product, [cyclic(2)] * k)


# groups that need 3 to 5 generators, up to the order limit
WIDE_GROUPS = {
    "C2^3": lambda: _elementary2(3),
    "C2^4": lambda: _elementary2(4),
    "C2^5": lambda: _elementary2(5),
    "C2xC2xC4": lambda: direct_product(klein4(), cyclic(4)),
    "Q8": quaternion8,
    "Heis3": heisenberg3,
    "C9:C3": c9_semi_c3,
}


@st.composite
def oracle_groups(draw):
    kind = draw(st.sampled_from(["cyclic", "dihedral", "product", "wide", "wide"]))
    if kind == "cyclic":
        g = cyclic(draw(st.integers(2, 16)))
    elif kind == "dihedral":
        g = dihedral(2 * draw(st.integers(2, 8)))
    elif kind == "product":
        a = draw(st.integers(2, 4))
        g = direct_product(cyclic(a), cyclic(draw(st.integers(2, 16 // a))))
    else:
        g = WIDE_GROUPS[draw(st.sampled_from(sorted(WIDE_GROUPS)))]()
    if draw(st.booleans()):
        g = _relabel(g, random.Random(draw(st.integers(0, 2**32))))
    return g, draw(st.sampled_from([2, 3])), draw(st.integers(0, 2**32))


def _central_kernel(g, p):
    """A central subgroup of order p, or None."""
    for k in range(1, g.order):
        if power(g, k, p) == 0 and (g.table[k] == g.table[:, k]).all():
            return subgroup_closure(g, [k])
    return None


def _assert_matches_oracle(g, p, rng):
    n = g.order
    oracle = _OracleSpace(g, p)
    homs = h1_basis(g, p)
    assert np.array(homs).tobytes() == np.array(_h1_oracle(g, p)).tobytes()
    assert oracle.b_rank == (n - 1) - len(homs)
    assert h2_dim(g, p) == oracle.z_dim - oracle.b_rank

    space = H2Space(g, p)
    reps = oracle.reps
    assert space.reps.dtype == reps.dtype and space.reps.shape == reps.shape
    assert space.reps.tobytes() == reps.tobytes()

    def random_hom():
        zero = np.zeros(n, dtype=np.int64)
        return sum((rng.randrange(p) * v for v in homs), zero) % p

    for _ in range(4):
        f, h = random_hom(), random_hom()
        assert (cup_h1_h1(g, p, f, h, space).tolist()
                == cup_h1_h1(g, p, f, h, oracle).tolist())
    # a unit cochain is a cocycle exactly when the oracle has coordinates
    for i in rng.sample(range((n - 1) ** 2), min(3, (n - 1) ** 2)):
        e = np.zeros((n - 1) ** 2, dtype=np.int64)
        e[i] = 1
        expect = oracle.coords(e)
        if expect is None:
            with pytest.raises(ValidationError, match="not a cocycle"):
                space.coords(e)
        else:
            assert space.coords(e).tolist() == expect.tolist()

    kernel = _central_kernel(g, p)
    if kernel is not None:
        q, got = extension_class(g, kernel, p)
        _, expect = extension_class(g, kernel, p, space=_OracleSpace(q, p))
        assert got.tolist() == expect.tolist()


@settings(max_examples=25)
@given(oracle_groups())
@example((dihedral(32), 2, 0))
@example((_elementary2(5), 3, 1))
@example((_relabel(heisenberg3(), random.Random(2)), 3, 2))
@example((c9_semi_c3(), 3, 3))
@example((_relabel(_elementary2(5), random.Random(4)), 2, 4))
@example((_relabel(WIDE_GROUPS["C2xC2xC4"](), random.Random(5)), 2, 5))
@example((quaternion8(), 2, 6))
def test_cayley_route_matches_cocycle_oracle(data):
    g, p, seed = data
    _assert_matches_oracle(g, p, random.Random(seed))


@pytest.mark.parametrize("n, p, homs, h2, reps, width", [
    pytest.param(1, 2, [], 0, [], 0, id="C1-p2"),
    pytest.param(1, 3, [], 0, [], 0, id="C1-p3"),
    pytest.param(2, 2, [[0, 1]], 1, [[1]], 1, id="C2-p2"),
    pytest.param(2, 3, [], 0, [], 1, id="C2-p3"),
    pytest.param(3, 2, [], 0, [], 4, id="C3-p2"),
    pytest.param(3, 3, [[0, 2, 1]], 1, [[1, 1, 1, 0]], 4, id="C3-p3"),
])
def test_smallest_groups(n, p, homs, h2, reps, width):
    # the trivial group has no generators: only the row f(1) = 0 keeps
    # H^1 and H^2 at zero there
    g = cyclic(n)
    assert [v.tolist() for v in h1_basis(g, p)] == homs
    assert h2_dim(g, p) == h2
    space = H2Space(g, p)
    assert space.reps.tolist() == reps and space.reps.shape == (len(reps), width)
    _assert_matches_oracle(g, p, random.Random(n))

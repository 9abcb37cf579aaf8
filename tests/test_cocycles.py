import random
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit.cocycles import (
    H2Space,
    FiniteGroup,
    _cocycle_rows,
    commutator_subgroup,
    cup_h1_h1,
    cyclic,
    default_section,
    dihedral,
    direct_product,
    extension_class,
    group_from_json,
    h1_basis,
    h1_dim,
    h1_dim_structural,
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
from etkit.fplinear import echelon_insert

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
    assert D4.power(1, 4) == 0 and D4.power(1, 2) != 0
    assert D4.power(4, 2) == 0
    assert D4.power(5, 2) == 0
    assert D4.inverse(1) == 3


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
# the dense route, kept as the oracle of the echelon one


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
    return np.array(rows, dtype=np.int64).reshape(-1, (n - 1) ** 2)


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
    return np.array(picked, dtype=np.int64).reshape(-1, b_rows.shape[1])


def _relabel(g, rng):
    n = g.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    t = [[perm[int(g.table[inv[i], inv[j]])] for j in range(n)] for i in range(n)]
    return group_from_json({"kind": "table", "table": t})


@st.composite
def oracle_groups(draw):
    kind = draw(st.sampled_from(["cyclic", "dihedral", "product"]))
    if kind == "cyclic":
        g = cyclic(draw(st.integers(2, 16)))
    elif kind == "dihedral":
        g = dihedral(2 * draw(st.integers(2, 8)))
    else:
        a = draw(st.integers(2, 4))
        g = direct_product(cyclic(a), cyclic(draw(st.integers(2, 16 // a))))
    if draw(st.booleans()):
        g = _relabel(g, random.Random(draw(st.integers(0, 2**32))))
    return g, draw(st.sampled_from([2, 3])), draw(st.integers(0, 2**32))


@settings(max_examples=25)
@given(oracle_groups())
def test_echelon_route_matches_dense(data):
    g, p, seed = data
    n, rng = g.order, random.Random(seed)
    cocycle_matrix = _cocycle_matrix(g, p)
    b_rows = _coboundary_rows(g, p)
    z_rank = rank(cocycle_matrix, p)
    b_rank = rank(b_rows, p)

    basis = {}
    for row in _cocycle_rows(g, p):
        echelon_insert(basis, row, p)
    assert len(basis) == z_rank
    assert b_rank == (n - 1) - h1_dim(g, p)
    assert h2_dim(g, p) == (n - 1) ** 2 - z_rank - b_rank

    space = H2Space(g, p)
    z = kernel_basis(cocycle_matrix, p)
    reps = _dense_reps(z, b_rows, p)
    assert space.reps.dtype == reps.dtype and space.reps.shape == reps.shape
    assert space.reps.tobytes() == reps.tobytes()

    stacked = np.vstack([b_rows, reps])
    homs = h1_basis(g, p)

    def random_hom():
        zero = np.zeros(n, dtype=np.int64)
        return sum((rng.randrange(p) * v for v in homs), zero) % p

    for _ in range(4):
        f, h = random_hom(), random_hom()
        cvec = space.cochain_of_pairs(lambda x, y: int(f[x]) * int(h[y]))
        x = solve(stacked.T, cvec, p)
        # B^2 is spanned by rows that may be dependent, so only the
        # representatives' part of x is unique
        assert cup_h1_h1(g, p, f, h, space).tolist() == (x[len(b_rows):] % p).tolist()
    # a unit cochain is a cocycle exactly when its column of conditions is zero
    outside = [i for i in range((n - 1) ** 2) if cocycle_matrix[:, i].any()]
    if outside:
        e = np.zeros((n - 1) ** 2, dtype=np.int64)
        e[outside[0]] = 1
        with pytest.raises(ValidationError, match="not a cocycle"):
            space.coords(e)

import gc
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_fp
import dense_ring

from etkit import cohomology
from etkit.cohomology import (
    DemuskinVerdict,
    algebra_to_json,
    build_cohomology,
    dims_closed_form,
    is_demuskin,
    log_level_direct,
    log_level_recursive,
)
from etkit.errors import DegreeTooSmall, DimensionTooLarge, ValidationError
from etkit.pairs import Ext, normalize, parse, rank, theta_image
from randexpr import random_expr, random_padic

Q2 = "padic(n=3,case=II,f=2)"


def test_q2_algebra():
    alg = build_cohomology(parse(Q2, 2), 2, 3)
    assert alg.dims == [1, 3, 1, 0]
    assert alg.gram_matrix().tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert alg.eps.tolist() == [1, 0, 0]


def test_zblock_and_eblock():
    alg = build_cohomology(parse("Z(3)", 2), 2, 4)
    assert alg.dims == [1, 1, 0, 0, 0]
    assert alg.eps.tolist() == [1]
    alg = build_cohomology(parse("Z(5)", 2), 2, 4)
    assert alg.eps.tolist() == [0]
    alg = build_cohomology(parse("Z(7)", 3), 3, 4)
    assert alg.eps.tolist() == [0]
    alg = build_cohomology(parse("E", 2), 2, 5)
    assert alg.dims == [1] * 6
    v = alg.eps
    for d in range(1, 5):
        v = alg.cup(v, d, alg.eps, 1)
    assert v.tolist() == [1]  # eps^5 != 0


def test_free_product_dims_and_cross_products():
    alg = build_cohomology(parse("E * Z(5)", 2), 2, 3)
    assert alg.dims == [1, 2, 1, 1]
    assert alg.basis[1] == ("g1.x", "g2.x")  # Z factor sorts first
    x_z = [1, 0]
    x_e = [0, 1]
    # cross-factor products vanish
    assert alg.cup(x_e, 1, x_z, 1).tolist() == [0]
    assert alg.cup(x_e, 1, x_e, 1).tolist() == [1]
    assert alg.cup(x_z, 1, x_z, 1).tolist() == [0]


def test_ext_gram_values():
    alg = build_cohomology(parse("ext(1, Z(7))", 3), 3, 2)
    assert alg.dims[:3] == [1, 2, 1]
    assert alg.gram_matrix().tolist() == [[0, 1], [2, 0]]

    alg = build_cohomology(parse("ext(1, Z(3))", 2), 2, 2)
    assert alg.gram_matrix().tolist() == [[0, 1], [1, 1]]
    assert alg.eps.tolist() == [1, 0]

    alg = build_cohomology(parse("ext(2, Z(3))", 2), 2, 2)
    assert alg.dims == [1, 3, 3]

    alg = build_cohomology(parse("ext(2, triv)", 3), 3, 4)
    assert alg.dims == [1, 2, 1, 0, 0]


def test_degree_too_small():
    with pytest.raises(DegreeTooSmall):
        build_cohomology(parse("E", 2), 2, 1)


def test_basis_bound(monkeypatch):
    e = parse("ext(6,triv)", 3)
    count = sum(dims_closed_form(normalize(e, 3), 3, 6))  # 2^6
    monkeypatch.setattr(cohomology, "MAX_BASIS", count)
    assert sum(build_cohomology(e, 3, 6).dims) == count
    monkeypatch.setattr(cohomology, "MAX_BASIS", count - 1)
    with pytest.raises(DimensionTooLarge):
        build_cohomology(e, 3, 6)
    # (rank + 1) x (max degree + 1) is refused before the count: E has
    # 41 classes up to degree 40, but 2 x 41 > 63
    with pytest.raises(DimensionTooLarge):
        build_cohomology(parse("E", 2), 2, 40)
    assert build_cohomology(parse("E", 2), 2, 30).dims == [1] * 31


def test_equal_normal_forms_share_one_ring():
    # the two orders normalize alike, so the second build is the first ring
    a, b = parse("E * Z(5)", 2), parse("Z(5) * E", 2)
    assert a != b and normalize(a, 2) == normalize(b, 2)
    alg = build_cohomology(a, 2, 3)
    assert build_cohomology(b, 2, 3) is alg
    # another degree, p or form is another ring
    for text, p, D in [("E * Z(5)", 2, 4), ("E * Z(13)", 2, 3), ("ext(2,triv)", 2, 3)]:
        other = build_cohomology(parse(text, p), p, D)
        assert other is not alg and other.max_degree == D
    two = build_cohomology(parse("ext(2,triv)", 3), 3, 3)
    assert two is not other and two.p == 3
    # equal rings under unequal keys only miss the memo
    z3 = build_cohomology(parse("Z(3)", 2), 2, 2)
    z5 = build_cohomology(parse("Z(-5)", 2), 2, 2)
    assert z3 is not z5
    assert z3.basis == z5.basis and z3.eps.tolist() == z5.eps.tolist() == [1]


def test_shared_ring_eps_is_read_only():
    alg = build_cohomology(parse("E * Z(5)", 2), 2, 3)
    with pytest.raises(ValueError):
        alg.eps[0] = 0
    assert build_cohomology(parse("Z(5) * E", 2), 2, 3).eps.tolist() == [0, 1]


def test_json_shape():
    j = algebra_to_json(build_cohomology(parse(Q2, 2), 2, 2))
    assert j["dims"] == [1, 3, 1]
    assert j["gram"] == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert j["eps"] == [1, 0, 0]
    assert j["basis"][1] == ["x1", "x2", "x3"]


def test_dims_closed_form_matches_build():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice([2, 3])
        e = random_expr(rng, p, max_rank=8)
        alg = build_cohomology(e, p, 5)
        assert dims_closed_form(e, p, 5) == alg.dims, e
        # the bound under which the basis check skips the count
        assert sum(alg.dims) <= 6 * 2 ** rank(e), e


def test_ext_iteration_dims():
    rng = random.Random(8)
    for _ in range(25):
        p = rng.choice([2, 3])
        base = random_expr(rng, p, max_rank=4)
        m = rng.choice([2, 3])
        iterated = base
        for _ in range(m):
            iterated = Ext(1, iterated)
        assert dims_closed_form(Ext(m, base), p, 5) == \
            dims_closed_form(iterated, p, 5)
        # the built algebra agrees with the convolution route
        alg = build_cohomology(Ext(m, base), p, 4)
        assert alg.dims == dims_closed_form(iterated, p, 4)


def test_associativity_sampled():
    rng = random.Random(9)
    for _ in range(8):
        p = rng.choice([2, 3])
        e = random_expr(rng, p, max_rank=5)
        alg = build_cohomology(e, p, 4)
        dims = alg.dims
        for _ in range(60):
            picks = []
            for _ in range(3):
                d = rng.choice([d for d in range(1, 3) if dims[d]])
                picks.append((d, rng.randrange(dims[d])))
            (d1, i), (d2, j), (d3, k) = picks
            if d1 + d2 + d3 > 4:
                continue
            left = alg.cup(alg.product(d1, i, d2, j), d1 + d2,
                           _unit(dims[d3], k), d3)
            right = alg.cup(_unit(dims[d1], i), d1,
                            alg.product(d2, j, d3, k), d2 + d3)
            assert np.array_equal(left, right)


def _unit(n, k):
    v = np.zeros(n, dtype=np.int64)
    v[k] = 1
    return v


def test_beta_square_rule():
    rng = random.Random(10)
    for _ in range(25):
        p = rng.choice([2, 3])
        e = random_expr(rng, p, max_rank=5)
        if not isinstance(e, Ext):
            e = normalize(Ext(1, e), p)
        if not isinstance(e, Ext):
            continue
        alg = build_cohomology(e, p, 3)
        labels = alg.basis[1]
        for l, lbl in enumerate(labels):
            if not (lbl.startswith("b") and "*" not in lbl and "(" not in lbl):
                continue
            beta = _unit(alg.dims[1], l)
            sq = alg.cup(beta, 1, beta, 1)
            if p == 2:
                expect = alg.cup(alg.eps, 1, beta, 1)
            else:
                expect = np.zeros(alg.dims[2], dtype=np.int64)
            assert np.array_equal(sq, expect), (e, lbl)


def test_is_demuskin_blocks():
    v = is_demuskin(parse("E", 2), 2)
    assert v.is_demuskin and v.n == 1 and v.q == 2 and v.case == "II"
    assert not is_demuskin(parse("Z(5)", 2), 2).is_demuskin
    assert not is_demuskin(parse("Z(7)", 3), 3).is_demuskin


def test_is_demuskin_recovers_parameters():
    rng = random.Random(12)
    for _ in range(80):
        p = rng.choice([2, 3])
        b = random_padic(rng, p)
        v = is_demuskin(b, p)
        assert v.is_demuskin
        assert (v.n, v.q, v.case) == (b.n, b.q, b.case), b


def test_demuskin_negatives():
    assert not is_demuskin(parse("E * E", 2), 2).is_demuskin
    assert not is_demuskin(parse(f"{Q2} * Z(5)", 2), 2).is_demuskin
    rng = random.Random(13)
    count = 0
    while count < 25:
        p = rng.choice([2, 3])
        e = random_expr(rng, p, max_rank=6)
        if not isinstance(e, Ext) or rank(e) < 3:
            continue
        count += 1
        assert not is_demuskin(e, p).is_demuskin, e


def _is_demuskin_ring(e, p):
    """The ring route: build the degree-2 model and rank its gram."""
    ne = normalize(e, p)
    alg = build_cohomology(ne, p, 2)
    n = alg.dims[1]
    inv = theta_image(ne, p)
    q = inv.q_invariant
    ok = alg.dims[2] == 1 and n >= 1
    if ok:
        ok = dense_fp.rank(alg.gram_matrix(), p) == n
    if not ok:
        return DemuskinVerdict(False, n, q, None)
    return DemuskinVerdict(True, n, q, cohomology._classify(p, q, n, inv.square_index))


def _drawn(text, p):
    return parse(text, p), p


@settings(max_examples=300)
@given(st.tuples(st.integers(0, 2**32), st.sampled_from([2, 3, 5])).map(
    lambda t: (random_expr(random.Random(t[0]), t[1], max_rank=10), t[1])))
# the Demuskin shapes: p-adic Cases I-IV, E, ext(1, Z) and ext(2, triv)
@example(_drawn("padic(n=4,q=4,case=I)", 2))
@example(_drawn("padic(n=4,q=3,case=I)", 3))
@example(_drawn("padic(n=6,q=5,case=I)", 5))
@example(_drawn(Q2, 2))
@example(_drawn("padic(n=4,case=III,f=3)", 2))
@example(_drawn("padic(n=4,case=IV,f=2)", 2))
@example(_drawn("E", 2))
@example(_drawn("ext(1,Z(5))", 2))
@example(_drawn("ext(1,Z(3))", 2))
@example(_drawn("ext(1,Z(7))", 3))
@example(_drawn("ext(2,triv)", 2))
@example(_drawn("ext(2,triv)", 3))
@example(_drawn("ext(2,triv)", 5))
# near misses: one more b, a Z base under two b's, E under one b (which
# normalizes to E * E), a p-adic base under one b, a Z factor beside a
# Demuskin block
@example(_drawn("ext(3,triv)", 2))
@example(_drawn("ext(2,Z(5))", 2))
@example(_drawn("ext(1,E)", 2))
@example(_drawn("ext(1,padic(n=3,case=II,f=2))", 2))
@example(_drawn(f"Z(5) * {Q2}", 2))
def test_is_demuskin_matches_ring_route(case):
    e, p = case
    assert is_demuskin(e, p) == _is_demuskin_ring(e, p), e


def test_is_demuskin_builds_no_ring(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(cohomology, "_build", refuse)
    monkeypatch.setattr(cohomology, "build_cohomology", refuse)
    assert is_demuskin(parse("ext(446,triv)", 2), 2) == \
        DemuskinVerdict(False, 446, 0, None)
    assert is_demuskin(parse(Q2, 2), 2).case == "II"
    # the degree-2 basis bound still refuses: 1 + 447 + C(447, 2) classes
    with pytest.raises(DimensionTooLarge):
        is_demuskin(parse("ext(447,triv)", 2), 2)


def test_log_level_values():
    assert log_level_recursive(parse("Z(5)", 2), 2) == 1
    assert log_level_recursive(parse("Z(3)", 2), 2) == 2
    assert log_level_recursive(parse(Q2, 2), 2) == 3
    assert log_level_recursive(parse("E", 2), 2) == math.inf
    assert log_level_recursive(parse("Z(7)", 3), 3) == 1

    assert log_level_direct(parse(Q2, 2), 2, 6) == 3
    assert log_level_direct(parse("E", 2), 2, 6) == ">6"


def test_log_level_two_routes():
    rng = random.Random(14)
    for _ in range(50):
        e = random_expr(rng, 2, max_rank=6)
        rec = log_level_recursive(e, 2)
        assert rec in (1, 2, 3, math.inf)
        direct = log_level_direct(e, 2, 6)
        if rec is math.inf:
            assert direct == ">6"
        else:
            assert direct == rec, e


def _assert_products_match(alg, want, e):
    p, D = alg.p, alg.max_degree
    for d1 in range(D + 1):
        for d2 in range(D + 1 - d1):
            for i in range(want.dims[d1]):
                for j in range(want.dims[d2]):
                    got = alg.product(d1, i, d2, j)
                    assert got.dtype == np.int64
                    assert got.tolist() == (want.mul(d1, i, d2, j) % p).tolist(), \
                        (e, d1, i, d2, j)


def _assert_matches_dense(e, p, D):
    """Every part of the ring model of ``e`` equals the dense oracle's.

    The products are compared twice: read off the degree-pair blocks, and
    with ``MAX_BLOCK_CELLS`` at 0, read off one marked row of the writer
    on a fresh ring (the memo could hand back a ring whose blocks are
    already built).
    Hypothesis refuses function-scoped fixtures, hence the patch here."""
    alg = build_cohomology(e, p, D)
    want = dense_ring._build(normalize(e, p), p, D)
    assert alg.dims == want.dims, e
    assert [list(row) for row in alg.basis] == want.labels, e
    assert alg.eps.tolist() == (want.eps % p).tolist(), e
    _assert_products_match(alg, want, e)
    with mock.patch.object(cohomology, "MAX_BLOCK_CELLS", 0):
        fresh = cohomology._ring.__wrapped__(normalize(e, p), p, D)
        _assert_products_match(fresh, want, e)
    # only the empty blocks, into degrees of dimension 0, are kept
    assert not any(block.shape[2] for block in fresh._cache.values()), e


@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.integers(2, 5))
def test_products_match_dense_oracle(seed, p, D):
    e = random_expr(random.Random(seed), p, max_rank=6)
    _assert_matches_dense(e, p, D)


@pytest.mark.parametrize("text, p, D", [
    # squares of monomials b_S with |S| >= 2 at p = 2 take several eps powers
    ("ext(2, E)", 2, 6),
    ("ext(3, Z(3))", 2, 6),
    ("ext(2, padic(n=3,case=II,f=2))", 2, 6),
    ("ext(3, Z(7)*ext(2, padic(n=4,q=3,case=I)))", 3, 7),
    # the ranks ring-sweep reaches: eps chains over 4 b's at p = 2, and
    # inversion signs across 10 b's at p = 3
    ("ext(4, padic(n=5,q=2,case=II,f=3))", 2, 6),
    ("ext(4, Z(4)*Z(10)*Z(4/7)*Z(4/7)*Z(-5))", 3, 6),
    ("ext(10, triv)", 3, 4),
])
def test_products_match_dense_oracle_nested(text, p, D):
    _assert_matches_dense(parse(text, p), p, D)


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]))
def test_products_match_dense_oracle_rank_10(seed, p):
    e = random_expr(random.Random(seed), p, max_rank=10)
    _assert_matches_dense(e, p, 6)


def test_products_into_empty_degrees_skip_the_model():
    alg = build_cohomology(parse("ext(2, Z(3))", 2), 2, 6)
    assert alg.dims[4] == 0 and alg.dims[1] > 0

    def refuse(*args):
        raise AssertionError("the ring model was consulted")

    alg._block = refuse
    for got in (alg.product(1, 0, 3, 0), alg.product(2, 0, 2, 0),
                alg.cup([1] * alg.dims[1], 1, [1] * alg.dims[3], 3)):
        assert got.dtype == np.int64
        assert got.shape == (0,)


def _assert_blocks_match_dense(e, p, D):
    """Every degree pair's block equals the dense oracle's products."""
    alg = build_cohomology(e, p, D)
    want = dense_ring._build(normalize(e, p), p, D)
    for d1 in range(D + 1):
        for d2 in range(D + 1 - d1):
            block = alg._dense(d1, d2)
            assert block.dtype == np.int64
            assert block.shape == (want.dims[d1], want.dims[d2], want.dims[d1 + d2]), \
                (e, d1, d2)
            dense = [[(want.mul(d1, i, d2, j) % p).tolist()
                      for j in range(want.dims[d2])] for i in range(want.dims[d1])]
            assert block.tolist() == dense, (e, d1, d2)


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.integers(2, 6))
def test_blocks_match_dense_oracle(seed, p, D):
    e = random_expr(random.Random(seed), p, max_rank=10)
    _assert_blocks_match_dense(e, p, D)


@pytest.mark.parametrize("text, p, D", [
    # a free product under an extension, with an E factor and an Ext factor
    ("ext(2, Z(3) * ext(1, Z(5)) * E)", 2, 6),
    ("ext(2, Z(7) * ext(2, Z(4) * padic(n=4,q=3,case=I)))", 3, 6),
    ("E * E * ext(2, Z(5))", 2, 6),
    # Case III and IV bases: eps is not the first class, and x1^2 = w
    ("ext(2, E * padic(n=4,q=2,case=III,f=2,s=2))", 2, 6),
    ("ext(3, padic(n=4,q=2,case=IV,f=3,s=2))", 2, 6),
    # the odd-p sign over many b's
    ("ext(5, Z(4) * padic(n=4,q=3,case=I))", 3, 6),
])
def test_blocks_match_dense_oracle_cases(text, p, D):
    _assert_blocks_match_dense(parse(text, p), p, D)


def test_product_results_are_read_only():
    # a result must not alias the memo, where a write would change later products
    alg = build_cohomology(parse("ext(2, Z(5))", 2), 2, 4)
    v = alg.product(1, 0, 1, 1)
    with pytest.raises(ValueError):
        v[1] = 1
    gram = alg.gram()
    for i in range(alg.dims[1]):
        for j in range(alg.dims[1]):
            assert alg.product(1, i, 1, j).tolist() == gram[i, j].tolist()


@pytest.mark.parametrize("call", [
    lambda alg: alg.product(1, -1, 1, 0),
    lambda alg: alg.product(1, 0, 1, -1),
    lambda alg: alg.product(1, alg.dims[1], 1, 0),
    lambda alg: alg.product(2, 0, 1, alg.dims[1]),
    lambda alg: alg.product(-1, 0, 3, 0),
    lambda alg: alg.product(2, 0, 3, 0),
    lambda alg: alg.cup([1], 1, [1] * alg.dims[1], 1),
    lambda alg: alg.cup([1] * alg.dims[1], 1, [1] * (alg.dims[1] + 1), 1),
    lambda alg: alg.cup([[1] * alg.dims[1]], 1, [1] * alg.dims[1], 1),
    lambda alg: alg.cup([1], -1, [1] * alg.dims[2], 2),
    # numpy would read True as a mask, and refuse a float with IndexError
    lambda alg: alg.product(1, True, 1, 0),
    lambda alg: alg.product(True, 0, 1, 0),
    lambda alg: alg.product(1, np.bool_(True), 1, 0),
    lambda alg: alg.product(1, 0.0, 1, 0),
    lambda alg: alg.product(1.0, 0, 1, 0),
    lambda alg: alg.cup([1] * alg.dims[1], 1.0, [1] * alg.dims[1], 1),
    lambda alg: alg.cup([1] * alg.dims[1], 1, [1] * alg.dims[1], True),
])
def test_product_and_cup_refuse_bad_classes_and_vectors(call, monkeypatch):
    # through the blocks, and past the cap through a marked row
    alg = build_cohomology(parse("ext(2, Z(5))", 2), 2, 4)
    with pytest.raises(ValidationError):
        call(alg)
    monkeypatch.setattr(cohomology, "MAX_BLOCK_CELLS", 0)
    cohomology._ring.cache_clear()
    alg = build_cohomology(parse("ext(2, Z(5))", 2), 2, 4)
    with pytest.raises(ValidationError):
        call(alg)


def test_product_and_cup_take_numpy_integers():
    alg = build_cohomology(parse("ext(2, Z(5))", 2), 2, 4)
    for i in range(alg.dims[1]):
        for j in range(alg.dims[1]):
            got = alg.product(np.int64(1), np.int32(i), np.uint8(1), np.int16(j))
            assert got.tolist() == alg.product(1, i, 1, j).tolist()
    v = [1] * alg.dims[1]
    assert (alg.cup(v, np.int64(1), v, np.int8(1)).tolist()
            == alg.cup(v, 1, v, 1).tolist())


@pytest.mark.parametrize("text, p", [
    ("ext(3, Z(3) * E)", 2),
    ("ext(3, Z(7) * padic(n=4,q=3,case=I))", 3),
])
def test_mirrored_degree_pair_is_read_off_its_mirror(text, p):
    # x y = (-1)^(d1 d2) y x: the (d2, d1) block is the (d1, d2) block
    # transposed, negated at odd p when d1 d2 is odd
    alg = build_cohomology(parse(text, p), p, 5)
    want = dense_ring._build(normalize(parse(text, p), p), p, 5)
    for d1, d2 in [(1, 2), (1, 3), (2, 3), (1, 4)]:
        alg.product(d1, 0, d2, 0)
    alg._block = None
    for d1, d2 in [(2, 1), (3, 1), (3, 2), (4, 1)]:
        for i in range(alg.dims[d1]):
            for j in range(alg.dims[d2]):
                got = alg.product(d1, i, d2, j)
                assert not got.flags.writeable
                assert got.tolist() == (want.mul(d1, i, d2, j) % p).tolist()


def test_ring_models_leave_no_reference_cycles():
    # a cycle keeps a ring's closures and blocks alive until the garbage
    # collector runs, which then pays for them inside some later call
    texts = [("ext(2, Z(3) * E * ext(1, Z(5)))", 2),
             ("ext(3, padic(n=4,case=IV,f=3))", 2),
             ("ext(2, Z(7) * ext(2, Z(4)))", 3),
             ("Z(3) * E * padic(n=3,case=II,f=2)", 2)]

    def use(text, p):
        alg = build_cohomology(parse(text, p), p, 6)
        dims = alg.dims
        for d1 in range(1, 6):
            for i in range(dims[d1]):
                for j in range(dims[6 - d1]):
                    alg.product(d1, i, 6 - d1, j)
        alg.gram()
        log_level_direct(parse(text, p), p, 6)

    for text, p in texts:
        use(text, p)
    gc.collect()
    gc.disable()
    try:
        for text, p in texts:
            use(text, p)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oversized_block_is_not_built(monkeypatch):
    monkeypatch.setattr(cohomology, "MAX_BLOCK_CELLS", 0)
    e = parse("ext(2, Z(5)) * E", 2)
    alg = build_cohomology(e, 2, 4)
    want = dense_ring._build(normalize(e, 2), 2, 4)

    write = alg._block

    def refuse(d1, d2, out, o1, o2, o3, rows=None):
        # a marked row is read; an unmarked call would build the block
        if rows is None:
            raise AssertionError("a block was built")
        write(d1, d2, out, o1, o2, o3, rows)

    alg._block = refuse
    for i in range(alg.dims[1]):
        for j in range(alg.dims[1]):
            got = alg.product(1, i, 1, j)
            assert not got.flags.writeable
            assert got.tolist() == (want.mul(1, i, 1, j) % 2).tolist()
    assert not alg._cache


@pytest.mark.parametrize("text, p", [
    ("ext(2, Z(5)) * E", 2),
    ("ext(3, padic(n=4,q=2,case=IV,f=3,s=2))", 2),
    ("ext(2, Z(7) * padic(n=4,q=3,case=I))", 3),
    # H^2 = 0: a tensor of shape (2, 2, 0)
    ("Z(3) * Z(5)", 2),
])
def test_gram_is_the_fresh_degree_one_block(text, p):
    e = parse(text, p)
    alg = build_cohomology(e, p, 3)
    want = dense_ring._build(normalize(e, p), p, 3)
    gram = alg.gram()
    assert gram.dtype == np.int64
    dense = [[(want.mul(1, i, 1, j) % p).tolist() for j in range(want.dims[1])]
             for i in range(want.dims[1])]
    assert gram.tolist() == dense
    # a fresh tensor: a write to it reaches no later gram
    assert gram.flags.writeable
    gram[...] = 1
    assert alg.gram().tolist() == dense
    assert not alg._cache


@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.integers(2, 4))
def test_gram_cup_and_json_match_product(seed, p, D):
    # ``product`` reads the blocks and is the oracle of ``gram`` (the
    # (1, 1) block, built fresh), of ``cup`` (the writer on the rows of
    # v1's support) and of the JSON form
    rng = random.Random(seed)
    alg = build_cohomology(random_expr(rng, p, max_rank=6), p, D)
    n, e2 = alg.dims[1], alg.dims[2]
    gram = alg.gram()
    assert gram.shape == (n, n, e2)
    for i in range(n):
        for j in range(n):
            assert gram[i, j].tolist() == alg.product(1, i, 1, j).tolist()
    for _ in range(3):
        d1 = rng.randint(0, D)
        d2 = rng.randint(0, D - d1)
        v1 = [rng.randrange(-p, 2 * p) for _ in range(alg.dims[d1])]
        v2 = [rng.randrange(-p, 2 * p) for _ in range(alg.dims[d2])]
        want = np.zeros(alg.dims[d1 + d2], dtype=np.int64)
        for i, a in enumerate(v1):
            for j, b in enumerate(v2):
                want += a * b * alg.product(d1, i, d2, j)
        got = alg.cup(v1, d1, v2, d2)
        assert got.dtype == np.int64
        assert got.tolist() == (want % p).tolist()
    if e2 == 1:
        want_json = [[int(alg.product(1, i, 1, j)[0]) for j in range(n)]
                     for i in range(n)]
    else:
        want_json = [[[int(c) for c in alg.product(1, i, 1, j)] for j in range(n)]
                     for i in range(n)]
    assert algebra_to_json(alg)["gram"] == want_json


@given(st.integers(0, 2**32), st.sampled_from([2, 3]), st.integers(2, 5))
def test_cup_of_one_or_two_rows_matches_product(seed, p, D):
    # ``cup`` hands the writer v1 mod p as its row mark: with one or two
    # rows marked, in every degree pair (degree 0 too), it is the sum of
    # those rows of ``product``
    rng = random.Random(seed)
    alg = build_cohomology(random_expr(rng, p, max_rank=6), p, D)
    for d1 in range(D + 1):
        for d2 in range(D + 1 - d1):
            n1, n2 = alg.dims[d1], alg.dims[d2]
            if not n1:
                continue
            v2 = [rng.randrange(-p, 2 * p) for _ in range(n2)]
            for hot in (1, 2):
                v1 = [0] * n1
                for i in rng.sample(range(n1), min(hot, n1)):
                    # nonzero mod p, and sometimes outside 0..p-1
                    v1[i] = rng.randrange(1, p) + p * rng.randrange(-1, 2)
                want = np.zeros(alg.dims[d1 + d2], dtype=np.int64)
                for i, a in enumerate(v1):
                    if a:
                        for j, b in enumerate(v2):
                            want += a * b * alg.product(d1, i, d2, j)
                got = alg.cup(v1, d1, v2, d2)
                assert got.tolist() == (want % p).tolist(), (d1, d2, v1, v2)


def test_cup_writes_only_the_marked_rows(monkeypatch):
    # v1 on one factor of a free product: the other factors' writers are
    # skipped, and in the marked factor only v1's rows are written
    alg = build_cohomology(parse("E * E * ext(2, Z(5))", 2), 2, 4)
    written = []

    class Spy(cohomology._Contract):
        __slots__ = ()

        def __setitem__(self, key, c):
            written.append(key[0])
            super().__setitem__(key, c)

    monkeypatch.setattr(cohomology, "_Contract", Spy)
    for d1 in range(1, 5):
        for d2 in range(5 - d1):
            for factor in ("g1.", "g2.", "g3."):
                rows = [i for i, label in enumerate(alg.basis[d1])
                        if label.startswith(factor)]
                if not rows:
                    continue
                for support in ({rows[0]}, {rows[0], rows[-1]}):
                    v1 = [int(i in support) for i in range(alg.dims[d1])]
                    v2 = [1] * alg.dims[d2]
                    written.clear()
                    got = alg.cup(v1, d1, v2, d2)
                    assert set(written) <= support, (d1, d2, factor, written)
                    if d2 == 0:
                        # the unit writes every marked row
                        assert set(written) == support
                    want = sum(alg.product(d1, i, d2, j) for i in support
                               for j in range(alg.dims[d2])) % 2
                    assert got.tolist() == want.tolist()

import contextlib
import io
import json
import random
import time
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from etkit.cli import main
from etkit.cohomology import build_cohomology
from etkit.errors import (
    DimensionTooLarge,
    NotAnExtension,
    ValidationError,
)
from dense_fp import rank, row_space_basis, solve
from etkit.pairs import parse
from randexpr import random_ext_rooted
from etkit import cohomology, rigidity
from etkit.rigidity import (
    DEFAULT_PAIR_CAP,
    AugBilinearMap,
    _all_labels,
    _all_vectors,
    _keys,
    _q_finder,
    _same_shape,
    _scan,
    check_rigidity_criterion,
    find_equivalence,
    from_cohomology,
    is_rigid,
    n_subspace,
    rigidity_report,
)
from label_oracle import vector_label


# the brute-force oracles of the rank scan and the key-guided search


def _pair(m: AugBilinearMap, a, b) -> np.ndarray:
    """B(a, b), read off the map's tensor."""
    a, b = (np.asarray(v, dtype=np.int64) % m.p for v in (a, b))
    return np.einsum("i,ijk,j->k", a, m.tensor, b) % m.p


def _rigid_one(bmap: AugBilinearMap, a: np.ndarray, vecs: np.ndarray) -> bool:
    """Oracle: test rigidity of a against every b in ``vecs``."""
    p = bmap.p
    u = (bmap.eps + a) % p
    if not u.any():
        # every pair {0, b} is linearly dependent
        return True
    w = np.einsum("i,ijk->jk", a, bmap.tensor) % p
    cand = vecs[~((vecs @ w) % p).any(axis=1)]
    j0 = int(np.flatnonzero(u)[0])
    inv_u = pow(int(u[j0]), -1, p)
    lam = (cand[:, j0] * inv_u) % p
    return bool(((lam[:, None] * u[None, :]) % p == cand).all())


def _find_equivalence_brute(
    m1: AugBilinearMap,
    m2: AugBilinearMap,
    cap: int = DEFAULT_PAIR_CAP,
):
    """Oracle for ``find_equivalence``: tries the identity, then every
    d x d matrix P (at most ``cap`` of them).  ``try_p`` takes P to be
    invertible with P eps1 = eps2, so those two tests come first."""
    if not _same_shape(m1, m2):
        return None
    p, d, e = m1.p, m1.d, m1.e
    if d == 0:
        return np.zeros((0, 0), dtype=np.int64), np.eye(e, dtype=np.int64)
    if p ** (d * d) > cap:
        raise DimensionTooLarge(
            f"p^(d^2) = {p ** (d * d)} exceeds the search cap {cap}"
        )
    try_p = _q_finder(m1, m2)
    ident = np.eye(d, dtype=np.int64)
    if np.array_equal(m1.eps, m2.eps):
        q = try_p(ident)
        if q is not None:
            return ident, q
    for bits in iter_product(range(p), repeat=d * d):
        pm = np.array(bits, dtype=np.int64).reshape(d, d)
        if ((pm @ m1.eps) % p != m2.eps).any() or rank(pm, p) < d:
            continue
        q = try_p(pm)
        if q is not None:
            return pm, q
    return None


def _random_map(rng, p, d, e):
    t = np.array([[[rng.randrange(p) for _ in range(e)]
                   for _ in range(d)] for _ in range(d)], dtype=np.int64)
    if p != 2:
        # alternating part only, as cup products of odd p are
        t = (t - t.transpose(1, 0, 2)) % p
        eps = np.zeros(d, dtype=np.int64)
    else:
        t = (t + t.transpose(1, 0, 2)) % p
        eps = np.array([rng.randrange(2) for _ in range(d)], dtype=np.int64)
    return AugBilinearMap(p=p, tensor=t, eps=eps)


def test_zero_pairing_everything_rigid():
    m = AugBilinearMap(p=2, tensor=np.zeros((1, 1, 1), dtype=np.int64),
                       eps=np.zeros(1, dtype=np.int64))
    assert is_rigid(m, [1])
    rep = rigidity_report(m)
    assert rep["nonRigid"] == [] and rep["rigid"] == ["a1"]


def test_validation():
    with pytest.raises(ValidationError):
        AugBilinearMap(p=3, tensor=np.zeros((2, 2, 1), dtype=np.int64),
                       eps=np.array([1, 0]))  # eps must vanish for odd p
    with pytest.raises(ValidationError):
        AugBilinearMap(p=2, tensor=np.zeros((2, 3, 1), dtype=np.int64),
                       eps=np.zeros(2, dtype=np.int64))
    m = _random_map(random.Random(0), 2, 2, 1)
    with pytest.raises(ValidationError):
        is_rigid(m, [0, 0])
    with pytest.raises(DimensionTooLarge):
        # 3^11 lies above the enumeration bound 2^16
        is_rigid(_random_map(random.Random(0), 3, 11, 1), [1] + [0] * 10)


def test_map_arrays_are_read_only():
    m = _random_map(random.Random(5), 2, 3, 2)
    with pytest.raises(ValueError):
        m.tensor[0, 0, 0] = 1
    with pytest.raises(ValueError):
        m.eps[0] = 1


def _map(p, tensor, eps):
    tensor = np.array(tensor, dtype=np.int64)
    return AugBilinearMap(p=p, tensor=tensor, eps=np.array(eps, dtype=np.int64))


@st.composite
def aug_maps(draw):
    """Arbitrary tensors, symmetric or not, with any eps at p = 2."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p]))
    e = draw(st.integers(0, d + 1))
    cells = draw(st.lists(st.integers(0, p - 1), min_size=d * d * e,
                          max_size=d * d * e))
    eps = [0] * d
    if p == 2:
        eps = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    return _map(p, np.reshape(cells, (d, d, e)), eps)


@given(aug_maps())
@example(_map(2, np.zeros((3, 3, 2)), [1, 0, 1]))  # zero tensor, eps != 0
@example(_map(3, np.zeros((2, 2, 1)), [0, 0]))  # zero tensor, odd p
@example(_map(5, np.arange(27).reshape(3, 3, 3) % 5, [0] * 3))  # non-symmetric
@example(_map(2, np.arange(16).reshape(4, 4, 1) % 2, [0, 1, 1, 0]))  # e < d - 1
@example(_map(3, np.ones((4, 4, 0)), [0] * 4))  # e = 0
@example(_map(5, [[[2, 3]]], [0]))  # d = 1
@example(_map(2, [[[1]]], [1]))  # d = 1, eps != 0
def test_rank_test_matches_enumeration(m):
    vecs, flags = _scan(m)
    every_b = _all_vectors(m.p, m.d)
    assert len(vecs) == m.p**m.d - 1
    assert flags.tolist() == [_rigid_one(m, a, every_b) for a in vecs]
    assert [is_rigid(m, a) for a in vecs] == flags.tolist()


@st.composite
def chunked_scans(draw):
    """Maps at p = 2 up to d = 7 and p = 3 up to d = 4, eps zero or not,
    e = 0 and d = 0 included, with chunk budgets small enough that a chunk
    holds one to a few vectors."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(0, 7 if p == 2 else 4))
    e = draw(st.integers(0, 4))
    cells = draw(st.lists(st.integers(0, p - 1), min_size=d * d * e,
                          max_size=d * d * e))
    eps = [0] * d
    if p == 2:
        eps = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    return (_map(p, np.reshape(cells, (d, d, e)), eps),
            draw(st.integers(1, 6 * max(1, d * e))),
            draw(st.integers(1, 3 * max(1, e))))


@given(chunked_scans())
@example((_map(3, np.zeros((0, 0, 2)), []), 1, 1))  # d = 0
@example((_map(2, np.ones((7, 7, 0)), [1] * 7), 1, 1))  # e = 0, eps != 0
def test_chunked_scan_matches_enumeration(case):
    m, chunk_bytes, words = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "_CHUNK_BYTES", chunk_bytes)
        mp.setattr(rigidity, "_CHUNK_WORDS", words)
        vecs, flags = _scan(m)
    every_b = _all_vectors(m.p, m.d)
    assert vecs.tolist() == every_b[1:].tolist()
    assert flags.tolist() == [_rigid_one(m, a, every_b) for a in vecs]


@st.composite
def wide_scans(draw):
    """Maps at p = 2 with d <= 5 whose rows B(a, e_j) fill one to three
    uint64 words (e in {63, 64, 65, 128, 129}), eps zero or not.  Every
    B(e_i, e_j) is a combination of a few drawn vectors, so that W_a has
    every rank up to d and rigid and non-rigid vectors both occur; the
    vectors vanish below a drawn column, so that rows pivot in later
    words too."""
    d = draw(st.integers(1, 5))
    e = draw(st.sampled_from([63, 64, 65, 128, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(0, d))
    span = rng.integers(2, size=(r, e))
    span[:, : draw(st.integers(0, e - 1))] = 0
    tensor = rng.integers(2, size=(d, d, r)) @ span % 2
    eps = [0] * d
    if draw(st.booleans()):
        eps = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    return _map(2, tensor, eps)


@given(wide_scans())
@example(_map(2, np.eye(65, dtype=np.int64)[[[0, 63], [63, 64]]], [1, 1]))
@example(_map(2, np.eye(129, dtype=np.int64)[[[64, 128], [128, 128]]], [0, 0]))
def test_scan_across_words_matches_enumeration(m):
    vecs, flags = _scan(m)
    every_b = _all_vectors(m.p, m.d)
    assert flags.tolist() == [_rigid_one(m, a, every_b) for a in vecs]


def _rank_rule(m: AugBilinearMap, a) -> bool:
    """Rigidity of a nonzero a at odd p from dense ranks: rank W_a = d, or
    rank W_a = d - 1 and a W_a = 0."""
    w = np.einsum("i,ijk->jk", a, m.tensor) % m.p
    r = rank(w, m.p)
    return r == m.d or (r == m.d - 1 and not (a @ w % m.p).any())


def _lane_maps(p: int) -> list[AugBilinearMap]:
    """Maps at d = 2 over F_p.  The first is C (x) (1, 1) with
    C = [[0, -1], [-1, -1]]: every W_a has rank at most one, and the line
    of (1, p - 2) is rigid, its unreduced a W_a (p - 2)(p - 1)p, near the
    (p - 1) p^2 that bounds a line's representative.  The others are
    seeded, of rank at most one and of any rank."""
    rng = np.random.default_rng(p)
    c = np.array([[0, p - 1], [p - 1, p - 1]])
    return [_map(p, c[:, :, None] * np.ones(2, dtype=np.int64), [0, 0]),
            _map(p, rng.integers(p, size=(2, 2, 1)) * rng.integers(p, size=3), [0, 0]),
            _map(p, rng.integers(p, size=(2, 2, 3)), [0, 0])]


@pytest.mark.parametrize("p", [19, 23, 31, 37, 251])
def test_odd_scan_lanes_match_dense_ranks(p):
    """A scan at d = 2 builds W_a and a W_a in the lane that holds
    d^2 (p - 1)^3: int16 at p = 19, int32 from p = 23 on.  A scan ranks
    line representatives only, whose a W_a stays below (p - 1) p^2, past
    2^15 between p = 31 and 37; at p = 251 an int16 product would wrap.
    Every vector is checked up to p = 37; at p = 251 the 252 that the scan
    ranks, those whose first nonzero coordinate is 1 (the spread over
    their multiples is the same code at every p)."""
    for m in _lane_maps(p):
        vecs, flags = _scan(m)
        check = (vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)] == 1) | (p < 100)
        assert flags[check].tolist() == [_rank_rule(m, a) for a in vecs[check]]


@pytest.mark.parametrize("p", [19, 23, 31])
def test_is_rigid_lanes_match_dense_ranks(p):
    """``is_rigid`` takes any vector, not only a line's representative, so
    a W_a reaches d^2 (p - 1)^3.  On the first map at p = 31, a = (16, 30)
    lies on the rigid line, and its unreduced a W_a is 55,800, past 2^15
    in a lane that held only W_a's d (p - 1)^2."""
    for m in _lane_maps(p):
        vecs = _all_vectors(p, 2)[1:]
        assert [is_rigid(m, a) for a in vecs] == [_rank_rule(m, a) for a in vecs]


@st.composite
def key_maps(draw):
    """Two maps of one shape at p in {2, 3} with d <= 4 and e <= 3, eps
    zero or not at p = 2."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 4))
    e = draw(st.integers(0, 3))

    def one():
        cells = draw(st.lists(st.integers(0, p - 1), min_size=d * d * e,
                              max_size=d * d * e))
        eps = [0] * d
        if p == 2:
            eps = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
        return _map(p, np.reshape(cells, (d, d, e)), eps)

    return one(), one()


def _dense_keys(m: AugBilinearMap) -> list[int]:
    """The key of every vector, from the dense rank of each of its maps."""
    p, d = m.p, m.d
    want = []
    for a in _all_vectors(p, d):
        left = np.einsum("i,ijk->jk", a, m.tensor) % p  # row j is B(a, e_j)
        right = np.einsum("j,ijk->ik", a, m.tensor) % p  # row i is B(e_i, a)
        ranks = (rank(left, p), rank(right, p), rank(np.hstack([left, right]), p))
        iso = not _pair(m, a, a).any()
        is_eps = np.array_equal(a, m.eps)
        want.append(
            (((ranks[0] * (d + 1) + ranks[1]) * (d + 1) + ranks[2]) * 2 + iso) * 2
            + is_eps
        )
    return want


@given(key_maps(), st.sampled_from([1, 2**17]))
@example((_map(2, np.zeros((3, 3, 0)), [1, 0, 1]),
          _map(2, np.zeros((3, 3, 0)), [0, 0, 0])), 1)  # e = 0
def test_keys_match_per_vector_ranks(maps, chunk_bytes):
    m1, m2 = maps
    m3, m4 = (_map(m.p, m.tensor, m.eps) for m in maps)  # fresh, uncached copies
    real, ranked = rigidity._side_by_side_ranks, []

    def counted(a, b, p):
        ranked.append(len(a))
        return real(a, b, p)

    def keyed(*args):
        """The keys of ``args``, and how many maps were keyed for them."""
        ranked.clear()
        return _keys(_all_vectors(m1.p, m1.d), *args), sum(ranked) // m1.p ** m1.d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "_CHUNK_BYTES", chunk_bytes)
        mp.setattr(rigidity, "_side_by_side_ranks", counted)
        (k1, k2), both = keyed(m1, m2)
        (k3, k3_again), once = keyed(m3, m3)
        (k3_cached, k4), cached_once = keyed(m3, m4)
    assert (both, once, cached_once) == (2, 1, 1)
    assert k3_again is k3 and k3_cached is k3
    want1, want2 = _dense_keys(m1), _dense_keys(m2)
    for keys, want in [(k1, want1), (k2, want2), (k3, want1), (k4, want2)]:
        assert keys.tolist() == want


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("multiplicative", [False, True])
def test_bulk_labels_match_vector_label(p, multiplicative):
    rng = random.Random(30 + p)
    for d in range(5 if p < 5 else 4):
        r = _random_map(rng, p, d, 2) if d else _map(p, np.zeros((0, 0, 2)), [])
        m = AugBilinearMap(p=p, tensor=r.tensor, eps=r.eps,
                           labels=tuple(f"x{i}" for i in range(d)),
                           multiplicative=multiplicative)
        vecs = _all_vectors(p, d)
        assert _all_labels(m) == [vector_label(m, v) for v in vecs]
        rep = rigidity_report(m)
        flags = _scan(m)[1]
        assert rep["rigid"] == [vector_label(m, v) for v in vecs[1:][flags]]
        assert rep["nonRigid"] == [vector_label(m, v) for v in vecs[1:][~flags]]


def test_criterion_counts_every_class_outside_inflation():
    rng = random.Random(29)
    for _ in range(10):
        p = rng.choice([2, 3])
        e = random_ext_rooted(rng, p, max_h1=5)
        alg = build_cohomology(e, p, 2)
        t = alg.meta["ext_inflation_dim"]
        vecs, _ = _scan(from_cohomology(alg))
        assert check_rigidity_criterion(e, p).checked == \
            sum(1 for v in vecs if v[t:].any())


def test_report_reuses_the_scan():
    m = _random_map(random.Random(6), 3, 3, 2)
    basis = n_subspace(m)
    rep = rigidity_report(m)
    assert rep["nSubspaceDim"] == len(basis)
    assert len(rep["rigid"]) + len(rep["nonRigid"]) == 3**3 - 1
    basis[:] = 0  # the caller's copy, not the cached basis
    assert np.array_equal(n_subspace(m), n_subspace(_map(3, m.tensor, m.eps)))


@pytest.mark.parametrize("text, p", [("ext(2, Z(5) * E)", 2), ("ext(2, Z(4))", 3)])
def test_criterion_and_report_share_one_scan(monkeypatch, text, p):
    # the criterion's ring comes back from build_cohomology with its map,
    # so the report and the N-subspace rank nothing again
    calls = []
    rank_flags = rigidity._rank_flags

    def counted(*args):
        calls.append(args)
        return rank_flags(*args)

    monkeypatch.setattr(rigidity, "_rank_flags", counted)
    e = parse(text, p)
    assert check_rigidity_criterion(e, p).holds
    alg = build_cohomology(e, p, 2)
    bmap = from_cohomology(alg)
    assert from_cohomology(alg) is bmap
    basis = n_subspace(bmap)
    assert rigidity_report(bmap)["nSubspaceDim"] == len(basis)
    assert len(calls) == 1


@pytest.mark.parametrize("text, p", [("ext(2, Z(5) * E)", 2), ("ext(2, Z(4))", 3)])
def test_failing_criterion_names_its_counterexamples(monkeypatch, text, p):
    # no correct ring breaks the criterion, so the scan is made to call
    # every vector non-rigid, on a fresh ring with no cached scan
    e = parse(text, p)
    checked = check_rigidity_criterion(e, p).checked
    cohomology._ring.cache_clear()
    monkeypatch.setattr(rigidity, "_rank_flags",
                        lambda bmap, vecs: np.zeros(len(vecs), dtype=bool))
    rep = check_rigidity_criterion(e, p)
    alg = build_cohomology(e, p, 2)
    bmap = from_cohomology(alg)
    t = alg.meta["ext_inflation_dim"]
    outside = [v for v in _all_vectors(p, bmap.d) if v[t:].any()]
    assert not rep.holds
    assert rep.checked == checked == len(outside)
    assert rep.counterexamples == tuple(vector_label(bmap, v) for v in outside)


def test_scalar_invariance_odd_p():
    rng = random.Random(21)
    for _ in range(30):
        m = _random_map(rng, 3, 3, 2)
        a = np.array([rng.randrange(3) for _ in range(3)], dtype=np.int64)
        if not a.any():
            continue
        assert is_rigid(m, a) == is_rigid(m, (2 * a) % 3)


def test_beta_class_is_rigid_in_small_extension():
    alg = build_cohomology(parse("ext(1, Z(1))", 3), 3, 2)
    m = from_cohomology(alg)
    assert m.d == 2
    assert is_rigid(m, [0, 1])


def test_criterion_on_random_ext_rooted():
    rng = random.Random(23)
    for _ in range(25):
        p = rng.choice([2, 3])
        e = random_ext_rooted(rng, p, max_h1=5)
        rep = check_rigidity_criterion(e, p)
        assert rep.holds, (e, rep.counterexamples)
        assert rep.checked > 0


def test_oversized_scan_refused_before_building():
    # building the ring and its d x d gram first would take seconds on both
    start = time.perf_counter()
    for n in (1001, 20001):  # 2^20001 has more digits than str(int) allows
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["rigid", "--p", "2", f"padic(n={n},case=II,f=2)"])
        assert code == 1
        assert json.loads(err.getvalue())["error"] == \
            f"p^d = 2^{n} exceeds the enumeration bound 65536"
    with pytest.raises(DimensionTooLarge, match=r"2\^502 exceeds"):
        check_rigidity_criterion(parse("ext(1, padic(n=501,case=II,f=2))", 2), 2)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p,expr", [
    (2, "ext(100000000000000000000,triv)"),
    (3, "padic(n=100000000000000000000,q=3,case=I)"),
])
def test_huge_rank_refused_before_the_power(p, expr):
    # p^(10^20) cannot be computed: the rank alone is past the bound
    start = time.perf_counter()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["rigid", "--p", str(p), expr])
    assert code == 1
    assert json.loads(err.getvalue())["kind"] == "DimensionTooLarge"
    root = expr if expr.startswith("ext") else f"ext(1, {expr})"
    with pytest.raises(DimensionTooLarge):
        check_rigidity_criterion(parse(root, p), p)
    assert time.perf_counter() - start < 1


def _field_square(p):
    """Multiplication in F_(p^2) = F_p[x]/(x^2 - n x - m) on coefficient
    vectors: a map on which every nonzero vector is rigid."""
    n, m = {2: (1, 1), 3: (0, 2), 5: (0, 2)}[p]  # x^2 - n x - m irreducible
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0] = [1, 0]
    t[0, 1] = t[1, 0] = [0, 1]
    t[1, 1] = [m, n]
    return _map(p, t, [0, 0])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_n_subspace_from_one_vector_per_line(p):
    # the span of eps and every non-rigid vector, all multiples included
    rng = random.Random(40 + p)
    eps = [1, 1] if p == 2 else [0, 0]
    maps = [
        _random_map(rng, p, rng.randrange(1, 5), rng.randrange(0, 3))
        for _ in range(30)
    ] + [
        _map(p, np.zeros((0, 0, 2)), []),  # d = 0
        _map(p, [[[1]]], [1 if p == 2 else 0]),  # d = 1
        _map(p, np.ones((3, 3, 0)), eps + [0]),  # e = 0: at most a = eps is rigid
        _field_square(p),  # no non-rigid vector
        _map(p, _field_square(p).tensor, eps),  # the same with eps != 0 at p = 2
    ]
    assert _scan(maps[-2])[1].all()
    for m in maps:
        vecs, flags = _scan(m)
        rows = np.vstack([m.eps[None, :], vecs[~flags]])
        assert np.array_equal(n_subspace(m), row_space_basis(rows, p))
    if p == 2:
        # some random maps have both eps != 0 and non-rigid vectors
        assert any(m.eps.any() and not _scan(m)[1].all() for m in maps[:30])


def test_n_subspace_inside_inflation():
    rng = random.Random(24)
    for _ in range(25):
        p = rng.choice([2, 3])
        e = random_ext_rooted(rng, p, max_h1=5)
        alg = build_cohomology(e, p, 2)
        t = alg.meta["ext_inflation_dim"]
        basis = n_subspace(from_cohomology(alg))
        assert not basis[:, t:].any(), (e, basis)


def test_not_an_extension():
    with pytest.raises(NotAnExtension):
        check_rigidity_criterion(parse("E", 2), 2)
    with pytest.raises(NotAnExtension):
        # ext(1, E) normalizes to the free product E * E
        check_rigidity_criterion(parse("ext(1, E)", 2), 2)


def test_vector_label():
    m = _random_map(random.Random(1), 3, 3, 1)
    assert vector_label(m, [1, 0, 2]) == "a1+2*a3"
    assert vector_label(m, [0, 0, 0]) == "0"


def test_find_equivalence_self():
    rng = random.Random(25)
    for p, d, e in ((2, 3, 1), (3, 2, 2), (2, 0, 2), (3, 0, 0)):
        m = _random_map(rng, p, d, e) if d else _map(p, np.zeros((0, 0, e)), [])
        got = find_equivalence(m, m)
        assert got is not None
        pm, qm = got
        if not d:  # the root is the leaf
            assert pm.shape == (0, 0)
            assert qm.dtype == np.int64 and np.array_equal(qm, np.eye(e))
        for _ in range(10):
            a = np.array([rng.randrange(p) for _ in range(d)])
            b = np.array([rng.randrange(p) for _ in range(d)])
            lhs = (qm @ _pair(m, a, b)) % p
            rhs = _pair(m, (pm @ a) % p, (pm @ b) % p)
            assert np.array_equal(lhs, rhs)


def test_find_equivalence_change_of_basis():
    rng = random.Random(26)
    m1 = _random_map(rng, 2, 3, 1)
    pm = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    # self-inverse over F_2, so B2(a,b) = B1(Pa,Pb) with eps2 = P eps1
    t2 = np.einsum("ia,jb,ijk->abk", pm, pm, m1.tensor) % 2
    m2 = AugBilinearMap(p=2, tensor=t2, eps=(pm @ m1.eps) % 2)
    got = find_equivalence(m2, m1)
    assert got is not None
    p_found, q_found = got
    rng2 = random.Random(27)
    for _ in range(10):
        a = np.array([rng2.randrange(2) for _ in range(3)])
        b = np.array([rng2.randrange(2) for _ in range(3)])
        lhs = (q_found @ _pair(m2, a, b)) % 2
        rhs = _pair(m1, (p_found @ a) % 2, (p_found @ b) % 2)
        assert np.array_equal(lhs, rhs)


def test_find_equivalence_mismatches():
    m1 = _random_map(random.Random(2), 2, 2, 1)
    m2 = _random_map(random.Random(3), 3, 2, 1)
    with pytest.raises(ValidationError):
        find_equivalence(m1, m2)
    m3 = _random_map(random.Random(4), 2, 3, 1)
    assert find_equivalence(m1, m3) is None


def _assert_equivalence(m1, m2, got):
    """Q B1(a, b) = B2(Pa, Pb) on every basis pair, P eps1 = eps2, and P
    and Q are invertible."""
    p = m1.p
    pm, qm = got
    assert rank(pm, p) == m1.d and rank(qm, p) == m1.e
    assert np.array_equal(pm @ m1.eps % p, m2.eps)
    lhs = np.einsum("lk,abk->abl", qm, m1.tensor) % p
    rhs = np.einsum("ia,jb,ijk->abk", pm, pm, m2.tensor) % p
    assert np.array_equal(lhs, rhs)


def _transformed(m, pm, qm):
    """The map B2(a, b) = Q B1(Pa, Pb) with eps2 = P^-1 eps1, so that
    (P, Q) is an equivalence from m2 to m."""
    p = m.p
    t = np.einsum("ai,bj,abk,lk->ijl", pm, pm, m.tensor, qm) % p
    return _map(p, t, solve(pm, m.eps, p))


@st.composite
def equivalence_cases(draw):
    """Pairs of equal (p, d, e): zero, symmetric or arbitrary tensors whose
    flattening may have rank below e, eps zero or not; the second map is
    either a random change of basis of the first or drawn on its own."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 3 if p == 2 else 2))
    e = draw(st.integers(0, 2))

    def ints(n):
        return draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))

    def aug_map():
        shape = draw(st.sampled_from(["zero", "symmetric", "any"]))
        free = draw(st.integers(0, e))  # the flattening has rank <= free
        t = np.reshape(ints(d * d * free), (d, d, free)) @ np.reshape(
            ints(free * e), (free, e))
        if shape == "symmetric":
            t = t + t.transpose(1, 0, 2)
        elif shape == "zero":
            t = 0 * t
        eps = ints(d) if p == 2 and draw(st.booleans()) else [0] * d
        return _map(p, t % p, eps)

    def invertible(n):
        m = np.reshape(ints(n * n), (n, n))
        return m if rank(m, p) == n else np.eye(n, dtype=np.int64)

    m1 = aug_map()
    if draw(st.booleans()):
        return _transformed(m1, invertible(d), invertible(e)), m1
    return m1, aug_map()


@given(equivalence_cases())
@example((_map(2, np.zeros((3, 3, 2)), [1, 0, 0]),
          _map(2, np.zeros((3, 3, 2)), [0, 0, 0])))  # eps zero in one map only
# flattening of rank 1 < e, so Q is not determined by the pairs
@example((_map(3, [[[1, 2], [0, 0]], [[2, 1], [0, 0]]], [0, 0]),
          _map(3, [[[0, 0], [1, 2]], [[0, 0], [2, 1]]], [0, 0])))
def test_search_matches_brute_force(case):
    m1, m2 = case
    got = find_equivalence(m1, m2)
    want = _find_equivalence_brute(m1, m2)
    assert (got is None) == (want is None)
    for found in (got, want):
        if found is not None:
            _assert_equivalence(m1, m2, found)


@pytest.mark.parametrize("m", [
    # zero pairs: nothing fixes Q, which must still come out invertible
    _map(3, np.zeros((1, 1, 3)), [0]),
    # the pairs span one line of F_3^3, so they fix Q on that line only
    _map(3, [[[1, 0, 0], [0, 0, 0]], [[2, 0, 0], [0, 0, 0]]], [0, 0]),
])
def test_q_built_when_pairs_do_not_fix_it(m):
    _assert_equivalence(m, m, find_equivalence(m, m))
    _assert_equivalence(m, m, _find_equivalence_brute(m, m))


# Inequivalent pairs at p = 2, d = 3, e = 1 whose key multisets agree, so
# only the search can tell them apart.
SAME_KEYS = [
    ([[0, 0, 1], [0, 1, 0], [0, 1, 1]], [0, 1, 1],
     [[0, 0, 0], [1, 1, 0], [1, 0, 0]], [1, 1, 1]),
    ([[1, 0, 0], [0, 0, 0], [0, 1, 0]], [1, 1, 0],
     [[0, 1, 0], [0, 0, 0], [1, 1, 0]], [1, 1, 0]),
    ([[0, 0, 1], [0, 1, 0], [0, 0, 0]], [1, 1, 0],
     [[1, 0, 0], [1, 0, 1], [1, 0, 1]], [0, 0, 1]),
]


@pytest.mark.parametrize("t1, eps1, t2, eps2", SAME_KEYS)
def test_equal_keys_inequivalent(t1, eps1, t2, eps2):
    m1 = _map(2, np.reshape(t1, (3, 3, 1)), eps1)
    m2 = _map(2, np.reshape(t2, (3, 3, 1)), eps2)
    k1, k2 = _keys(_all_vectors(m1.p, m1.d), m1, m2)
    assert k1[0] == k2[0] and sorted(k1) == sorted(k2)
    assert _find_equivalence_brute(m1, m2) is None
    assert find_equivalence(m1, m2) is None


def test_search_at_dimension_four():
    # equal keys and inequivalent (brute force, 2^16 matrices, agrees)
    m1 = _map(2, np.reshape([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0],
                             [0, 0, 0, 0]], (4, 4, 1)), [0] * 4)
    m2 = _map(2, np.reshape([[0, 1, 0, 0], [0, 1, 0, 1], [0, 1, 1, 1],
                             [0, 0, 1, 1]], (4, 4, 1)), [0] * 4)
    k1, k2 = _keys(_all_vectors(m1.p, m1.d), m1, m2)
    assert sorted(k1) == sorted(k2)
    assert find_equivalence(m1, m2) is None
    # p^(d^2) = 3^16 lies far above the brute-force cap
    rng = random.Random(28)
    for e in (1, 2):
        m = _random_map(rng, 3, 4, e)
        pm = np.array([[1, 2, 0, 1], [0, 1, 1, 0], [0, 0, 1, 2], [1, 0, 0, 1]])
        qm = np.array([[2, 1], [1, 1]])[:e, :e]
        m2 = _transformed(m, pm, qm)
        _assert_equivalence(m2, m, find_equivalence(m2, m))
        other = _random_map(rng, 3, 4, e)
        got = find_equivalence(m, other)
        if got is not None:
            _assert_equivalence(m, other, got)


@contextlib.contextmanager
def _checked_leaves():
    """Wrap ``find_equivalence``'s Q finder so that every leaf asserts what
    the pruning guarantees and ``try_p`` takes on trust: P is invertible
    and P eps1 = eps2.  Yields the list of leaves reached."""
    real = rigidity._q_finder
    leaves = []

    def q_finder(m1, m2):
        try_p = real(m1, m2)

        def leaf(pm):
            assert rank(pm, m1.p) == m1.d
            assert np.array_equal(pm @ m1.eps % m1.p, m2.eps)
            leaves.append(pm)
            return try_p(pm)

        return leaf

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity, "_q_finder", q_finder)
        yield leaves


@given(equivalence_cases())
@example((_map(2, np.zeros((3, 3, 2)), [1, 0, 0]),
          _map(2, np.zeros((3, 3, 2)), [0, 0, 0])))
# eps != 0 and a radical: a singular P would fit every pair
@example((_map(2, np.zeros((3, 3, 1)), [1, 0, 0]),
          _map(2, np.zeros((3, 3, 1)), [1, 0, 0])))
@example((_map(3, [[[1, 2], [0, 0]], [[2, 1], [0, 0]]], [0, 0]),
          _map(3, [[[0, 0], [1, 2]], [[0, 0], [2, 1]]], [0, 0])))
def test_search_leaves_are_invertible_and_fix_eps(case):
    with _checked_leaves():
        find_equivalence(*case)


def test_fixed_searches_reach_only_checked_leaves():
    with _checked_leaves() as leaves:
        for case in SAME_KEYS:
            test_equal_keys_inequivalent(*case)
        test_search_at_dimension_four()
    assert leaves


def test_search_bounds_raise(monkeypatch):
    m1 = _map(2, np.reshape(SAME_KEYS[0][0], (3, 3, 1)), SAME_KEYS[0][1])
    m2 = _map(2, np.reshape(SAME_KEYS[0][2], (3, 3, 1)), SAME_KEYS[0][3])
    with monkeypatch.context() as mp, pytest.raises(DimensionTooLarge):
        mp.setattr(rigidity, "DEFAULT_PAIR_CAP", 1)
        find_equivalence(m1, m2)  # the search never gives up silently
    big = _map(2, np.zeros((17, 17, 1), dtype=np.int64), np.zeros(17))
    with pytest.raises(DimensionTooLarge):
        find_equivalence(big, big)  # the keys would enumerate 2^17 vectors


def test_eps_refused_before_keys(monkeypatch):
    """One eps zero and the other not: refused with no key computed, and
    after the p^d bound.  Equal eps, zero or not, still take the keys."""
    def no_keys(*args):
        raise AssertionError("keyed")

    monkeypatch.setattr(rigidity, "_keys", no_keys)
    zero = _map(2, np.zeros((3, 3, 1)), [0, 0, 0])
    nonzero = _map(2, np.zeros((3, 3, 1)), [1, 0, 0])
    assert find_equivalence(zero, nonzero) is None
    assert find_equivalence(nonzero, zero) is None
    for m1, m2 in [(zero, zero), (nonzero, _map(2, np.zeros((3, 3, 1)), [0, 1, 1]))]:
        with pytest.raises(AssertionError, match="keyed"):
            find_equivalence(m1, m2)
    big = _map(2, np.zeros((17, 17, 1)), np.zeros(17))
    big_eps = _map(2, np.zeros((17, 17, 1)), np.eye(17)[0])
    with pytest.raises(DimensionTooLarge):
        find_equivalence(big, big_eps)

import json
import random
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import islice
from itertools import product as iter_product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit import cli, field_models, rigidity
from etkit.cohomology import build_cohomology
from etkit.errors import (
    DimensionTooLarge,
    EtkitError,
    InvalidModel,
    PrecisionExhausted,
    ValidationError,
)
from etkit.field_models import (
    ComplexField,
    DyadicRational,
    FiniteField,
    Laurent,
    LocalRational,
    RealField,
    TotalRigidityVerdict,
    TrichotomyResult,
    _class_code,
    _parse_h,
    check_pairing_match,
    class_group,
    class_of,
    from_field_model,
    hilbert2,
    is_pth_power,
    is_totally_rigid_bounded,
    model_from_json,
    o_membership,
    predict_galois_pair,
    symbol_vector,
    trichotomic_search,
)
from dense_fp import rank as fp_rank
from norm_oracle import norm_oracle_solvable
from etkit.fplinear import dense_row, echelon_insert, echelon_reduce, sparse_row
from etkit.laurent import LaurentRing, Series
from etkit.pairs import EBlock, Ext, PAdicBlock, ZBlock, normalize, parse
from etkit.rigidity import (
    _all_labels,
    _all_vectors,
    find_equivalence,
    from_cohomology,
    rigidity_report,
)
from label_oracle import vector_label
from windowed_laurent import to_window, windowed_class, windowed_ring, windowed_symbol
from etkit.smallfields import GF, gf
from etkit.units import make_unit

F7T = Laurent(FiniteField(7), "t")
TOWER = Laurent(Laurent(FiniteField(3), "t"), "u")
# coefficients per level of the windowed oracle ring, where a route
# inverts a series that is no monomial
ORACLE_PRECISION = 8


def test_validate_model():
    from etkit.field_models import validate_model

    validate_model(FiniteField(5), 2)
    validate_model(FiniteField(9), 2)
    validate_model(LocalRational(7), 3)
    validate_model(F7T, 3)
    validate_model(TOWER, 2)
    for model, p in [
        (FiniteField(5), 3),     # p must divide q - 1
        (FiniteField(6), 2),     # not a prime power
        (LocalRational(2), 2),   # residue characteristic 2
        (LocalRational(5), 3),   # 5 is not 1 mod 3
        (DyadicRational(), 3),
        (RealField(), 3),
        (Laurent(Laurent(FiniteField(3), "t"), "t"), 2),  # var reuse
    ]:
        with pytest.raises(InvalidModel):
            validate_model(model, p)


def _model_json(model) -> dict:
    """The JSON that ``model_from_json`` decodes to ``model``: the kind and
    the fields as params."""
    if isinstance(model, Laurent):
        return {"kind": "Laurent",
                "params": {"base": _model_json(model.base), "var": model.var}}
    return {"kind": type(model).__name__,
            "params": {f.name: getattr(model, f.name) for f in fields(model)}}


def test_model_json_round_trip():
    for model, p in [
        (FiniteField(13), 3),
        (DyadicRational(), 2),
        (LocalRational(5), 2),
        (RealField(), 2),
        (ComplexField(), 5),
        (F7T, 3),
        (TOWER, 2),
    ]:
        assert model_from_json(_model_json(model), p) == model
    with pytest.raises(InvalidModel):
        model_from_json({"kind": "Weird", "params": {}}, 2)


def test_element_from_json():
    assert FiniteField(5).decode(3) == 3
    with pytest.raises(ValidationError):
        FiniteField(5).decode(7)
    assert DyadicRational().decode({"num": -1, "den": 3}) == \
        Fraction(-1, 3)
    assert DyadicRational().decode(4) == Fraction(4)
    ring = F7T.domain()
    e = F7T.decode({"v": -1, "coeffs": [1, 2]})
    assert ring.val(e) == -1 and ring.render(e) == "t^-1 + 2"
    with pytest.raises(ValidationError):
        F7T.decode([1, 2])


def test_class_groups():
    assert class_group(DyadicRational(), 2) == ["-1", "2", "5"]
    assert class_group(FiniteField(5), 2) == ["2"]
    assert class_group(LocalRational(5), 2) == ["2", "5"]
    assert class_group(RealField(), 2) == ["-1"]
    assert class_group(ComplexField(), 2) == []
    assert class_group(F7T, 3) == ["3", "t"]
    assert class_group(TOWER, 2) == ["2", "t", "u"]


def test_class_of_dyadic():
    assert class_of(DyadicRational(), 2, Fraction(-1)) == (1, 0, 0)
    assert class_of(DyadicRational(), 2, Fraction(10)) == (0, 1, 1)
    assert class_of(DyadicRational(), 2, Fraction(9, 49)) == (0, 0, 0)
    assert is_pth_power(DyadicRational(), 2, Fraction(17))  # 17 = 1 mod 8
    assert not is_pth_power(DyadicRational(), 2, Fraction(5))


def test_hilbert_vs_norm_oracle():
    reps = [Fraction(s * u * t) for s in (1, -1) for u in (1, 5)
            for t in (1, 2)]
    assert len(reps) == 8
    for a in reps:
        for b in reps:
            formula = hilbert2(a, b) == 0
            assert formula == norm_oracle_solvable(a, b), (a, b)


def test_symbol_steinberg_and_antisymmetry_dyadic():
    pool = [Fraction(x) for x in (2, 5, -1, 10, -2, 7, 3, -5)]
    for a in pool:
        if a != 1:
            assert symbol_vector(DyadicRational(), 2, a, 1 - a).tolist() == [0]
        assert symbol_vector(DyadicRational(), 2, a, -a).tolist() == [0]
        for b in pool:
            s1 = symbol_vector(DyadicRational(), 2, a, b)
            s2 = symbol_vector(DyadicRational(), 2, b, a)
            assert np.array_equal(s1, (-s2) % 2)
            # multiplying by a square leaves the symbol alone
            s3 = symbol_vector(DyadicRational(), 2, a * 9, b)
            assert np.array_equal(s1, s3)


def _random_series(rng, ring, f):
    v = rng.randrange(-2, 3)
    coeffs = [rng.randrange(f.q) for _ in range(4)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    while coeffs[0] == 0:
        coeffs.pop(0)
        v += 1
    return ring.from_coeffs(v, coeffs)


@pytest.mark.parametrize("q,p", [(3, 2), (5, 2), (7, 2), (9, 2), (13, 2),
                                 (7, 3), (13, 3)])
def test_tame_symbol_two_routes(q, p):
    model = Laurent(FiniteField(q), "t")
    ring = model.domain()
    f = gf(q)
    rng = random.Random(1000 + q + p)
    for _ in range(60):
        a = _random_series(rng, ring, f)
        b = _random_series(rng, ring, f)
        va, vb = ring.val(a), ring.val(b)
        # residue route: the tame symbol only sees valuations and leads
        lead = f.mul(f.pow_(ring.lead(a), vb), f.inv(f.pow_(ring.lead(b), va)))
        if (va * vb) % 2:
            lead = f.mul(lead, f.minus_one)
        expect = list(f.class_of(lead, p))
        assert symbol_vector(model, p, a, b).tolist() == expect


def test_tame_symbol_bilinear_on_cosets():
    ring = F7T.domain()
    rng = random.Random(77)
    f = gf(7)
    for _ in range(40):
        a = _random_series(rng, ring, f)
        b = _random_series(rng, ring, f)
        s = _random_series(rng, ring, f)
        sa = ring.mul(a, ring.pow_(s, 3))
        assert np.array_equal(symbol_vector(F7T, 3, a, b),
                              symbol_vector(F7T, 3, sa, b))


def test_symbol_dims():
    assert DyadicRational().symbol_dim(2) == 1
    assert FiniteField(5).symbol_dim(2) == 0
    assert F7T.symbol_dim(3) == 1
    assert TOWER.symbol_dim(2) == 3
    assert len(TOWER.basis(2)) == 3


def test_predictions():
    assert predict_galois_pair(ComplexField(), 2) is not None
    assert isinstance(predict_galois_pair(RealField(), 2), EBlock)
    z = predict_galois_pair(FiniteField(5), 2)
    assert isinstance(z, ZBlock) and (z.alpha.num, z.alpha.den) == (5, 1)
    e = predict_galois_pair(LocalRational(5), 2)
    assert isinstance(e, Ext) and isinstance(e.base, ZBlock)
    d = predict_galois_pair(DyadicRational(), 2)
    assert d == PAdicBlock(n=3, q=2, case="II", f=2, s=4)
    t = predict_galois_pair(TOWER, 2)
    assert isinstance(t, Ext) and isinstance(t.base, Ext)


def test_pairing_matches():
    assert check_pairing_match(DyadicRational(),
                               PAdicBlock(n=3, q=2, case="II", f=2), 2)
    assert check_pairing_match(RealField(), EBlock(), 2)
    assert not check_pairing_match(FiniteField(5), EBlock(), 2)
    for model, p in [(ComplexField(), 2), (FiniteField(9), 2),
                     (LocalRational(7), 3), (F7T, 3), (TOWER, 2)]:
        assert check_pairing_match(model, predict_galois_pair(model, p), p)


def test_from_field_model_eps_is_class_of_minus_one():
    for model, p in [(DyadicRational(), 2), (RealField(), 2),
                     (FiniteField(5), 2), (TOWER, 2)]:
        m = from_field_model(model, p)
        if isinstance(model, (DyadicRational, RealField)):
            minus = Fraction(-1)
        else:
            minus = model.domain().minus_one
        assert m.eps.tolist() == list(class_of(model, p, minus))


def test_trichotomic_examples():
    r = trichotomic_search(DyadicRational(), 2, Fraction(2))
    assert r.verdict == "Witness" and r.witness == "-1"
    ring = F7T.domain()
    r = trichotomic_search(F7T, 3, ring.gen())
    assert r.verdict == "Witness" and r.witness == "1 + t"
    r = trichotomic_search(FiniteField(5), 2, 2)
    assert r.verdict == "Witness"
    # {-1, -1} != 0 in R, so no b is a witness and the whole pool is counted
    r = trichotomic_search(RealField(), 2, Fraction(-1))
    assert (r.verdict, r.searched) == ("NoCounterexampleWithinBound", 200)
    with pytest.raises(ValidationError):
        trichotomic_search(DyadicRational(), 2, Fraction(4))
    j = r.to_json()
    assert set(j) == {"verdict", "witness", "searched", "searchBound"}


@st.composite
def _symbol_rows(draw):
    """(model, p, i): a backend at p in {2, 3}, towers up to depth two
    included, and the index of an element a among the head of its pool."""
    p = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["finite", "local", "tower", "complex"]
                                + (["dyadic", "real"] if p == 2 else [])))
    if kind == "local":
        model = LocalRational(draw(st.sampled_from(
            [ell for ell in (3, 5, 7, 13, 19) if (ell - 1) % p == 0])))
    elif kind in ("dyadic", "real", "complex"):
        model = {"dyadic": DyadicRational(), "real": RealField(),
                 "complex": ComplexField()}[kind]
    else:
        model = FiniteField(draw(st.sampled_from(
            [q for q in (3, 4, 5, 7, 9, 13, 16, 25) if (q - 1) % p == 0])))
        if kind == "tower":
            for var in "tu"[: draw(st.integers(1, 2))]:
                model = Laurent(model, var)
    return model, p, draw(st.integers(0, 39))


@settings(max_examples=100, deadline=None)
@given(_symbol_rows())
def test_hoisted_symbols_match_symbol_vector(case):
    """``trichotomic_search`` reads {a, y} as class(y) M with M built once;
    it must give ``symbol_vector`` for -1, each pool candidate b and 1 - b."""
    model, p, i = case
    ops = model.domain()
    pool = list(islice(model.pool(p), 40))
    a = pool[i % len(pool)]
    symbol = field_models._symbols_of(model, p, a)
    ys = [ops.minus_one] + pool  # nonzero
    for b in pool:
        # the search tries 1 - b only once it is known to be nonzero
        y = ops.sub(ops.one, b)
        if not ops.is_zero(y):
            ys.append(y)
    for y in ys:
        assert (_outcome(lambda *_: symbol(y), model, p, a, y)
                == _outcome(symbol_vector, model, p, a, y))


def test_o_membership_examples():
    ring = TOWER.domain()
    u = ring.gen()
    r = o_membership(TOWER, 2, u, "all", "OMinus")
    assert r.verdict == "Member"  # 1 - u is a square by Hensel lifting
    base_t = ring.from_const(TOWER.base.domain().gen())
    tu = ring.mul(base_t, u)
    even = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    r = o_membership(TOWER, 2, tu, even, "OMinus")
    assert r.verdict == "NonMember"  # odd u-valuation leaves H
    r = o_membership(FiniteField(3), 2, 2, [[0]], "OMinus")
    assert r.verdict == "NonMember"
    r = o_membership(FiniteField(3), 2, 1, "all", "ORing")
    assert r.verdict == "Member"
    r = o_membership(TOWER, 2, u, "all", "ORing")
    assert r.verdict == "Member"
    u2 = ring.mul(u, u)
    r = o_membership(TOWER, 2, u2, "all", "OPlus", bound=3)
    assert r.verdict == "UnknownWithinBound"
    # -1 times 1-u^2 leaves the candidate set, with the witness reported
    r = o_membership(TOWER, 2, ring.minus_one, "all", "ORing")
    assert r.verdict == "NonMember" and "u^2" in r.witness
    with pytest.raises(ValidationError):
        o_membership(TOWER, 2, ring.zero, "all", "OMinus")
    with pytest.raises(ValidationError):
        o_membership(FiniteField(3), 2, 2, [[1]], "OMinus")  # H without 1


def test_h_all_is_not_enumerated():
    # "all" is a sentinel, so F_2^64 is never listed; explicit H is checked
    assert _parse_h("all", 64, 2) is None
    # one base-p integer per class vector, the first coordinate highest
    assert _parse_h([[0, 0], [1, 0]], 2, 2) == {0, 2}
    assert _parse_h([[0, 0, 0], [1, 2, 0], [2, 1, 0]], 3, 3) == {0, 15, 21}
    with pytest.raises(ValidationError):
        _parse_h([[0, 0], [1, 0], [0, 1]], 2, 2)  # not closed



@pytest.mark.parametrize("model,p", [(FiniteField(7), 3), (F7T, 3), (TOWER, 2),
                                     (LocalRational(7), 3), (DyadicRational(), 2)],
                         ids=repr)
def test_explicit_h_matches_class_vector_membership(model, p):
    """An explicit H holds class codes; membership must agree with the
    class vector's membership in H kept as tuples, for spans of a few
    drawn vectors, while "all" decides the rest of O^-."""
    def outcome(a, h_spec):
        return o_membership(model, p, a, h_spec, "OMinus").verdict

    d = len(model.basis(p))
    vecs = list(iter_product(range(p), repeat=d))
    for gens in ([], [vecs[1]], [vecs[-1]], vecs[1:3], vecs[-2:]):
        h = {tuple(sum(c * g[k] for c, g in zip(cs, gens)) % p for k in range(d))
             for cs in iter_product(range(p), repeat=len(gens))}
        h_list = [list(v) for v in sorted(h)]
        for a in islice(model.pool(p), 40):
            want = outcome(a, "all") if class_of(model, p, a) in h else "NonMember"
            assert outcome(a, h_list) == want, (gens, a)

def _parse_h_double_loop(h_spec, d, p):
    """``_parse_h`` on an explicit list with the closure test over every
    pair of H, |H|^2 sums."""
    vecs = set()
    for row in h_spec:
        t = tuple(c % p for c in row)
        if len(t) != d:
            raise ValidationError(f"coset vector {row} should have length {d}")
        vecs.add(t)
    if tuple([0] * d) not in vecs:
        raise ValidationError("H must contain the trivial coset")
    for x in vecs:
        for y in vecs:
            if tuple((a + b) % p for a, b in zip(x, y)) not in vecs:
                raise ValidationError("H is not closed under multiplication")
    return frozenset(vecs)


@st.composite
def _h_lists(draw):
    """(H, d, p): the span of a few vectors, often with an element added
    or removed, 0 always kept, in any order and with repeats."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(0, 4))
    vec = st.lists(st.integers(-p, 2 * p), min_size=d, max_size=d)
    gens = draw(st.lists(vec, max_size=3))
    rows = sorted({tuple(sum(c * g[k] for c, g in zip(cs, gens)) % p for k in range(d))
                   for cs in iter_product(range(p), repeat=len(gens))})
    rows += draw(st.lists(vec, max_size=2))
    if len(rows) > 1 and draw(st.booleans()):
        del rows[draw(st.integers(1, len(rows) - 1))]  # rows[0] is 0
    return [list(r) for r in draw(st.permutations(rows))], d, p


def _parse_outcome(parse, h, d, p):
    try:
        return parse(h, d, p)
    except ValidationError as exc:
        return str(exc)


def _coded_double_loop(h_spec, d, p):
    """The double loop's H, each vector as its ``_class_code``."""
    return {_class_code(v, p) for v in _parse_h_double_loop(h_spec, d, p)}


@settings(max_examples=300)
@given(_h_lists())
def test_parse_h_rank_test_matches_double_loop(case):
    assert (_parse_outcome(_parse_h, *case)
            == _parse_outcome(_coded_double_loop, *case))


def test_parse_h_takes_no_pair_sums():
    # all of F_2^13 as an explicit list: 2^26 pair sums by the double loop
    h = [list(v) for v in iter_product(range(2), repeat=13)]
    start = time.perf_counter()
    assert len(_parse_h(h, 13, 2)) == 8192
    with pytest.raises(ValidationError, match="not closed"):
        _parse_h(h[:-1], 13, 2)
    assert time.perf_counter() - start < 2


def test_total_rigidity_verdicts():
    v = is_totally_rigid_bounded(FiniteField(5), 2)
    assert v.verdict == "TotallyRigid"
    assert v.decided_pairs == v.total_pairs == 4
    v = is_totally_rigid_bounded(DyadicRational(), 2)
    assert v.verdict == "NotTotallyRigid"
    assert v.witness == "[0,0,1] (x) [0,0,1]"  # the class of 5 squared
    assert (v.st_dim, v.d_dim) == (8, 5)
    assert v.decided_pairs == v.total_pairs == 64
    v = is_totally_rigid_bounded(ComplexField(), 2)
    assert v.verdict == "TotallyRigid"
    j = v.to_json()
    assert set(j) == {"verdict", "witness", "stDim", "dDim",
                      "decidedPairs", "totalPairs"}


# -- total rigidity against the enumerating oracle ---------------------------

ORACLE_PAIR_BOUND = 4096


def _oracle_pair_set(model, p):
    """P(K) enumerated: the backend's own ``pair_set`` where it has no
    residue field, and otherwise, with the uniformizer class last and
    1 + tO consisting of p-th powers:

    - v(x) > 0 gives (c, 0) for every class c, and x = 1 + y with
      v(y) > 0 gives (0, c);
    - v(x) < 0 gives (c, c + eps), eps = class(-1), since
      1 - x = -x (1 - 1/x);
    - v(x) = 0 with residue other than 1 gives the residue field's pairs,
      lifted at valuation 0."""
    residue = model.residue()
    if residue is None:
        return model.pair_set(p)
    eps = class_of(model, p, model.domain().minus_one)
    zero = (0,) * len(eps)
    pairs = {(a + (0,), b + (0,)) for a, b in _oracle_pair_set(residue, p)}
    for c in iter_product(range(p), repeat=len(eps)):
        pairs |= {(c, zero), (zero, c), (c, tuple((x + y) % p for x, y in zip(c, eps)))}
    return pairs


def _total_rigidity_oracle(model, p):
    """Total rigidity by enumeration, refused past p^(2d) = 4096 coset
    pairs: D spanned by a (x) (a + eps) over all p^d classes, St by every
    pair of P(K) in sorted order, the first pair outside D the witness,
    and then the converse, D in St."""
    eps_vec = np.array(class_of(model, p, model.domain().minus_one), dtype=np.int64)
    d = len(eps_vec)
    total = p ** (2 * d)
    if total > ORACLE_PAIR_BOUND:
        raise DimensionTooLarge(f"{total} coset pairs exceed {ORACLE_PAIR_BOUND}")
    d_basis: dict = {}
    for va in iter_product(range(p), repeat=d):
        av = np.array(va, dtype=np.int64)
        echelon_insert(d_basis, sparse_row(np.outer(av, eps_vec + av).reshape(-1), p), p)
    st_basis: dict = {}
    witness = None
    for va, vb in sorted(_oracle_pair_set(model, p)):
        tens = sparse_row(np.outer(va, vb).reshape(-1), p)
        echelon_insert(st_basis, tens, p)
        if witness is None and echelon_reduce(d_basis, tens, p):
            witness = f"[{','.join(map(str, va))}] (x) [{','.join(map(str, vb))}]"
    if witness is None:
        for c in sorted(d_basis):
            if echelon_reduce(st_basis, d_basis[c], p):
                witness = f"missing {dense_row(d_basis[c], d * d, p).tolist()}"
                break
    return TotalRigidityVerdict("TotallyRigid" if witness is None else "NotTotallyRigid",
                                witness, len(st_basis), len(d_basis), total, total)


@st.composite
def _oracle_models(draw):
    """(model, p) with p^(2d) <= ORACLE_PAIR_BOUND: F_q, Q_ell, Q_2, R, C
    and Laurent towers over F_q, at p in {2, 3, 5}."""
    p = draw(st.sampled_from([2, 3, 5]))
    kinds = ["finite", "local", "tower", "complex"] + (["dyadic", "real"] if p == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "local":
        ells = [ell for ell in (3, 5, 7, 11, 13, 19, 31, 37, 41, 61) if (ell - 1) % p == 0]
        return LocalRational(draw(st.sampled_from(ells))), p
    if kind in ("dyadic", "real", "complex"):
        return {"dyadic": DyadicRational(), "real": RealField(),
                "complex": ComplexField()}[kind], p
    qs = [q for q in (3, 4, 5, 7, 9, 11, 13, 16, 25, 27, 31, 49, 81, 121, 125)
          if (q - 1) % p == 0]
    model = FiniteField(draw(st.sampled_from(qs)))
    if kind == "tower":
        depth = max(k for k in range(1, 6) if p ** (2 * k + 2) <= ORACLE_PAIR_BOUND)
        for i in range(draw(st.integers(1, depth))):
            model = Laurent(model, "t" + "a" * i)
    return model, p


@settings(max_examples=200, deadline=None)
@given(_oracle_models())
def test_total_rigidity_spans_match_oracle(case):
    model, p = case
    assert (is_totally_rigid_bounded(model, p).to_json()
            == _total_rigidity_oracle(model, p).to_json())


@dataclass(frozen=True)
class _SquaresOnly(DyadicRational):
    """Q_2 where 1 lies in aS + bS only when a or b is a square: St_2(S)
    is then 0, so only the converse check can refute total rigidity."""

    def pair_set(self, p):
        vecs = list(iter_product(range(p), repeat=3))
        return {(a, b) for a in vecs for b in vecs if not any(a) or not any(b)}


def test_total_rigidity_converse():
    """D lies in St on every field, as a (x) (-a) = a (x) (1 - a) +
    a^-1 (x) (1 - a^-1), so the spans rule builds St on D and checks no
    converse.  The oracle keeps the check: it fires on a pair set that
    breaks that identity, and on no backend's."""
    v = _total_rigidity_oracle(_SquaresOnly(), 2)
    assert v.verdict == "NotTotallyRigid"
    assert v.witness == "missing [0, 1, 0, 0, 1, 0, 0, 0, 0]"
    assert (v.st_dim, v.d_dim) == (0, 5)
    assert v.decided_pairs == v.total_pairs == 64
    for model, p in [(DyadicRational(), 2), (RealField(), 2), (ComplexField(), 3),
                     (FiniteField(3), 2), (LocalRational(3), 2), (LocalRational(7), 3),
                     (TOWER, 2), (Laurent(Laurent(FiniteField(7), "t"), "u"), 3)]:
        assert not (_total_rigidity_oracle(model, p).witness or "").startswith("missing")


def test_total_rigidity_has_no_pair_bound():
    # 2^32 coset pairs, once refused; -1 is a square in F_5, so D is the
    # symmetric tensors and nothing is lifted outside it
    v = is_totally_rigid_bounded(_tower(15, q=5), 2)
    assert (v.verdict, v.witness, v.st_dim, v.d_dim) == ("TotallyRigid", None, 136, 136)
    assert v.decided_pairs == v.total_pairs == 2 ** 32
    # -1 is not a square in F_3, so eps = e_0 and e_0 (x) (e_0 + eps) = 0;
    # F_3's pair (2, -1) = (2, 2) lifts out of D, zero-padded to 17 classes
    v = is_totally_rigid_bounded(_tower(16), 2)
    assert v.verdict == "NotTotallyRigid"
    assert v.witness == "[1" + ",0" * 16 + "] (x) [1" + ",0" * 16 + "]"
    assert (v.st_dim, v.d_dim) == (153, 152)


@pytest.mark.parametrize("model,total", [
    (LocalRational(7), 81), (LocalRational(13), 81), (F7T, 81),
    (Laurent(Laurent(FiniteField(7), "t"), "u"), 729),
], ids=repr)
def test_total_rigidity_decides_every_pair_at_odd_p(model, total):
    v = is_totally_rigid_bounded(model, 3)
    assert v.verdict == "TotallyRigid" and v.witness is None
    # -1 is a cube, so D is spanned by the a (x) a: the symmetric tensors
    d = len(model.basis(3))
    assert v.st_dim == v.d_dim == d * (d + 1) // 2
    assert v.decided_pairs == v.total_pairs == total


def _coeff_pool_listed(domain, limit: int = 8) -> list:
    """The coefficient pool as first written: every unit of a GF listed,
    then cut to ``limit``."""
    if isinstance(domain, GF):
        return list(domain.units())[:limit]
    out = [domain.one, domain.add(domain.one, domain.gen()), domain.gen()]
    for c in _coeff_pool_listed(domain.base, 3):
        out.append(domain.from_const(c))
    return out[:limit]


def _seeded_pool_listed(seed: list):
    """The seeded pool as first written: a rational is skipped by
    comparing it against every element of the seed list."""
    yield from seed
    for f in field_models._rational_pool():
        if f not in seed:
            yield f


def _rational_pool_with_seen():
    """The rational pool as first written: every num/den built as a
    Fraction and checked against a set of the values already given."""
    seen = {Fraction(0), Fraction(1)}
    h = 2
    while True:
        for den in range(1, h):
            num_abs = h - den
            for num in (num_abs, -num_abs):
                f = Fraction(num, den)
                if f.denominator == den and f not in seen:
                    seen.add(f)
                    yield f
        h += 1


def test_rational_pool_matches_set_generator():
    """The gcd test gives the sequence that the set of seen values gave,
    for its first 5,000 elements, up to height |num| + den = 91."""
    got = list(islice(field_models._rational_pool(), 5000))
    assert got == list(islice(_rational_pool_with_seen(), 5000))
    assert got[:7] == [Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
                       Fraction(-1, 2), Fraction(3), Fraction(-3)]


def test_element_pool_deterministic(monkeypatch):
    first = [F7T.domain().render(x)
             for _, x in zip(range(6), F7T.pool(3))]
    second = [F7T.domain().render(x)
              for _, x in zip(range(6), F7T.pool(3))]
    assert first == second
    pool = list(zip(range(5), DyadicRational().pool(2)))
    assert [x for _, x in pool][:3] == [Fraction(-1), Fraction(2), Fraction(5)]
    # the first 200 elements of each pool against the list-based generators
    models = [(Laurent(FiniteField(65521)), 2),
              (Laurent(Laurent(FiniteField(65521)), "u"), 2),
              (LocalRational(7), 3), (LocalRational(7), 2), (DyadicRational(), 2)]
    pools = [list(islice(model.pool(p), 200)) for model, p in models]
    # a tower over a tower draws from 6 coefficients, so its pool ends early
    assert [len(pool) for pool in pools] == [200, 172, 200, 200, 200]
    assert field_models._coeff_pool(gf(65521)) == list(range(1, 9))
    monkeypatch.setattr(field_models, "_coeff_pool", _coeff_pool_listed)
    monkeypatch.setattr(field_models, "_seeded_pool", _seeded_pool_listed)
    assert pools == [list(islice(model.pool(p), 200)) for model, p in models]


def test_laurent_ring_built_once_per_model():
    model = Laurent(Laurent(FiniteField(7), "t"), "u")
    twin = Laurent(Laurent(FiniteField(7), "t"), "u")
    ring = model.domain()
    assert model.domain() is ring and model.base.domain() is ring.base
    assert twin.domain() is not ring
    # the ring lives beside the parameters, not among them
    assert model == twin and hash(model) == hash(twin) and repr(model) == repr(twin)
    assert _model_json(model) == _model_json(twin)
    assert [f.name for f in fields(model)] == ["base", "var"]
    assert {model: 1}[twin] == 1
    # the constants are built once, shared, and immutable
    assert ring.one is ring.one and ring.pow_(ring.gen(), 0) is ring.one
    assert ring.one == ring.from_const(ring.base.one)
    assert ring.minus_one == ring.from_const(ring.base.minus_one)
    assert ring.zero == Series(0, ()) and ring.is_zero(ring.zero)
    for const in (ring.zero, ring.one, ring.minus_one):
        with pytest.raises(AttributeError):
            const.v = 5
        with pytest.raises(TypeError):
            const.coeffs[0] = ring.base.zero
    before = ring.one
    ring.add(ring.one, ring.gen())
    ring.sub(ring.one, ring.one)
    ring.mul(ring.minus_one, ring.one)
    assert ring.one is before and ring.one == ring.from_const(ring.base.one)
    # series keep value equality and hash
    x, y = ring.from_coeffs(1, [ring.base.one]), ring.gen()
    assert x == y and hash(x) == hash(y) and x is not y and len({x, y}) == 1


# -- the tame symbol against its full-series route ------------------------


def _full_series_symbol(model, p, a, b):
    """Laurent symbols with the tame residue (-1)^(va*vb) ua^vb ub^(-va)
    computed as full series, at every level, in the windowed oracle ring
    of ``tests/windowed_laurent.py``: ub^(-va) inverts a lead that need
    not be a monomial, which no Laurent polynomial holds."""
    if not isinstance(model, Laurent):
        return symbol_vector(model, p, a, b)
    ring = windowed_ring(model, ORACLE_PRECISION)
    return _windowed_full_symbol(model, ring, p, to_window(ring, a), to_window(ring, b))


def _windowed_full_symbol(model, ring, p, a, b):
    if not isinstance(model, Laurent):
        return symbol_vector(model, p, a, b)
    if ring.is_zero(a) or ring.is_zero(b):
        raise ValidationError("symbols take nonzero arguments")
    va, vb = ring.val(a), ring.val(b)
    ua, ub = ring.lead(a), ring.lead(b)
    head = _windowed_full_symbol(model.base, ring.base, p, ua, ub)
    ops = ring.base
    d = ops.mul(ops.mul(ops.pow_(ops.minus_one, va * vb), ops.pow_(ua, vb)),
                ops.pow_(ub, -va))
    return np.concatenate(
        [head, np.array(windowed_class(model.base, ops, p, d), dtype=np.int64)])


def _outcome(symbol, model, p, a, b):
    try:
        return tuple(int(c) for c in symbol(model, p, a, b))
    except (PrecisionExhausted, ValidationError) as exc:
        return type(exc).__name__


def _symbols_against_window(depths, max_examples: int) -> tuple[int, int]:
    """Draws towers of a depth in ``depths`` and two of their elements,
    and checks the exact symbol against the windowed full-series route.
    That route certifies nothing where it runs out of window; everywhere
    else it must give the exact answer.  Returns how many draws had a
    symbol (neither element zero) and in how many of those the windowed
    route answered too, so that a test can hold a floor on the draws
    that compared anything."""
    answered = []

    @settings(max_examples=max_examples, database=None)
    @given(_tower_symbol_inputs(depths))
    def check(case):
        model, p, a, b = case
        exact = _outcome(symbol_vector, model, p, a, b)
        windowed = _outcome(_full_series_symbol, model, p, a, b)
        assert windowed in (exact, "PrecisionExhausted")
        if isinstance(exact, tuple):
            answered.append(isinstance(windowed, tuple))

    check()
    return len(answered), sum(answered)


@st.composite
def _tower_symbol_inputs(draw, depths):
    """A tower with a depth in ``depths`` at p in {2, 3} and two of its
    elements, some made by cancellation, subtraction, products or
    inversion (of monomials) at one level of the tower."""
    p = draw(st.sampled_from([2, 3]))
    model = FiniteField(draw(st.sampled_from([3, 5, 7] if p == 2 else [4, 7])))
    for var in "tuvw"[: draw(st.sampled_from(depths))]:
        model = Laurent(model, var)

    def element(m, lead_nonzero=True):
        if isinstance(m, FiniteField):
            return draw(st.integers(1 if lead_nonzero else 0, m.q - 1))
        n = draw(st.integers(1, 4))
        coeffs = [element(m.base, lead_nonzero and i == 0) for i in range(n)]
        return m.domain().from_coeffs(draw(st.integers(-2, 2)), coeffs)

    def nearby(m, x):
        """x changed at a higher valuation, at a random level."""
        if isinstance(m, FiniteField):
            return x
        ring = m.domain()
        if not x.coeffs or draw(st.booleans()):
            bump = ring.from_coeffs(x.v + draw(st.integers(1, 3)), [element(m.base)])
            return ring.add(x, bump)
        return ring.from_coeffs(x.v, [nearby(m.base, x.coeffs[0]), *x.coeffs[1:]])

    ring = model.domain()
    pool = [element(model) for _ in range(3)]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["cancel", "sub", "mul", "inv"]))
        x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        try:
            if op == "cancel":
                pool.append(ring.sub(x, nearby(model, x)))
            elif op == "sub":
                pool.append(ring.sub(x, y))
            elif op == "mul":
                pool.append(ring.mul(x, y))
            else:
                pool.append(ring.inv(x))
        except ValidationError:  # the inverse of no monomial, or of 0
            pass
    return model, p, draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


def test_leading_term_symbol_matches_full_series():
    # a draw where a or b is zero (both routes refuse) or where the window
    # ran out compares no symbol; most draws have a symbol, and the window
    # answers for each of them
    symbols, compared = _symbols_against_window([1, 2, 3], 400)
    assert symbols >= 200 and compared >= 0.9 * symbols


def test_leading_term_symbol_refines_full_series_at_depth_four():
    # From depth 4 on, a nested cancellation in the windowed route can
    # leave a coefficient known only to a valuation; the exact symbol
    # still answers, and wherever the window does, both agree.
    # here too most draws have a symbol, and the window answers for each
    symbols, compared = _symbols_against_window([4], 50)
    assert symbols >= 25 and compared >= 0.9 * symbols


# -- the symbol tensors against per-element rules ---------------------------


def _tame_oracle(p, ell, a, b):
    """The tame symbol (-1)^(va*vb) ua^vb ub^(-va) of Q_ell, with ua, ub
    read mod ell, as its class in F_ell^x / (F_ell^x)^p."""
    f = gf(ell)

    def split(x):
        v, num, den = 0, x.numerator, x.denominator
        while num % ell == 0:
            num, v = num // ell, v + 1
        while den % ell == 0:
            den, v = den // ell, v - 1
        return v, num * pow(den, -1, ell) % ell

    (va, ua), (vb, ub) = split(a), split(b)
    d = f.mul(f.mul(f.pow_(f.minus_one, va * vb), f.pow_(ua, vb)), f.pow_(ub, -va))
    return list(f.class_of(d, p))


@st.composite
def _local_symbol_inputs(draw):
    """Q_ell with ell <= 31 at p in {2, 3}, and two elements of
    valuation -3..3."""
    p = draw(st.sampled_from([2, 3]))
    ell = draw(st.sampled_from([q for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                                if (q - 1) % p == 0]))
    unit = st.integers(1, 10**4).filter(lambda n: n % ell)

    def element():
        sign = draw(st.sampled_from([1, -1]))
        return (Fraction(sign * draw(unit), draw(unit))
                * Fraction(ell) ** draw(st.integers(-3, 3)))

    return p, ell, element(), element()


@settings(max_examples=300)
@given(_local_symbol_inputs())
def test_local_symbol_matches_tame_formula(case):
    p, ell, a, b = case
    assert symbol_vector(LocalRational(ell), p, a, b).tolist() == _tame_oracle(p, ell, a, b)


def _element_symbol(model, p, a, b):
    """The symbol of a and b by a rule on the elements themselves."""
    if isinstance(model, Laurent):
        return [int(c) for c in _full_series_symbol(model, p, a, b)]
    if isinstance(model, LocalRational):
        return _tame_oracle(p, model.ell, a, b)
    if isinstance(model, DyadicRational):
        return [hilbert2(a, b)]
    if isinstance(model, RealField):
        return [1 if a < 0 and b < 0 else 0]
    return []  # finite fields and C: no symbol


@pytest.mark.parametrize("model,p", [
    (FiniteField(5), 2), (FiniteField(7), 3), (ComplexField(), 2),
    (RealField(), 2), (DyadicRational(), 2),
    (LocalRational(3), 2), (LocalRational(5), 2), (LocalRational(7), 3),
    (LocalRational(13), 3),
    (Laurent(FiniteField(3), "t"), 2), (F7T, 3), (TOWER, 2),
    (Laurent(Laurent(FiniteField(7), "t"), "u"), 2),
    (Laurent(Laurent(FiniteField(7), "t"), "u"), 3),
    (Laurent(Laurent(Laurent(FiniteField(3), "t"), "u"), "v"), 2),
], ids=repr)
def test_symbol_tensor_matches_element_route(model, p):
    m = from_field_model(model, p)
    reps = [r for _, r in model.basis(p)]
    assert m.tensor.shape == (len(reps), len(reps), model.symbol_dim(p))
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            assert m.tensor[i, j].tolist() == _element_symbol(model, p, a, b), (i, j)


# -- the trichotomy search against its three-symbol loop ------------------


def _third_symbol(model, p, a, b):
    """{a, 1 - 1/b} with 1/b computed by inverting b, or None when
    1 - 1/b = 0.  On a Laurent model b need not be a monomial, so the
    inverse is taken in the windowed oracle ring, and PrecisionExhausted
    is raised where its window runs out."""
    if not isinstance(model, Laurent):
        ops = model.domain()
        y = ops.sub(ops.one, ops.inv(b))
        return None if ops.is_zero(y) else symbol_vector(model, p, a, y)
    ring = windowed_ring(model, ORACLE_PRECISION)
    y = ring.sub(ring.one, ring.inv(to_window(ring, b)))
    return None if ring.is_zero(y) else windowed_symbol(model, ring, p, to_window(ring, a), y)


def _trichotomic_search_oracle(model, p, a, bound):
    """The search with all three symbols of every candidate b, 1 - 1/b
    computed by inverting b.  Also returns the positions (from 1) of the
    candidates it skipped for PrecisionExhausted."""
    if is_pth_power(model, p, a):
        raise ValidationError("a must not be a p-th power")
    ops = model.domain()
    skipped = set()
    searched = 0
    for b in islice(model.pool(p), bound):
        searched += 1
        try:
            one_minus_b = ops.sub(ops.one, b)
            if ops.is_zero(one_minus_b):
                continue
            third = _third_symbol(model, p, a, b)
            if third is None:
                continue
            if symbol_vector(model, p, a, b).any():
                continue
            if symbol_vector(model, p, a, one_minus_b).any():
                continue
            if third.any():
                continue
        except PrecisionExhausted:
            skipped.add(searched)
            continue
        return TrichotomyResult("Witness", ops.render(b), searched, bound), skipped
    return TrichotomyResult("NoCounterexampleWithinBound", None, searched, bound), skipped


@st.composite
def _trichotomy_inputs(draw):
    """A backend at p in {2, 3}, an element a that is not a p-th power
    (a product of basis elements, or an early pool element), and a small
    bound.  ComplexField has no such element and gets a = 1."""
    p = draw(st.sampled_from([2, 3]))
    qs = [3, 5, 9] if p == 2 else [4, 7]
    kinds = ["finite", "local", "complex", "laurent", "tower"]
    kinds += ["dyadic", "real"] if p == 2 else []
    kind = draw(st.sampled_from(kinds))
    if kind == "finite":
        model = FiniteField(draw(st.sampled_from(qs)))
    elif kind == "local":
        model = LocalRational(draw(st.sampled_from([3, 5] if p == 2 else [7, 13])))
    elif kind == "dyadic":
        model = DyadicRational()
    elif kind == "real":
        model = RealField()
    elif kind == "complex":
        model = ComplexField()
    else:
        model = Laurent(FiniteField(draw(st.sampled_from(qs))), "t")
        if kind == "tower":
            model = Laurent(model, "u")
    ops = model.domain()
    reps = [r for _, r in model.basis(p)]
    candidates = list(islice(model.pool(p), 12))
    for exps in iter_product(range(p), repeat=len(reps)):
        acc = ops.one
        for r, k in zip(reps, exps):
            acc = ops.mul(acc, ops.pow_(r, k))
        candidates.append(acc)
    candidates = [c for c in candidates if not is_pth_power(model, p, c)]
    a = draw(st.sampled_from(candidates)) if candidates else ops.one
    return model, p, a, draw(st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(_trichotomy_inputs())
def test_trichotomic_search_matches_three_symbol_oracle(case):
    model, p, a, bound = case
    if is_pth_power(model, p, a):
        with pytest.raises(ValidationError):
            trichotomic_search(model, p, a, bound)
        with pytest.raises(ValidationError):
            _trichotomic_search_oracle(model, p, a, bound)
        return
    new = trichotomic_search(model, p, a, bound)
    old, skipped = _trichotomic_search_oracle(model, p, a, bound)
    if new.verdict == "Witness" and new.searched in skipped:
        # the oracle lost this candidate to precision; the three symbols
        # of the new witness, computed exactly, must still vanish, the
        # third as {a, b - 1} - {a, b}, since 1 - 1/b = (b - 1)/b
        ops = model.domain()
        b = next(islice(model.pool(p), new.searched - 1, None))
        assert not symbol_vector(model, p, a, b).any()
        assert not symbol_vector(model, p, a, ops.sub(ops.one, b)).any()
        assert not symbol_vector(model, p, a, ops.sub(b, ops.one)).any()
    else:
        assert new == old


# -- Laurent powers against the right-to-left loop --------------------------


def _pow_right_to_left(ring, x, n):
    """x^n by right-to-left square-and-multiply from the unit."""
    if n < 0:
        return _pow_right_to_left(ring, ring.inv(x), -n)
    acc = ring.one
    b = x
    while n:
        if n & 1:
            acc = ring.mul(acc, b)
        b = ring.mul(b, b)
        n >>= 1
    return acc


def test_laurent_pow_product_count(monkeypatch):
    ring = Laurent(Laurent(FiniteField(7), "t"), "u").domain()
    x = ring.from_coeffs(1, [ring.base.from_coeffs(0, [3, 1]), ring.base.one])
    calls = 0
    real_mul = LaurentRing.mul

    def counting_mul(self, a, b):
        nonlocal calls
        if self is ring:
            calls += 1
        return real_mul(self, a, b)

    monkeypatch.setattr(LaurentRing, "mul", counting_mul)
    for n in range(1, 17):
        calls = 0
        ring.pow_(x, n)
        assert calls == n.bit_length() - 1 + bin(n).count("1") - 1, n


def _pow_outcome(power, ring, x, n):
    try:
        return power(ring, x, n)
    except ValidationError as exc:
        return type(exc).__name__


@given(_tower_symbol_inputs([1, 2]), st.integers(-3, 9))
def test_laurent_pow_matches_right_to_left(case, n):
    model, _, x, _ = case
    ring = model.domain()
    assert (_pow_outcome(LaurentRing.pow_, ring, x, n)
            == _pow_outcome(_pow_right_to_left, ring, x, n))


# -- Laurent products against the double loop over every coefficient pair --


def _mul_double_loop(ring, x, y):
    """x * y from every pair of coefficients, exact zeros included, at
    every level of the tower, trimmed by ``from_coeffs``."""
    if not x.coeffs or not y.coeffs:
        return ring.zero
    base = ring.base
    times = base.mul
    if isinstance(base, LaurentRing):
        def times(a, b):
            return _mul_double_loop(base, a, b)
    out = [base.zero] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, xi in enumerate(x.coeffs):
        for j, yj in enumerate(y.coeffs):
            out[i + j] = base.add(out[i + j], times(xi, yj))
    return ring.from_coeffs(x.v + y.v, out)


@st.composite
def _series_with_holes(draw):
    """A depth-1 or depth-2 tower over F_q and two of its elements, zero
    or not, whose coefficients are often exact zeros at every level."""
    model = FiniteField(draw(st.sampled_from([3, 4, 5, 7])))
    for var in "tu"[: draw(st.integers(1, 2))]:
        model = Laurent(model, var)

    def coeff(m):
        if draw(st.booleans()):
            return m.domain().zero
        if isinstance(m, FiniteField):
            return draw(st.integers(1, m.q - 1))
        return element(m)

    def element(m):
        coeffs = [coeff(m.base) for _ in range(draw(st.integers(0, 5)))]
        return m.domain().from_coeffs(draw(st.integers(-2, 2)), coeffs)

    return model.domain(), element(model), element(model)


@settings(max_examples=300)
@given(_series_with_holes())
def test_laurent_mul_matches_double_loop(case):
    ring, x, y = case
    assert ring.mul(x, y) == _mul_double_loop(ring, x, y)


def _add_per_position(ring, x, y):
    """x + y at every level of the tower, each position of the span of
    both starting from base.zero and adding the coefficients that cover
    it, trimmed by ``from_coeffs``."""
    base = ring.base
    add = base.add
    if isinstance(base, LaurentRing):
        def add(a, b):
            return _add_per_position(base, a, b)
    ends = [(z.v, z.v + len(z.coeffs)) for z in (x, y) if z.coeffs]
    if not ends:
        return ring.zero
    v = min(lo for lo, _ in ends)
    out = []
    for i in range(v, max(hi for _, hi in ends)):
        c = base.zero
        if 0 <= i - x.v < len(x.coeffs):
            c = add(c, x.coeffs[i - x.v])
        if 0 <= i - y.v < len(y.coeffs):
            c = add(c, y.coeffs[i - y.v])
        out.append(c)
    return ring.from_coeffs(v, out)


def _negated(ring, y):
    """-y, each coefficient negated at every level of the tower."""
    base = ring.base
    neg = (lambda c: _negated(base, c)) if isinstance(base, LaurentRing) else base.neg
    return ring.from_coeffs(y.v, [neg(c) for c in y.coeffs])


def _sub_by_negation(ring, x, y):
    """x - y as a sum with the negated copy of y."""
    return _add_per_position(ring, x, _negated(ring, y))


@settings(max_examples=300)
@given(_series_with_holes())
def test_laurent_add_and_sub_match_per_position_sums(case):
    ring, x, y = case
    assert ring.add(x, y) == _add_per_position(ring, x, y)
    assert ring.sub(x, y) == _sub_by_negation(ring, x, y)


# -- the pair sets against the deleted searches and the symbol tensor -------


def _one_in_sum_double_loop(q, p, a, b):
    """Does 1 lie in aS + bS in F_q?  Every pair of p-th powers tried."""
    f = gf(q)
    powers = {f.pow_(x, p) for x in f.units()}
    return any(f.add(f.mul(a, s1), f.mul(b, s2)) == 1
               for s1 in powers for s2 in powers)


@pytest.mark.parametrize("q,p", [(q, p) for q in (3, 4, 5, 7, 9, 13, 25, 49)
                                 for p in (2, 3) if (q - 1) % p == 0])
def test_finite_pair_set_matches_double_loop(q, p):
    f = gf(q)
    pairs = FiniteField(q).pair_set(p)
    for i, j in iter_product(range(p), repeat=2):
        a, b = f.pow_(f.generator, i), f.pow_(f.generator, j)
        assert (((i,), (j,)) in pairs) == _one_in_sum_double_loop(q, p, a, b), (i, j)


def _coset_reps(model, p):
    """(class vector, representative) for every class, from the basis."""
    ops = model.domain()
    reps = [r for _, r in model.basis(p)]
    out = []
    for vec in iter_product(range(p), repeat=len(reps)):
        acc = ops.one
        for c, r in zip(vec, reps):
            if c:
                acc = ops.mul(acc, ops.pow_(r, c))
        out.append((vec, acc))
    return out


def _one_in_sum_pool_search(model, p, a, b, search=60):
    """The odd-p pool search: True when 1 - a*sigma^p has the class of b
    for one of the first ``search`` pool elements sigma, else None."""
    ops = model.domain()
    for sigma in islice(model.pool(p), search):
        t = ops.sub(ops.one, ops.mul(a, ops.pow_(sigma, p)))
        if ops.is_zero(t):
            continue
        if class_of(model, p, t) == class_of(model, p, b):
            return True
    return None


@pytest.mark.parametrize("model,found", [
    (LocalRational(7), 24), (LocalRational(13), 24), (F7T, 16),
], ids=repr)
def test_pool_search_pairs_lie_in_pair_set(model, found):
    pairs = _oracle_pair_set(model, 3)
    reps = _coset_reps(model, 3)
    hits = [(va, vb) for va, ra in reps for vb, rb in reps
            if _one_in_sum_pool_search(model, 3, ra, rb)]
    assert len(hits) == found
    assert set(hits) <= pairs


@st.composite
def _tame_models_at_two(draw):
    """Q_ell for odd ell <= 31, or a tower of depth 1-2 over F_q."""
    if draw(st.booleans()):
        return LocalRational(draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31])))
    model = FiniteField(draw(st.sampled_from([3, 5, 7, 9, 11, 13, 25, 27])))
    for var in "tu"[: draw(st.integers(1, 2))]:
        model = Laurent(model, var)
    return model


@settings(max_examples=60, deadline=None)
@given(_tame_models_at_two())
def test_tame_pair_set_is_symbol_zero_set_at_two(model):
    # at p = 2 the form <a, b> represents 1 iff {a, b} = 0
    assert _oracle_pair_set(model, 2) == model.pair_set(2)


@pytest.mark.parametrize("ell,p", [(3, 2), (5, 2), (7, 2), (13, 2), (7, 3), (13, 3)])
def test_local_pair_set_is_sampled_pair_set(ell, p):
    """(class x, class(1 - x)) over sampled rationals x, some of them
    1 + ell^k*r, gives exactly P(Q_ell)."""
    model = LocalRational(ell)
    rng = random.Random(ell * 10 + p)
    seen = set()
    for _ in range(1500):
        r = Fraction(rng.choice([1, -1]) * rng.randrange(1, 200), rng.randrange(1, 200))
        x = r * Fraction(ell) ** rng.randrange(-3, 4)
        if rng.random() < 0.3:
            x = 1 + r * Fraction(ell) ** rng.randrange(1, 4)
        if x not in (0, 1):
            seen.add((class_of(model, p, x), class_of(model, p, 1 - x)))
    assert seen == _oracle_pair_set(model, p)


@settings(max_examples=200, deadline=None)
@given(_tower_symbol_inputs([1, 2]))
def test_tower_pairs_of_elements_lie_in_pair_set(case):
    model, p, x, _ = case
    ops = model.domain()
    one_minus_x = ops.sub(ops.one, x)
    if ops.is_zero(x) or ops.is_zero(one_minus_x):
        return
    pair = (class_of(model, p, x), class_of(model, p, one_minus_x))
    assert pair in _oracle_pair_set(model, p)


# -- compound labels in rigidity reports ------------------------------------


@pytest.mark.parametrize("model,p,rigid", [
    (Laurent(FiniteField(9), "t"), 2, ["t", "w+1", "(w+1)*t"]),
    (FiniteField(49), 3, ["w+2", "(w+2)^2"]),
], ids=repr)
def test_compound_labels_in_parentheses(model, p, rigid):
    m = from_field_model(model, p)
    assert _all_labels(m) == [vector_label(m, v) for v in _all_vectors(p, m.d)]
    assert rigidity_report(m)["rigid"] == rigid


# -- certified pairing matches ----------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "field_golden.json"


def _ring_map(e, p):
    return from_cohomology(build_cohomology(e, p, 2))


def _shifted(e, p):
    """The prediction of a finite, local or Laurent backend with its
    Z-block unit q moved to q + p: the same (d, e), another normal form.
    At p = 2 this flips eps (q = 1 mod 4 against 3 mod 4), so no match."""
    if isinstance(e, Ext):
        return Ext(e.m, _shifted(e.base, p))
    return ZBlock(make_unit(p, e.alpha.given[0] + p))


def _other_expression(model, p):
    if isinstance(model, DyadicRational):
        return parse("Z(3) * ext(1, Z(5))", p)
    if isinstance(model, (RealField, ComplexField)):
        return None  # no other normal form has their (d, e)
    return _shifted(model.predict(p), p)


def _certified_agrees_with_search(model, p):
    """The certified answer is True and agrees with ``find_equivalence``;
    a second expression with the same (d, e) and another normal form goes
    to the search, and its answer is the search's."""
    e = predict_galois_pair(model, p)
    m1 = from_field_model(model, p)
    assert check_pairing_match(model, e, p)
    assert find_equivalence(m1, _ring_map(e, p)) is not None
    other = _other_expression(model, p)
    if other is None:
        return
    assert normalize(other, p) != normalize(e, p)
    m2 = _ring_map(other, p)
    assert (m2.d, m2.e) == (m1.d, m1.e)
    got = check_pairing_match(model, other, p)
    assert got == (find_equivalence(m1, m2) is not None)
    if p == 2:
        assert not got


def _golden_models():
    seen = {}
    for case in json.loads(GOLDEN.read_text()):
        argv = case["argv"]
        if "--model" not in argv:
            continue
        p = int(argv[argv.index("--p") + 1])
        try:
            model = model_from_json(json.loads(argv[argv.index("--model") + 1]), p)
        except (EtkitError, ValueError):
            continue  # the corpus also pins refused models
        seen[model, p] = None
    return list(seen)


def test_certified_match_agrees_with_search_on_golden_models():
    """Every backend is among them: Q_2, R, and C (d = 0) at p = 2 and 3."""
    models = _golden_models()
    assert {type(m) for m, _ in models} == set(field_models._KINDS.values())
    assert (ComplexField(), 3) in models
    for model, p in models:
        _certified_agrees_with_search(model, p)


@st.composite
def _predicted_models(draw):
    """F_q, Q_ell or a Laurent tower of depth 1-4 over F_q, at p in {2, 3}."""
    p = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["finite", "local", "tower"]))
    if kind == "local":
        ells = [3, 5, 7, 11, 13, 17, 19, 23] if p == 2 else [7, 13, 19, 31, 37]
        return LocalRational(draw(st.sampled_from(ells))), p
    qs = [3, 5, 7, 9, 11, 13, 25, 27] if p == 2 else [4, 7, 13, 16, 19, 25]
    model = FiniteField(draw(st.sampled_from(qs)))
    if kind == "tower":
        for var in "tuvw"[: draw(st.integers(1, 4))]:
            model = Laurent(model, var)
    return model, p


@settings(max_examples=60, deadline=None)
@given(_predicted_models())
def test_certified_match_agrees_with_search(case):
    _certified_agrees_with_search(*case)


def _tower(levels, q=3):
    model = FiniteField(q)
    for i in range(levels):
        model = Laurent(model, "t" + "a" * i)
    return model


def test_certified_match_needs_no_keys_and_no_bound(monkeypatch):
    """The predicted expression is certified without ``_keys`` or a
    search, past p^d = 2^16; any other normal form still goes through
    ``find_equivalence`` and its bound."""
    tower = _tower(16)

    def refuse(*args):
        raise AssertionError("the certified route ran the search")

    with monkeypatch.context() as mp:
        mp.setattr(field_models, "find_equivalence", refuse)
        mp.setattr(rigidity, "_keys", refuse)
        for model, p in [(tower, 2), (DyadicRational(), 2), (LocalRational(7), 3),
                         (TOWER, 2), (ComplexField(), 2)]:
            assert check_pairing_match(model, model.predict(p), p)
    assert from_field_model(tower, 2).d == 17
    with pytest.raises(DimensionTooLarge):
        check_pairing_match(tower, _shifted(tower.predict(2), 2), 2)


def _moved(p, d, k):
    """P on F_p^d swapping e_k with the last basis vector, the uniformizer
    of the top level; for k = None, P adds e_0 to e_1 instead.  Either way
    P^2 = I at p = 2, so P carries the map both ways."""
    pm = np.eye(d, dtype=np.int64)
    if k is None:
        pm[0, 1] = 1
    else:
        pm[:, [k, d - 1]] = pm[:, [d - 1, k]]
    return pm


@pytest.mark.parametrize("model,k,refused_by", [
    (LocalRational(3), 0, "eps"),
    (LocalRational(7), 0, "eps"),
    (TOWER, 0, "eps"),
    (Laurent(Laurent(FiniteField(7), "t"), "u"), 0, "eps"),
    (DyadicRational(), None, "q"),  # the class of 2 goes to that of -2
], ids=repr)
def test_certificate_refuses_uniformizer_in_residue_classes(monkeypatch, model, k,
                                                           refused_by):
    """A basis map P that sends the uniformizer into the residue classes
    is refused by the eps test or by ``_q_finder``, so the certificate
    cannot pass vacuously.  The backend is given the basis P e_i, so the
    certificate's P = I tries P on the true basis; the map stays
    equivalent to the prediction, as the search finds.

    The cases are at p = 2 with class(-1) != 0, or on Q_2: where
    class(-1) = 0 every P is an automorphism of the predicted map (see
    the next test), so there is nothing to refuse.  Moving the
    uniformizer onto a residue class moves eps = class(-1) on the towers
    and on Q_ell, and both tests refuse; on Q_2 only ``_q_finder`` does."""
    p = 2
    m = from_field_model(model, p)
    pm = _moved(p, m.d, k)
    moved = rigidity.AugBilinearMap(
        p=p, tensor=np.einsum("ia,jb,ijk->abk", pm, pm, m.tensor),
        eps=pm @ m.eps, labels=m.labels, multiplicative=True)
    m2 = _ring_map(model.predict(p), p)
    eps_ok = np.array_equal(moved.eps, m2.eps)
    q_ok = rigidity._q_finder(moved, m2)(np.eye(m.d, dtype=np.int64)) is not None
    assert (eps_ok, q_ok) == ((False, False) if refused_by == "eps" else (True, False))
    assert find_equivalence(moved, m2) is not None
    monkeypatch.setattr(field_models, "from_field_model", lambda m, q: moved)
    with pytest.raises(RuntimeError, match="does not certify"):
        check_pairing_match(model, model.predict(p), p)


@pytest.mark.parametrize("model,p", [
    (LocalRational(5), 2), (Laurent(Laurent(FiniteField(5), "t"), "u"), 2),
    (LocalRational(7), 3),
], ids=repr)
def test_every_basis_map_certifies_where_minus_one_is_a_power(model, p):
    """With eps = 0 the predicted map is the exterior square of H^1, so
    every invertible P certifies it."""
    m = from_field_model(model, p)
    assert not m.eps.any()
    try_p = rigidity._q_finder(m, _ring_map(model.predict(p), p))
    for cells in iter_product(range(p), repeat=m.d * m.d):
        pm = np.array(cells, dtype=np.int64).reshape(m.d, m.d)
        assert (try_p(pm) is not None) == (fp_rank(pm, p) == m.d)


def test_certificate_refuses_wrong_eps(monkeypatch):
    """On F_5 at p = 2 the symbol map is (1, 1, 0) with eps = 0, so any Q
    fits; a flipped eps is refused by the eps test alone."""
    m = from_field_model(FiniteField(5), 2)
    bad = replace(m, eps=np.ones(1, dtype=np.int64))
    monkeypatch.setattr(field_models, "from_field_model", lambda model, p: bad)
    with pytest.raises(RuntimeError, match="does not certify"):
        check_pairing_match(FiniteField(5), ZBlock(make_unit(2, 5)), 2)


def test_corrupt_backend_is_a_bug_not_no_match(monkeypatch, capsys):
    """One flipped entry of a backend's symbol tensor: ``field pairing``
    on its own prediction exits 2 with a "where", and prints no match."""
    real = field_models._symbol_tensor

    def corrupt(model, p):
        t = real(model, p).copy()
        t[-1, -1, -1] ^= 1
        return t

    monkeypatch.setattr(field_models, "_symbol_tensor", corrupt)
    model = json.dumps(_model_json(LocalRational(5)))
    code = cli.main(["field", "pairing", "ext(1, Z(5))", "--p", "2", "--model", model])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["kind"] == "RuntimeError" and "where" in report

"""Acceptance suite: one numbered check per criterion, each printing a
single PASS/FAIL line with its runtime against the stated budget."""

import math
import random
import time
from fractions import Fraction

import numpy as np

from etkit.cocycles import H2Space, cup_h1_h1, cyclic, dihedral, h2_dim
from etkit.cohomology import (
    build_cohomology,
    dims_closed_form,
    is_demuskin,
    log_level_direct,
    log_level_recursive,
)
from etkit.field_models import (
    ComplexField,
    DyadicRational,
    FiniteField,
    Laurent,
    LocalRational,
    RealField,
    check_pairing_match,
    from_field_model,
    hilbert2,
    is_totally_rigid_bounded,
    o_membership,
    predict_galois_pair,
    symbol_vector,
)
from dense_fp import rank as fp_rank
from norm_oracle import norm_oracle_solvable
from etkit.pairs import EBlock, Ext, FreeProd, PAdicBlock, ZBlock, parse, rank
from randexpr import random_expr, random_ext_rooted, random_padic
from etkit.rigidity import check_rigidity_criterion, from_cohomology, n_subspace
from etkit.smallfields import gf
from windowed_laurent import to_window, windowed_ring


def _report(num, label, budget, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {num}: {label} "
              f"({time.perf_counter() - t0:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    suffix = f" < {budget:g}s" if budget else ""
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s{suffix})",
          flush=True)
    if budget:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_q2_cross_validation():
    def body():
        m = from_field_model(DyadicRational(), 2)
        assert (m.d, m.e) == (3, 1)
        assert fp_rank(m.tensor[:, :, 0], 2) == 3
        assert check_pairing_match(DyadicRational(),
                                   PAdicBlock(n=3, q=2, case="II", f=2), 2)

    _report(1, "dyadic rationals match the n=3 case II block", 1.0, body)


def test_criterion_02_hilbert_and_tame_symbols():
    def body():
        reps = [Fraction(s * u * t) for s in (1, -1) for u in (1, 5)
                for t in (1, 2)]
        pairs = 0
        for a in reps:
            for b in reps:
                assert (hilbert2(a, b) == 0) == norm_oracle_solvable(a, b)
                pairs += 1
        assert pairs == 64

        sampled = 0
        for q in (3, 5, 7, 9, 13):
            model = Laurent(FiniteField(q), "t")
            ring = model.domain()
            # the series route inverts b^va, no monomial in general, so it
            # runs in the windowed oracle ring of tests/windowed_laurent.py
            window = windowed_ring(model, 8)
            f = gf(q)
            rng = random.Random(200 + q)
            for _ in range(110):
                a = _series(rng, ring, f)
                b = _series(rng, ring, f)
                va, vb = ring.val(a), ring.val(b)
                wa, wb = to_window(window, a), to_window(window, b)
                # direct residue route through series arithmetic
                c = window.mul(window.pow_(wa, vb), window.inv(window.pow_(wb, va)))
                if (va * vb) % 2:
                    c = window.neg(c)
                assert window.val(c) == 0
                expect = list(f.class_of(window.lead(c), 2))
                assert symbol_vector(model, 2, a, b).tolist() == expect
                sampled += 1
        assert sampled >= 500

    _report(2, "Hilbert formula vs norm oracle, tame symbol two routes",
            10.0, body)


def _series(rng, ring, f):
    v = rng.randrange(-2, 3)
    coeffs = [rng.randrange(f.q) for _ in range(4)]
    if not any(coeffs):
        coeffs[0] = 1
    while coeffs[0] == 0:
        coeffs.pop(0)
        v += 1
    return ring.from_coeffs(v, coeffs)


def test_criterion_03_dimension_double_computation():
    def body():
        rng = random.Random(31)
        for _ in range(500):
            p = rng.choice([2, 3])
            e = random_expr(rng, p, max_rank=8)
            assert dims_closed_form(e, p, 5) == build_cohomology(e, p, 5).dims
        for _ in range(40):
            p = rng.choice([2, 3])
            base = random_expr(rng, p, max_rank=4)
            m = rng.choice([2, 3])
            iterated = base
            for _ in range(m):
                iterated = Ext(1, iterated)
            assert dims_closed_form(Ext(m, base), p, 5) == \
                dims_closed_form(iterated, p, 5)

    _report(3, "closed-form dims equal built bases, Ext iteration agrees",
            30.0, body)


def test_criterion_04_ring_model_soundness():
    def body():
        rng = random.Random(41)
        algebras = []
        for _ in range(20):
            p = rng.choice([2, 3])
            e = random_expr(rng, p, max_rank=5)
            algebras.append(build_cohomology(e, p, 4))
        triples = 0
        while triples < 10_000:
            alg = rng.choice(algebras)
            dims = alg.dims
            picks = []
            for _ in range(3):
                options = [d for d in (1, 2) if dims[d]]
                if not options:
                    picks = None
                    break
                d = rng.choice(options)
                picks.append((d, rng.randrange(dims[d])))
            if picks is None or sum(d for d, _ in picks) > 4:
                continue
            (d1, i), (d2, j), (d3, k) = picks
            unit3 = np.zeros(dims[d3], dtype=np.int64)
            unit3[k] = 1
            unit1 = np.zeros(dims[d1], dtype=np.int64)
            unit1[i] = 1
            left = alg.cup(alg.product(d1, i, d2, j), d1 + d2, unit3, d3)
            right = alg.cup(unit1, d1, alg.product(d2, j, d3, k), d2 + d3)
            assert np.array_equal(left, right)
            triples += 1

        checked = 0
        for _ in range(40):
            p = rng.choice([2, 3])
            e = random_ext_rooted(rng, p, max_h1=6)
            alg = build_cohomology(e, p, 3)
            for l, lbl in enumerate(alg.basis[1]):
                if not lbl.startswith("b") or "*" in lbl or "(" in lbl:
                    continue
                beta = np.zeros(alg.dims[1], dtype=np.int64)
                beta[l] = 1
                sq = alg.cup(beta, 1, beta, 1)
                if p == 2:
                    expect = alg.cup(alg.eps, 1, beta, 1)
                else:
                    expect = np.zeros(alg.dims[2], dtype=np.int64)
                assert np.array_equal(sq, expect), (e, lbl)
                checked += 1
        assert checked >= 40

    _report(4, "associativity on 10^4 triples, beta square rule", None, body)


def test_criterion_05_cocycle_checkpoints():
    def body():
        assert h2_dim(cyclic(2), 2) == 1
        x = np.array([0, 1])
        assert cup_h1_h1(cyclic(2), 2, x, x).tolist() == [1]
        assert h2_dim(cyclic(4), 2) == 1
        xbar = np.array([0, 1, 0, 1])
        assert cup_h1_h1(cyclic(4), 2, xbar, xbar).tolist() == [0]
        d4 = dihedral(8)
        assert h2_dim(d4, 2) == 3
        beta = np.array([(g % 4) % 2 for g in range(8)])
        eps = np.array([g // 4 for g in range(8)])
        space = H2Space(d4, 2)
        assert not cup_h1_h1(d4, 2, beta, (eps + beta) % 2, space).any()

    _report(5, "finite-group oracle checkpoints", 5.0, body)


def test_criterion_06_rigidity_theorem_suite():
    def body():
        rng = random.Random(61)
        for _ in range(200):
            p = rng.choice([2, 3])
            e = random_ext_rooted(rng, p, max_h1=6)
            rep = check_rigidity_criterion(e, p)
            assert rep.holds, (e, rep.counterexamples)
            alg = build_cohomology(e, p, 2)
            t = alg.meta["ext_inflation_dim"]
            basis = n_subspace(from_cohomology(alg))
            assert not basis[:, t:].any(), e

    _report(6, "classes outside inflation are rigid, N inside T", 60.0, body)


def test_criterion_07_demuskin_classification():
    def body():
        assert is_demuskin(EBlock(), 2).n == 1
        rng = random.Random(71)
        seen = {"E": 0, "Z": 0, "padic": 0, "free": 0, "ext": 0}
        checked = 0
        while checked < 500:
            p = rng.choice([2, 3])
            roll = rng.random()
            if roll < 0.15:
                e = random_padic(rng, p)
            else:
                e = random_expr(rng, p, max_rank=6)
            v = is_demuskin(e, p)
            if isinstance(e, EBlock):
                assert v.is_demuskin and v.n == 1 and v.q == 2
                seen["E"] += 1
            elif isinstance(e, ZBlock):
                assert not v.is_demuskin
                seen["Z"] += 1
            elif isinstance(e, PAdicBlock):
                assert v.is_demuskin
                assert (v.n, v.q, v.case) == (e.n, e.q, e.case)
                seen["padic"] += 1
            elif isinstance(e, FreeProd):
                if sum(1 for f in e.factors if rank(f)) >= 2:
                    assert not v.is_demuskin
                    seen["free"] += 1
            elif isinstance(e, Ext) and rank(e) >= 3:
                assert not v.is_demuskin
                seen["ext"] += 1
            else:
                continue
            checked += 1
        assert all(seen[k] > 10 for k in seen), seen

    _report(7, "Demuskin recognition over 500 expressions", None, body)


def test_criterion_08_log_level_theorem():
    def body():
        rng = random.Random(81)
        for _ in range(1000):
            e = random_expr(rng, 2, max_rank=6)
            rec = log_level_recursive(e, 2)
            assert rec in (1, 2, 3, math.inf)
            direct = log_level_direct(e, 2, 6)
            if rec is math.inf:
                assert direct == ">6"
            else:
                assert direct == rec, e

    _report(8, "logarithmic level in {1,2,3,inf}, two routes agree",
            30.0, body)


def test_criterion_09_field_predictions():
    def body():
        models = [
            (ComplexField(), 2),
            (RealField(), 2),
            (FiniteField(5), 2),
            (FiniteField(9), 2),
            (FiniteField(13), 2),
            (LocalRational(5), 2),
            (LocalRational(7), 3),
            (DyadicRational(), 2),
            (Laurent(FiniteField(3), "t"), 2),
            (Laurent(FiniteField(5), "t"), 2),
            (Laurent(Laurent(FiniteField(3), "t"), "u"), 2),
            (Laurent(Laurent(FiniteField(5), "t"), "u"), 2),
        ]
        assert len(models) == 12
        for model, p in models:
            e = predict_galois_pair(model, p)
            assert check_pairing_match(model, e, p), model

    _report(9, "predicted pairs match all 12 field models", 10.0, body)


def test_criterion_10_valuation_probes():
    def body():
        tower = Laurent(Laurent(FiniteField(3), "t"), "u")
        ring = tower.domain()
        u = ring.gen()
        assert o_membership(tower, 2, u, "all", "OMinus").verdict == "Member"
        tu = ring.mul(ring.from_const(tower.base.domain().gen()), u)
        even = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        assert o_membership(tower, 2, tu, even, "OMinus").verdict == \
            "NonMember"
        assert o_membership(FiniteField(3), 2, 2, [[0]],
                            "OMinus").verdict == "NonMember"
        v = is_totally_rigid_bounded(DyadicRational(), 2)
        assert v.verdict == "NotTotallyRigid" and v.witness is not None
        assert v.decided_pairs == v.total_pairs
        v = is_totally_rigid_bounded(FiniteField(5), 2)
        assert v.verdict == "TotallyRigid"
        assert v.decided_pairs == v.total_pairs == 4

    _report(10, "membership probes and total rigidity verdicts", 30.0, body)

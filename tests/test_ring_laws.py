"""Laws that every mod-p Galois cohomology ring of a field with mu_p
obeys, checked on the ring models of random expressions.

Each law holds independently of how a model writes its products, so it
checks the models without a presentation and without sharing their
formulas, as ``tests/dense_ring.py`` does.  The models come from
``tests/randexpr.py`` draws, built to degree 4.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit.cohomology import build_cohomology
from etkit.fplinear import kernel_basis, rref
from randexpr import random_expr

SEEDS = st.integers(0, 2**32 - 1)
MAX_DEGREE = 4


def _ring(seed: int, p: int, max_rank: int):
    return build_cohomology(random_expr(random.Random(seed), p, max_rank=max_rank),
                            p, MAX_DEGREE)


def _rank(m, p: int) -> int:
    return len(rref(m, p)[1]) if len(m) else 0


def _cup_map(alg, n: int) -> np.ndarray:
    """The n-fold cup map T^n(H^1) -> H^n, n >= 2, as a (d^n, dim H^n)
    matrix over F_p whose rows follow (i_1, ..., i_n) lexicographically:
    x_i1 ... x_in folded from the left through the model's own (k, 1)
    blocks."""
    d = alg.dims[1]
    m = alg._dense(1, 1).reshape(d * d, alg.dims[2])
    for k in range(2, n):
        m = np.einsum("Im,mjo->Ijo", m, alg._dense(k, 1)).reshape(d ** (k + 1),
                                                                  alg.dims[k + 1])
    return m % alg.p


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.sampled_from([2, 3]))
def test_ring_is_quadratic_to_degree_four(seed, p):
    """H^* is generated by H^1, and the kernel of the n-fold cup map
    T^n(H^1) -> H^n is the ideal that its degree-2 kernel R generates:
    the span of the tensors e_I (x) r (x) e_J with r in R.

    Why it holds: by the norm residue isomorphism (Merkurjev-Suslin for
    n = 2, Rost-Voevodsky in general) H^*(G_F, F_p) is K^M_*(F)/p when F
    contains mu_p, and Milnor K-theory is quadratic by definition: the
    tensor algebra of F^x modulo the ideal of the Steinberg relations,
    which lie in degree 2.  Elementary-type pro-p groups realize such
    rings (and are Koszul: Minac, Pasini, Quadrelli and Tan, 2021).

    The ideal lies in the kernel by associativity, which is tested too;
    equal dimensions then make it the whole kernel."""
    alg = _ring(seed, p, 5)
    d = alg.dims[1]
    relations = kernel_basis(_cup_map(alg, 2).T, p)
    for n in range(2, MAX_DEGREE + 1):
        mu = _cup_map(alg, n)
        assert _rank(mu, p) == alg.dims[n], n  # generated by H^1
        gens = [np.kron(np.kron(np.eye(d ** i, dtype=np.int64), r.reshape(1, -1)),
                        np.eye(d ** (n - 2 - i), dtype=np.int64))
                for i in range(n - 1) for r in relations]
        ideal = np.vstack(gens) if gens else np.zeros((0, d ** n), dtype=np.int64)
        assert not (ideal @ mu % p).any(), n
        assert _rank(ideal, p) == d ** n - alg.dims[n], n


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_square_is_product_with_eps_at_two(seed):
    """x x = x eps for every x in H^1 at p = 2, eps the class of -1.

    Why it holds: in Milnor K-theory {a, a} = {a, -1}, since
    -a = (1 - a)/(1 - 1/a) gives {a, -a} = 0.  At p = 2 the map
    x -> x x - x eps is additive, as x y + y x = 0 there, so the basis
    of H^1 is enough."""
    alg = _ring(seed, 2, 6)
    gram = alg._dense(1, 1)
    d = alg.dims[1]
    squares = gram[np.arange(d), np.arange(d)] % 2
    assert np.array_equal(squares, np.einsum("ijk,j->ik", gram, alg.eps) % 2)


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.sampled_from([2, 3]))
def test_graded_commutativity(seed, p):
    """x y = (-1)^(d1 d2) y x for x of degree d1 and y of degree d2.

    Why it holds: the cup product of group cohomology is graded
    commutative, for every group and coefficient ring.  Both blocks are
    written by the model through ``_dense``: ``_block_of`` would read
    one off the other's mirror by this very law."""
    alg = _ring(seed, p, 5)
    for d1 in range(1, MAX_DEGREE):
        for d2 in range(1, MAX_DEGREE + 1 - d1):
            ab = alg._dense(d1, d2) % p
            ba = alg._dense(d2, d1).transpose(1, 0, 2) * (-1) ** (d1 * d2) % p
            assert np.array_equal(ab, ba), (d1, d2)

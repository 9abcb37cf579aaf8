import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dense_fp
from dense_fp import in_span, solve
from etkit.fplinear import (
    batch_rank,
    dense_row,
    echelon_insert,
    echelon_kernel,
    echelon_reduce,
    is_prime,
    kernel_basis,
    lane,
    rref,
    sparse_row,
    xor_rank,
)


def rank(a, p):
    return len(rref(a, p)[1])


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(10**5))
    assert is_prime(10**18 + 3) and not is_prime((10**9 + 7) * (10**9 + 9))


def test_rref_known():
    a = np.array([[1, 2], [2, 4]])
    r, pivots = rref(a, 5)
    assert pivots == [0]
    assert np.array_equal(r[0], np.array([1, 2]))
    assert not r[1].any()


def test_rank_identity():
    assert rank(np.eye(4, dtype=np.int64), 3) == 4
    assert rank(np.zeros((3, 3), dtype=np.int64), 3) == 0


@st.composite
def matrix_and_vector(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    a = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        ),
        dtype=np.int64,
    )
    x = np.array(draw(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)),
                 dtype=np.int64)
    return p, a, x


@given(matrix_and_vector())
def test_solve_recovers_consistent_systems(data):
    p, a, x = data
    b = (a @ x) % p
    got = solve(a, b, p)
    assert got is not None
    assert np.array_equal((a @ got) % p, b)


@given(matrix_and_vector())
def test_kernel_vectors_annihilate(data):
    p, a, _ = data
    k = kernel_basis(a, p)
    assert len(k) == a.shape[1] - rank(a, p)
    for v in k:
        assert not ((a @ v) % p).any()


@given(matrix_and_vector())
def test_row_space_membership(data):
    p, a, x = data
    red, pivots = rref(a, p)
    basis = red[: len(pivots)]
    # any row combination lies in the span
    combo = (x[: a.shape[0]] @ a[: len(x)]) % p
    assert in_span(basis, combo, p)
    for row in a:
        assert in_span(basis, row, p)


@st.composite
def matrix_stacks(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    cells = draw(st.lists(st.integers(0, p - 1), min_size=n * rows * cols,
                          max_size=n * rows * cols))
    return p, np.array(cells, dtype=np.int64).reshape(n, rows, cols)


@given(matrix_stacks())
def test_batch_rank_matches_rank(data):
    p, stack = data
    assert batch_rank(stack, p).tolist() == [rank(m, p) for m in stack]


@st.composite
def wide_bit_stacks(draw):
    """Stacks over F_2 whose smaller side is 63 to 66 bits, so the packed
    rows of ``batch_rank`` fill one word or spill into a second; each
    matrix has a drawn rank, some with their rows repeated."""
    k = draw(st.integers(63, 66))
    other = k + draw(st.integers(0, 3))
    rows, cols = (other, k) if draw(st.booleans()) else (k, other)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, k))
        m = rng.integers(2, size=(rows, r)) @ rng.integers(2, size=(r, cols)) % 2
        if draw(st.booleans()):
            m = m[rng.integers(rows, size=rows)]
        mats.append(m)
    return np.array(mats, dtype=np.int64)


@given(wide_bit_stacks())
def test_packed_batch_rank_across_words(stack):
    assert batch_rank(stack, 2).tolist() == [rank(m, 2) for m in stack]


@st.composite
def word_stacks(draw):
    """Stacks over F_2 whose rows fill one, two or three uint64 words,
    with more rows than columns or fewer; each matrix has a drawn rank,
    some with their rows repeated."""
    w = draw(st.integers(1, 3))
    cols = draw(st.integers(64 * w - 63, 64 * w))
    rows = draw(st.sampled_from([2, cols - 1, cols + 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, min(rows, cols)))
        m = rng.integers(2, size=(rows, r)) @ rng.integers(2, size=(r, cols)) % 2
        if draw(st.booleans()):
            m = m[rng.integers(rows, size=rows)]
        mats.append(m)
    return w, np.array(mats, dtype=np.int64)


# one-word edge shapes: no rows, one row, one matrix, an all-zero stack,
# and rows whose lowest set bit is bit 63, where -row wraps in uint64
_E0, _E63 = np.eye(64, dtype=np.int64)[[0, 63]]


@given(word_stacks())
@example((1, np.zeros((2, 0, 5), dtype=np.int64)))
@example((1, np.array([[[1, 0, 1]], [[0, 0, 0]]])))
@example((1, np.array([[[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]])))
@example((1, np.zeros((3, 4, 4), dtype=np.int64)))
@example((1, np.array([[_E63, _E63], [_E63, _E63 | _E0], [_E0, _E63]])))
def test_xor_rank_matches_dense_oracle(data):
    w, stack = data
    n, rows, cols = stack.shape
    # word k of row i of matrix j holds columns 64 k .. 64 k + 63
    words = np.zeros((rows, w, n), dtype=np.uint64)
    for j, i, c in zip(*np.nonzero(stack)):
        words[i, c // 64, j] |= np.uint64(1) << np.uint64(c % 64)
    assert xor_rank(words).tolist() == [dense_fp.rank(m, 2) for m in stack]


@st.composite
def odd_prime_stacks(draw):
    """Stacks at odd p up to 65521 with up to 16 columns, where the lazy
    reduction lets entries grow most; each matrix has a drawn rank, some
    with their rows repeated, so rows cancel late."""
    p = draw(st.sampled_from([3, 5, 251, 65521]))
    rows, cols = draw(st.integers(0, 16)), draw(st.integers(0, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, min(rows, cols)))
        m = rng.integers(p, size=(rows, r)) @ rng.integers(p, size=(r, cols)) % p
        if rows and draw(st.booleans()):
            m = m[rng.integers(rows, size=rows)]
        mats.append(m)
    return p, np.array(mats, dtype=np.int64).reshape(len(mats), rows, cols)


def _ranked_stack(p, rows, cols):
    """Three seeded matrices over F_p, of full rank, of rank one less and
    zero."""
    rng = np.random.default_rng(p * 1000 + rows)
    k = min(rows, cols)
    return p, np.array([rng.integers(p, size=(rows, r)) @ rng.integers(p, size=(r, cols)) % p
                        for r in (k, k - 1, 0)], dtype=np.int64)


@given(odd_prime_stacks())
@example(_ranked_stack(181, 1, 5))  # int16 at k = 1
@example(_ranked_stack(191, 1, 5))  # int32
@example(_ranked_stack(46337, 5, 1))  # int32, transposed to k = 1
@example(_ranked_stack(46349, 1, 5))  # int64
@example(_ranked_stack(13, 18, 20))  # int16 by the (k - 1)(p - 1)^2 term
@example(_ranked_stack(13, 20, 19))  # int32 by that term
def test_batch_rank_matches_dense_oracle_at_odd_p(data):
    """Each stack as drawn, in int64, and in the narrowest signed type that
    holds its entries, from which the elimination widens to its lane."""
    p, stack = data
    want = [dense_fp.rank(m, p) for m in stack]
    assert batch_rank(stack, p).tolist() == want
    assert batch_rank(stack.astype(np.min_scalar_type(-p)), p).tolist() == want


def test_lane_boundaries():
    """The lane holds p ((p - 1) + (k - 1) (p - 1)^2), which crosses 2^15 - 1
    between p = 181 and 191 at k = 1, and between k = 18 and 19 at p = 13;
    and 2^31 - 1 between p = 46337 and 46349 at k = 1."""
    got = [lane(p, k) for p, k in [(181, 1), (191, 1), (13, 18), (13, 19),
                                     (46337, 1), (46349, 1)]]
    assert got == [np.dtype(t) for t in (np.int16, np.int32, np.int16, np.int32,
                                         np.int32, np.int64)]
    assert lane(3, 1, held=2**15) == np.dtype(np.int32)


def test_narrow_stack_widens_to_its_lane():
    """An int16 stack at p = 181 with k = 3 needs int32 (the bound is
    p (180 + 2 * 180^2), past 2^15): its products with an inverse reach
    millions, so an int16 elimination would wrap.  It is widened, and
    ranks as it does in int64."""
    rng = np.random.default_rng(181)
    p = 181
    stack = np.array([rng.integers(p, size=(3, r)) @ rng.integers(p, size=(r, 4)) % p
                      for r in [3, 2, 1] * 20], dtype=np.int16)
    assert lane(p, 3) == np.dtype(np.int32)
    want = [dense_fp.rank(m, p) for m in stack]
    assert batch_rank(stack, p).tolist() == want
    assert batch_rank(stack.astype(np.int64), p).tolist() == want


def test_solve_reports_inconsistency():
    a = np.array([[1, 0], [1, 0]])
    b = np.array([1, 0])
    assert solve(a, b, 2) is None


@given(matrix_and_vector())
def test_echelon_matches_dense(data):
    p, a, v = data
    n_cols = a.shape[1]
    basis = {}
    for row in a:
        echelon_insert(basis, sparse_row(row, p), p)
    red, pivots = dense_fp.rref(a, p)
    assert sorted(basis) == pivots
    assert [dense_row(basis[c], n_cols, p).tolist() for c in pivots] \
        == red[: len(pivots)].tolist()
    assert [k.tolist() for k in echelon_kernel(basis, n_cols, p)] \
        == [k.tolist() for k in dense_fp.kernel_basis(a, p)]
    assert bool(echelon_reduce(basis, sparse_row(v, p), p)) != in_span(a, v, p)


def _full_rank(rng, rows, cols, p):
    """A rows x cols matrix of rank min(rows, cols): an invertible L U
    block, further random columns, and the columns shuffled."""
    k = min(rows, cols)
    lower = np.tril(rng.integers(p, size=(k, k)), -1) + np.eye(k, dtype=np.int64)
    upper = np.triu(rng.integers(p, size=(k, k)), 1) + np.eye(k, dtype=np.int64)
    wide = np.hstack([lower @ upper, rng.integers(p, size=(k, max(rows, cols) - k))])
    wide = wide[:, rng.permutation(wide.shape[1])] % p
    return wide if rows <= cols else wide.T


@st.composite
def fp_matrices(draw):
    """Matrices over F_p, p in {2, 3, 5, 7}: empty, tall like the p = 3,
    d = 6 N-subspace rows, wide, of low rank, of full rank, or any."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["empty", "tall", "wide", "low", "full", "any"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "empty":
        rows, cols = draw(st.sampled_from([(0, 0), (0, 4), (4, 0)]))
    elif kind == "tall":
        rows, cols = draw(st.sampled_from([243, 40])), 6
    elif kind == "wide":
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(20, 70))
    else:
        rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if kind == "full":
        return p, kind, _full_rank(rng, rows, cols, p)
    if kind == "low":
        r = draw(st.integers(0, min(rows, cols) - 1))
        return p, kind, rng.integers(p, size=(rows, r)) @ rng.integers(p, size=(r, cols)) % p
    return p, kind, rng.integers(p, size=(rows, cols))


@given(fp_matrices())
def test_rref_matches_dense_oracle(data):
    p, kind, a = data
    want, want_pivots = dense_fp.rref(a, p)
    red, pivots = rref(a, p)
    assert pivots == want_pivots
    assert red.dtype == want.dtype and red.shape == a.shape
    assert red.tolist() == want.tolist()
    if kind == "full":
        assert len(pivots) == min(a.shape)
    assert [k.tolist() for k in kernel_basis(a, p)] \
        == [k.tolist() for k in dense_fp.kernel_basis(a, p)]


def test_rank_exact_at_large_p():
    # int64 products of entries near p overflow; the echelon's do not
    p = 10**12 + 39
    assert is_prime(p)
    assert rank([[2, p - 1], [1, (p - 1) // 2]], p) == 1

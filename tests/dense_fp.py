"""The dense F_p eliminator, kept as the tests' oracle for ``fplinear``.

A numpy Gauss-Jordan loop over the columns with the pivot at the topmost
row.  Its products are int64, so it is exact only while (p - 1)^2 fits:
the oracle serves small p.
"""

import numpy as np


def rref(a, p):
    m = np.array(a, dtype=np.int64, copy=True) % p
    n_rows, n_cols = m.shape
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a, p):
    return len(rref(a, p)[1])


def row_space_basis(a, p):
    red, pivots = rref(a, p)
    return red[: len(pivots)]


def kernel_basis(a, p):
    """One vector per free column: 1 there, and minus that column of the
    RREF at the pivots."""
    red, pivots = rref(a, p)
    n_cols = red.shape[1]
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        v = np.zeros(n_cols, dtype=np.int64)
        v[free] = 1
        for row, c in enumerate(pivots):
            v[c] = -red[row, free] % p
        basis.append(v)
    return basis


def solve(a, b, p):
    """One solution x of a @ x = b over F_p, or None when inconsistent."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64).reshape(-1) % p
    red, pivots = rref(np.hstack([a, b[:, None]]), p)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for row, c in enumerate(pivots):
        x[c] = red[row, -1]
    return x


def in_span(rows, v, p):
    """Whether v lies in the row span of ``rows`` over F_p."""
    rows = np.asarray(rows, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if rows.size == 0:
        return bool(np.all(v % p == 0))
    return rank(rows, p) == rank(np.vstack([rows, v]), p)

"""Exact linear algebra over prime fields F_p.

Two eliminators, one for each shape of work:

- every single matrix goes into a fully reduced echelon basis
  (``echelon_insert``) one row at a time, as a bit-packed int at p = 2 and
  a sparse dict at odd p, in Python integers.  ``rref`` and the kernels
  read off it are deterministic, since the reduced row echelon form is
  unique.  A caller that needs a rank reads ``len(rref(a, p)[1])``.
- ``batch_rank`` ranks a stack of small matrices in one numpy pass, row
  by row: each row, once reduced, pivots on its first nonzero entry and
  clears that column from the rows below it, and every step runs over
  the whole stack at once.  At p = 2 the rows are packed into uint64
  words and reduced by XOR (``xor_rank``, which the p = 2 rigidity scan
  also feeds with the rows it builds itself; rows of one word pivot on
  row & -row with no gather), at odd p in the narrowest of int16, int32
  and int64 that holds every entry its lazy reduction can reach
  (``lane``), or in the stack's own type when that is wider.  An int64
  stack stays int64: narrowing it inside ``batch_rank`` costs a
  reduction and a cast pass more, which made the equivalence search's
  p = 3 queries 1-6% slower in process, so a caller that wants a narrow
  lane builds its stack in one, as the odd-p rigidity scan does.  It
  gives ranks only.  Small stacks cost numpy's fixed cost per call more
  than elimination, so callers rank as many matrices per call as their
  chunk allows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the prime bases 2..37.

    Exact for n < 3.3 * 10^24 (3,317,044,064,679,887,385,961,981, the least
    strong pseudoprime to all twelve bases); larger n passing every base
    are reported prime.
    """
    n = int(n)
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # v_2(n - 1)
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Returns ``(R, pivots)``: R has the shape of ``a`` with its zero rows
    last, and ``pivots`` lists the pivot columns in increasing order.  The
    rows go one at a time into an echelon basis (``echelon_insert``), whose
    arithmetic is in Python integers, so no product overflows at large p.
    """
    m = np.asarray(a, dtype=np.int64) % p
    n_cols = m.shape[1]
    basis: dict = {}
    for row in sparse_rows(m, p):
        if len(basis) == n_cols:
            break
        echelon_insert(basis, row, p)
    red, pivots = _basis_rows(basis, n_cols, p)
    out = np.zeros_like(m)
    out[: len(pivots)] = red
    return out, pivots


def batch_rank(stack, p: int) -> np.ndarray:
    """Ranks over F_p of a stack of matrices of shape (n, rows, cols),
    with entries of a signed integer type.

    The matrices are transposed when rows > cols, so the elimination runs
    over k = min(rows, cols) rows, one at a time: a row, once reduced,
    pivots on its first nonzero entry and clears that column from the
    rows below it.  The stack axis goes last, so that each step runs over
    all n matrices in numpy's inner loop.  At p = 2 each row is packed
    into words and eliminated by XOR (``xor_rank``); at odd p the whole
    stack is eliminated at once.

    At odd p the block is reduced mod p lazily: a row is reduced only when
    it pivots, and each row below only at the pivot column, where its
    entry times the pivot's inverse gives its factor.  A step subtracts
    (factor) x (pivot row entry), both in 0..p-1, and a row takes at most
    k - 1 steps before it pivots, so every entry stays at most
    B = (p - 1) + (k - 1) (p - 1)^2 in absolute value, an entry times an
    inverse below p B, and so does the x // p * p of its reduction, which
    lies between x - p + 1 and x.  So the elimination runs in
    ``lane(p, k)``, the narrowest signed type that holds p B, or in the
    stack's own type when that is wider: the type conversion rides on the
    one transposing copy that puts the stack axis last, so an int64 stack
    stays int64 and pays no extra pass, and a narrow stack is widened,
    never wrapped.  Every caller ranks matrices with k <= d^2 under the
    scan bound p^d <= 2^16 (``rigidity.DEFAULT_ENUM_BOUND``), so p B
    stays below 2^48.
    """
    m = np.asarray(stack)
    if m.shape[1] > m.shape[2]:
        m = m.transpose(0, 2, 1)
    n, rows, cols = m.shape
    if p == 2:
        return xor_rank(np.ascontiguousarray(pack_words(m).transpose(1, 2, 0)))
    dtype = np.promote_types(m.dtype, lane(p, rows))
    m = _mod(np.ascontiguousarray(m.transpose(1, 2, 0), dtype=dtype), p)
    inverse = _inverses(p, dtype)
    ranks = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    for i in range(rows if cols else 0):
        row = _mod(m[i], p)
        lead = (row != 0).argmax(axis=0)
        piv = row[lead, idx]
        ranks += piv != 0
        # a zero row has piv = 0, whose inverse 0 makes every factor 0
        below = m[i + 1 :]
        factor = _mod(below[:, lead, idx] * inverse[piv], p)
        below -= factor[:, None, :] * row
    return ranks


@lru_cache(maxsize=8)
def _inverses(p: int, dtype: np.dtype) -> np.ndarray:
    """The table x -> x^-1 mod p over 0..p-1 at odd p, 0 -> 0, read-only
    and built once per (p, lane)."""
    table = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=dtype)
    table.flags.writeable = False
    return table


def lane(p: int, k: int, held: int = 0) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds every entry of
    an odd-p ``batch_rank`` of matrices whose smaller side is k, at most
    p ((p - 1) + (k - 1) (p - 1)^2) in absolute value, and every integer
    up to ``held`` in absolute value."""
    bound = max(p * ((p - 1) + (k - 1) * (p - 1) ** 2), held)
    return np.dtype(np.int16 if bound < 2**15 else np.int32 if bound < 2**31
                    else np.int64)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p.  numpy divides an integer array by a scalar with a
    multiply and a shift, but takes a remainder by true division, so this
    runs about twice as fast as x % p."""
    return x - x // p * p


def pack_words(a) -> np.ndarray:
    """The last axis of an integer array, mod 2, packed into uint64 words:
    entry c goes to bit c % 64 of word c // 64."""
    a = np.asarray(a)
    k = a.shape[-1]
    packed = np.zeros(a.shape[:-1] + (8 * -(-k // 64),), dtype=np.uint8)
    # packbits reads any nonzero entry as 1, and a & 1 is a mod 2
    packed[..., : -(-k // 8)] = np.packbits(a & 1, axis=-1, bitorder="little")
    return packed.view("<u8")


def xor_rank(words: np.ndarray) -> np.ndarray:
    """Ranks over F_2 of n matrices given as uint64 words of shape
    (rows, w, n): word k of row i of matrix j is ``words[i, k, j]``, and
    holds columns 64 k to 64 k + 63, column c at bit c % 64.

    Eliminates in place, one row at a time: a row, once reduced, pivots
    on its lowest set bit, in its first nonzero word, and XORs itself
    into the rows below that have the bit.

    Rows of one word (w = 1) take their own loop: the pivot is row & -row
    itself, with no first nonzero word to find and no gather of the pivot
    word and of the bit below it, which cost most on small stacks.  A
    zero row has no bit, and clears nothing."""
    rows, w, n = words.shape
    if w == 1:
        flat = words[:, 0]
        for i in range(rows - 1):  # the last row clears nothing
            row = flat[i]
            below = flat[i + 1 :]
            below ^= ((below & (row & -row)) != 0) * row
        return (flat != 0).sum(axis=0)
    idx = np.arange(n)
    one = np.uint64(1)
    for i in range(rows - 1 if w else 0):  # the last row clears nothing
        row = words[i]
        lead = (row != 0).argmax(axis=0)
        word = row[lead, idx]
        below = words[i + 1 :]
        hit = np.minimum(below[:, lead, idx] & (word & -word), one)
        below ^= hit[:, None, :] * row
    # a row left nonzero pivoted, and a zero one lay in the span above it
    return words.any(axis=1).sum(axis=0)


def kernel_basis(a, p: int) -> list[np.ndarray]:
    """Deterministic basis of the null space, one vector per free column."""
    a = np.asarray(a, dtype=np.int64) % p
    return _rref_kernel(*rref(a, p), a.shape[1], p)


def _rref_kernel(red, pivots: list[int], n_cols: int, p: int) -> list[np.ndarray]:
    basis = []
    for free in sorted(set(range(n_cols)) - set(pivots)):
        v = np.zeros(n_cols, dtype=np.int64)
        v[free] = 1
        v[pivots] = -red[: len(pivots), free] % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# incremental echelon of sparse rows
#
# A basis maps each pivot column to its row.  Rows are ints read as bit
# vectors at p = 2, reduced by XOR as in M4RI (Albrecht-Bard), and dicts
# {column: coefficient} at odd p.  The basis stays fully reduced: each row
# is 1 at its pivot, its lowest column, and 0 at the other pivots, so its
# rows are those of ``rref``.


def sparse_row(entries, p: int):
    """The row of {column: coefficient} or of a dense vector."""
    if not isinstance(entries, dict):
        v = np.asarray(entries, dtype=np.int64) % p
        entries = {int(c): int(v[c]) for c in np.flatnonzero(v)}
    if p == 2:
        return sum(1 << c for c, v in entries.items() if v % 2)
    return {c: v % p for c, v in entries.items() if v % p}


def sparse_rows(m: np.ndarray, p: int) -> list:
    """The rows of a matrix with entries in [0, p), as ``sparse_row`` gives
    each, converted in one pass over the whole matrix."""
    if p == 2:
        packed = np.packbits(m, axis=1, bitorder="little")
        return [int.from_bytes(r.tobytes(), "little") for r in packed]
    rows = [{} for _ in range(len(m))]
    i, j = np.nonzero(m)
    for r, c, v in zip(i.tolist(), j.tolist(), m[i, j].tolist()):
        rows[r][c] = v
    return rows


def dense_row(row, n_cols: int, p: int) -> np.ndarray:
    if p == 2:
        packed = np.frombuffer(row.to_bytes(n_cols // 8 + 1, "little"), dtype=np.uint8)
        return np.unpackbits(packed, bitorder="little")[:n_cols].astype(np.int64)
    out = np.zeros(n_cols, dtype=np.int64)
    out[list(row)] = list(row.values())
    return out


def _axpy(x: dict, c: int, y: dict, p: int) -> None:
    """x -= c * y in place."""
    for col, v in y.items():
        s = (x.get(col, 0) - c * v) % p
        if s:
            x[col] = s
        else:
            x.pop(col, None)


def echelon_reduce(basis: dict, row, p: int):
    """The row with every pivot column of ``basis`` cleared.  It comes back
    empty exactly when it lies in the span of the basis."""
    if p == 2:
        bits = row
        while bits:
            low = bits & -bits
            bits ^= low
            hit = basis.get(low.bit_length() - 1)
            if hit is not None:
                row ^= hit
        return row
    row = dict(row)
    for c in [c for c in row if c in basis]:
        _axpy(row, row[c], basis[c], p)  # row[c] is untouched: other rows are 0 at c
    return row


def echelon_insert(basis: dict, row, p: int):
    """Reduce the row against ``basis`` and insert what is left.

    Returns the reduced row; it is empty, and nothing is inserted, when
    the row lies in the span of the basis.
    """
    row = echelon_reduce(basis, row, p)
    if not row:
        return row
    if p == 2:
        lead = (row & -row).bit_length() - 1
        for c, other in basis.items():
            if other >> lead & 1:
                basis[c] = other ^ row
    else:
        lead = min(row)
        inv = pow(row[lead], -1, p)
        row = {c: v * inv % p for c, v in row.items()}
        for other in basis.values():
            v = other.get(lead)
            if v:
                _axpy(other, v, row, p)
    basis[lead] = row
    return row


def echelon_kernel(basis: dict, n_cols: int, p: int) -> list[np.ndarray]:
    """Null space of the rows of ``basis``, as ``kernel_basis`` gives it."""
    return _rref_kernel(*_basis_rows(basis, n_cols, p), n_cols, p)


def _basis_rows(basis: dict, n_cols: int, p: int) -> tuple[np.ndarray, list[int]]:
    """The rows of ``basis`` as a dense matrix in pivot order, and the pivots."""
    pivots = sorted(basis)
    red = np.array([dense_row(basis[c], n_cols, p) for c in pivots],
                   dtype=np.int64).reshape(len(pivots), n_cols)
    return red, pivots

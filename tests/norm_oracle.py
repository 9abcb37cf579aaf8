"""The 2-adic norm-equation search, kept as the tests' oracle for
``field_models.hilbert2``: it decides whether z^2 = a x^2 + b y^2 has a
nontrivial solution without reading any symbol formula."""

from fractions import Fraction

import numpy as np


def norm_oracle_solvable(a: Fraction, b: Fraction, bits: int = 9) -> bool:
    """Brute-force check that z^2 = a x^2 + b y^2 has a nontrivial 2-adic
    solution: search primitive solutions modulo 2^bits with the standard
    lifting criteria.  Independent of hilbert2 by construction."""
    a, b = Fraction(a), Fraction(b)
    # scale by squares to integers
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    m = 1 << bits
    xs = np.arange(m, dtype=np.int64)
    x2 = (xs * xs) % m
    sq = np.zeros(m, dtype=bool)
    sq[np.unique(x2)] = True
    t = ((ai % m) * x2[:, None] + (bi % m) * x2[None, :]) % m
    odd = (xs % 2 == 1)
    xy_odd = odd[:, None] | odd[None, :]
    if (sq[t] & xy_odd).any():
        return True
    # x, y both even: z must be odd, so t = 1 mod 8
    return bool(((t % 8 == 1) & ~xy_odd).any())

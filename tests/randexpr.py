"""Seeded random expression generators for the property tests."""

from __future__ import annotations

import math
import random

from etkit.errors import ValidationError
from etkit.pairs import (
    EBlock,
    Ext,
    FreeProd,
    PAdicBlock,
    PairExpr,
    Trivial,
    ZBlock,
    normalize,
    rank,
)
from etkit.units import make_unit


def random_unit(rng: random.Random, p: int):
    num = rng.randrange(1, 4 * p * p)
    while num % p == 0:
        num += 1
    den = rng.randrange(1, 4 * p * p)
    # num/den must be a 1-unit, so for odd p the residues have to agree
    while den % p != num % p if p > 2 else den % p == 0:
        den += 1
    return make_unit(p, num, den)


def random_padic(rng: random.Random, p: int) -> PAdicBlock:
    """Each draw passes ``PAdicBlock.validate``, so none is retried."""
    if p != 2:  # n is even, at least p + 1, and n - 2 is a multiple of p - 1
        n = p + 1 + (p - 1) * rng.randrange(0, 3)
        return PAdicBlock(n=n, q=p ** rng.choice([1, 2]), case="I")
    case = rng.choice(["I", "II", "III", "IV"])
    n = rng.choice([3, 5, 7]) if case == "II" else rng.choice([4, 6])
    if case == "I":
        return PAdicBlock(n=n, q=rng.choice([4, 8]), case=case)
    f = rng.choice([2, 3, 4] if case == "IV" else [2, 3, math.inf])
    return PAdicBlock(n=n, q=2, case=case, f=f)


def random_block(rng: random.Random, p: int, rank_budget: int) -> PairExpr:
    roll = rng.random()
    if roll < 0.10:
        return Trivial()
    if roll < 0.45:
        return ZBlock(random_unit(rng, p))
    if roll < 0.65 and p == 2:
        return EBlock()
    block = random_padic(rng, p)
    if block.n <= rank_budget:
        return block
    return ZBlock(random_unit(rng, p))


def random_expr(rng: random.Random, p: int, max_rank: int = 8,
                depth: int = 3) -> PairExpr:
    """A normalized random expression with rank <= max_rank."""

    def go(d: int, budget: int) -> PairExpr:
        if d == 0 or budget <= 1 or rng.random() < 0.45:
            return random_block(rng, p, budget)
        if rng.random() < 0.6:
            k = rng.choice([2, 3])
            parts = []
            left = budget
            for _ in range(k):
                child = go(d - 1, max(1, left // k))
                parts.append(child)
                left -= rank(child)
            return FreeProd(tuple(parts))
        m = rng.choice([1, 1, 2])
        base = go(d - 1, max(1, budget - m))
        return Ext(m, base)

    for _ in range(200):
        cand = go(depth, max_rank)
        try:
            out = normalize(cand, p)
        except ValidationError:
            continue
        if rank(out) <= max_rank:
            return out
    raise RuntimeError("could not draw an expression within the rank budget")


def random_ext_rooted(rng: random.Random, p: int, max_h1: int = 6) -> Ext:
    """A normalized Ext-rooted expression with dim H^1 <= max_h1."""
    for _ in range(500):
        m = rng.choice([1, 1, 2])
        base = random_expr(rng, p, max_rank=max(1, max_h1 - m), depth=2)
        if rank(base) == 0:
            continue
        out = normalize(Ext(m, base), p)
        if isinstance(out, Ext) and rank(out) <= max_h1:
            return out
    raise RuntimeError("could not draw an Ext-rooted expression")

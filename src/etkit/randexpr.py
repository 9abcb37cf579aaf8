"""Seeded random expression generators for the property tests."""

from __future__ import annotations

import math
import random

from .errors import ValidationError
from .pairs import (
    EBlock,
    Ext,
    FreeProd,
    PAdicBlock,
    PairExpr,
    Trivial,
    ZBlock,
    normalize,
    rank,
    validate,
)
from .units import DEFAULT_PRECISION, make_unit


def random_unit(rng: random.Random, p: int, K: int = DEFAULT_PRECISION):
    num = rng.randrange(1, 4 * p * p)
    while num % p == 0:
        num += 1
    den = rng.randrange(1, 4 * p * p)
    # num/den must be a 1-unit, so for odd p the residues have to agree
    while den % p != num % p if p > 2 else den % p == 0:
        den += 1
    return make_unit(p, num, den, K)


def random_padic(rng: random.Random, p: int) -> PAdicBlock:
    for _ in range(200):
        if p == 2:
            case = rng.choice(["I", "II", "III", "IV"])
            if case == "II":
                n = rng.choice([3, 5, 7])
            else:
                n = rng.choice([4, 6])
            q = rng.choice([4, 8]) if case == "I" else 2
            if case == "I":
                f = None
            elif case == "IV":
                f = rng.choice([2, 3, 4])
            else:
                f = rng.choice([2, 3, math.inf])
        else:
            case = "I"
            n = p + 1 + (p - 1) * rng.randrange(0, 3)
            q = p ** rng.choice([1, 2])
            f = None
        cand = PAdicBlock(n=n, q=q, case=case, f=f)
        try:
            validate(cand, p)
            return cand
        except ValidationError:
            continue
    raise RuntimeError("could not draw a valid block")


def random_block(rng: random.Random, p: int, rank_budget: int,
                 K: int = DEFAULT_PRECISION) -> PairExpr:
    roll = rng.random()
    if roll < 0.10:
        return Trivial()
    if roll < 0.45:
        return ZBlock(random_unit(rng, p, K))
    if roll < 0.65 and p == 2:
        return EBlock()
    block = random_padic(rng, p)
    if block.n <= rank_budget:
        return block
    return ZBlock(random_unit(rng, p, K))


def random_expr(rng: random.Random, p: int, max_rank: int = 8,
                depth: int = 3, K: int = DEFAULT_PRECISION) -> PairExpr:
    """A normalized random expression with rank <= max_rank."""

    def go(d: int, budget: int) -> PairExpr:
        if d == 0 or budget <= 1 or rng.random() < 0.45:
            return random_block(rng, p, budget, K)
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
            out = normalize(cand, p, K)
        except ValidationError:
            continue
        if rank(out) <= max_rank:
            return out
    raise RuntimeError("could not draw an expression within the rank budget")


def random_ext_rooted(rng: random.Random, p: int, max_h1: int = 6,
                      K: int = DEFAULT_PRECISION) -> Ext:
    """A normalized Ext-rooted expression with dim H^1 <= max_h1."""
    for _ in range(500):
        m = rng.choice([1, 1, 2])
        base = random_expr(rng, p, max_rank=max(1, max_h1 - m), depth=2, K=K)
        if rank(base) == 0:
            continue
        out = normalize(Ext(m, base), p, K)
        if isinstance(out, Ext) and rank(out) <= max_h1:
            return out
    raise RuntimeError("could not draw an Ext-rooted expression")

"""Seeded inputs for the benchmark workloads.

Everything here is independent of ``etkit``: expression text is built from
fixed pools of leaf blocks known to be valid at each prime, augmented maps
are plain integer tensors, and field models and groups are JSON in the
encodings the CLI documents.  A later change to ``etkit.randexpr`` or to
normalization therefore cannot change what the benchmark feeds the program.

Each workload is drawn as a sequence of *rounds*.  A round is a fixed list
of strata (the properties an item's cost depends on); only the values
inside a stratum are random.  So two seeds give the same mix, and a run
that completes whole rounds measures the same mix whatever its length.
"""

from __future__ import annotations

import json
import math
import random
from itertools import product as iter_product

# (text, rank) leaf blocks; every one parses and validates at its prime.
LEAVES = {
    2: [
        ("triv", 0),
        ("E", 1),
        ("Z(1)", 1), ("Z(-1)", 1), ("Z(3)", 1), ("Z(5)", 1),
        ("Z(-3)", 1), ("Z(7)", 1), ("Z(1/3)", 1), ("Z(-5/3)", 1),
        ("padic(n=3,case=II,f=2)", 3),
        ("padic(n=3,case=II,f=inf)", 3),
        ("padic(n=4,q=4,case=I)", 4),
        ("padic(n=4,case=III,f=2)", 4),
        ("padic(n=4,case=IV,f=3)", 4),
        ("padic(n=5,case=II,f=3)", 5),
        ("padic(n=6,q=8,case=I)", 6),
    ],
    3: [
        ("triv", 0),
        ("Z(1)", 1), ("Z(4)", 1), ("Z(7)", 1), ("Z(-2)", 1),
        ("Z(10)", 1), ("Z(4/7)", 1), ("Z(-5)", 1),
        ("padic(n=4,q=3,case=I)", 4),
        ("padic(n=4,q=9,case=I)", 4),
        ("padic(n=6,q=3,case=I)", 6),
    ],
}


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    """Independent stream per (seed, workload, round)."""
    return random.Random(f"{seed}:{workload}:{index}")


# ---------------------------------------------------------------------------
# expressions


def _leaf(rng: random.Random, p: int, r: int, lone: bool) -> str | None:
    """A leaf of rank exactly r; a lone factor is never E or triv, so an
    extension over it keeps its extension root after normalization."""
    pool = [t for t, k in LEAVES[p] if k == r and not (lone and t in ("E", "triv"))]
    return rng.choice(pool) if pool else None


def expr_of_rank(rng: random.Random, p: int, r: int, depth: int = 3,
                 lone: bool = False, nested: bool = False) -> str:
    """Expression text of rank (dim H^1) exactly r >= 1.

    Rank is tracked here: leaves carry theirs, a free product adds, and
    ext(m, X) adds m.  ``lone`` marks a base that sits alone under an
    extension; it then avoids E and triv at the top, which normalization
    would fold away from the extension root.
    """
    leaf = _leaf(rng, p, r, lone)
    roll = rng.random()
    if leaf is not None and (depth <= 0 or roll < 0.35 or r == 1):
        return leaf
    if depth > 0 and roll < 0.6:
        m = 1 if r == 2 else rng.choice([1, 1, 2])
        return f"ext({m}, {expr_of_rank(rng, p, r - m, depth - 1, True)})"
    k = 2 if r == 2 else rng.choice([2, 2, 3])
    cuts = sorted(rng.sample(range(1, r), k - 1))
    factors = [expr_of_rank(rng, p, b - a, depth - 1, nested=True)
               for a, b in zip([0] + cuts, cuts + [r])]
    if not lone and rng.random() < 0.2:
        factors.insert(rng.randrange(len(factors) + 1), "triv")
    text = " * ".join(factors)
    return f"({text})" if nested else text


def ext_rooted(rng: random.Random, p: int, d: int) -> str:
    """Extension-rooted expression with dim H^1 = d >= 2."""
    m = rng.choice([1, 2]) if d >= 3 else 1
    return f"ext({m}, {expr_of_rank(rng, p, d - m, 2, True)})"


# ---------------------------------------------------------------------------
# augmented bilinear maps (plain nested lists: tensor[i][j][k], eps[i])


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination on Python ints."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _random_invertible(rng: random.Random, p: int, n: int) -> list[list[int]]:
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _rank_mod(m, p) == n:
            return m


def _inverse(m: list[list[int]], p: int) -> list[list[int]]:
    n = len(m)
    aug = [[x % p for x in row] + [int(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [(x * inv) % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def pair_value(t, a, b, p: int) -> list[int]:
    """B(a, b) as a length-e vector."""
    d, e = len(t), len(t[0][0])
    return [sum(a[i] * b[j] * t[i][j][k] for i in range(d) for j in range(d)) % p
            for k in range(e)]


def random_map(rng: random.Random, p: int, d: int, e: int, eps_nonzero: bool):
    """Tensor whose d^2 x e flattening has rank e, so the equivalence
    search solves for Q uniquely, plus eps (zero at odd p)."""
    while True:
        t = [[[rng.randrange(p) for _ in range(e)] for _ in range(d)]
             for _ in range(d)]
        flat = [t[i][j] for i in range(d) for j in range(d)]
        if _rank_mod(flat, p) == e:
            break
    eps = [0] * d
    if eps_nonzero:
        while not any(eps):
            eps = [rng.randrange(2) for _ in range(d)]
    return t, eps


def transform(t, eps, P, Q, p: int):
    """The map B2 with B2(Pa, Pb) = Q B1(a, b) and eps2 = P eps1."""
    d, e = len(t), len(t[0][0])
    Pi = _inverse(P, p)
    # B2(x, y) = Q B1(Pi x, Pi y): t2[x][y] = Q sum_ij Pi[i][x] Pi[j][y] t[i][j]
    t2 = [[[0] * e for _ in range(d)] for _ in range(d)]
    for x in range(d):
        for y in range(d):
            v = [sum(Pi[i][x] * Pi[j][y] * t[i][j][k] for i in range(d)
                     for j in range(d)) % p for k in range(e)]
            t2[x][y] = [sum(Q[l][k] * v[k] for k in range(e)) % p for l in range(e)]
    eps2 = [sum(P[i][j] * eps[j] for j in range(d)) % p for i in range(d)]
    return t2, eps2


def invariant(t, eps, p: int) -> list:
    """Sorted multiset over a in A_1 of (rank of a.T, B(a, a) = 0, a = eps,
    a = 0).

    Equal for equivalent augmented maps: from B2(Pa, Pb) = Q B1(a, b),
    the map b -> B2(Pa, b) has the rank of b -> B1(a, b), B2(Pa, Pa) = 0
    exactly when B1(a, a) = 0, Pa = eps2 exactly when a = eps1, and
    Pa = 0 exactly when a = 0.
    """
    d, e = len(t), len(t[0][0])
    out = []
    for a in iter_product(range(p), repeat=d):
        w = [[sum(a[i] * t[i][j][k] for i in range(d)) % p for k in range(e)]
             for j in range(d)]
        out.append((_rank_mod(w, p), not any(pair_value(t, a, a, p)),
                    list(a) == list(eps), not any(a)))
    return sorted(out)


def equivalence_pair(rng: random.Random, p: int, d: int, e: int,
                     eps_nonzero: bool, verdict: str):
    """Two maps of equal (p, d, e): "yes" by a random invertible change of
    basis, "no" only when the invariant above certifies inequivalence."""
    t1, eps1 = random_map(rng, p, d, e, eps_nonzero)
    if verdict == "yes":
        P = _random_invertible(rng, p, d)
        Q = _random_invertible(rng, p, e)
        t2, eps2 = transform(t1, eps1, P, Q, p)
        return (t1, eps1), (t2, eps2)
    inv1 = invariant(t1, eps1, p)
    while True:
        t2, eps2 = random_map(rng, p, d, e, eps_nonzero)
        if invariant(t2, eps2, p) != inv1:
            return (t1, eps1), (t2, eps2)


def check_equivalence(m1, m2, P, Q, p: int) -> bool:
    """Q B1(a, b) = B2(Pa, Pb) on basis pairs, P eps1 = eps2, P and Q
    invertible."""
    (t1, eps1), (t2, eps2) = m1, m2
    d, e = len(t1), len(t1[0][0])
    if _rank_mod(P, p) != d or _rank_mod(Q, p) != e:
        return False
    if [sum(P[i][j] * eps1[j] for j in range(d)) % p for i in range(d)] \
            != [x % p for x in eps2]:
        return False
    cols = [[P[r][c] for r in range(d)] for c in range(d)]  # P a_i
    for i in range(d):
        for j in range(d):
            lhs = [sum(Q[l][k] * t1[i][j][k] for k in range(e)) % p
                   for l in range(e)]
            if lhs != pair_value(t2, cols[i], cols[j], p):
                return False
    return True


# ---------------------------------------------------------------------------
# field models, their elements, and groups (JSON as the CLI takes it)

FINITE_Q = {2: [3, 5, 7, 9, 11, 13, 25, 27], 3: [4, 7, 13, 16, 19, 25]}
LOCAL_ELL = {2: [3, 5, 7, 11, 13], 3: [7, 13, 19]}


def finite_field(q: int) -> dict:
    return {"kind": "FiniteField", "params": {"q": q}}


def laurent(base: dict, var: str, precision: int) -> dict:
    return {"kind": "Laurent", "params": {"base": base, "var": var},
            "precision": precision}


def field_model(rng: random.Random, p: int, kind: str) -> dict:
    """A model of the given backend kind; towers have depth 1 or 2."""
    if kind == "FiniteField":
        return finite_field(rng.choice(FINITE_Q[p]))
    if kind == "LocalRational":
        return {"kind": "LocalRational", "params": {"ell": rng.choice(LOCAL_ELL[p])}}
    if kind in ("DyadicRational", "RealField", "ComplexField"):
        return {"kind": kind, "params": {}}
    q = rng.choice([q for q in FINITE_Q[p] if q < 20])
    inner = laurent(finite_field(q), "t", rng.choice([6, 8]))
    if kind == "Laurent1":
        return inner
    return laurent(inner, "u", rng.choice([6, 8]))


def is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def prime_q(rng, p: int) -> int:
    return rng.choice([q for q in FINITE_Q[p] if is_prime(q)])


def non_power_mod(q: int, p: int) -> int:
    """Smallest x in F_q (q prime) that is not a p-th power."""
    return next(x for x in range(2, q) if pow(x, (q - 1) // p, q) != 1)


def one(model: dict):
    """JSON encoding of 1 in the model."""
    if model["kind"] == "Laurent":
        return {"v": 0, "coeffs": [one(model["params"]["base"])]}
    return 1


def field_element(rng, p: int, model: dict, non_power: bool):
    """A nonzero element; with non_power, one that is not a p-th power."""
    kind = model["kind"]
    if kind == "FiniteField":
        q = model["params"]["q"]
        return non_power_mod(q, p) if non_power else rng.randrange(1, q)
    if kind == "Laurent":
        base = model["params"]["base"]
        if non_power:  # the uniformizer
            return {"v": 1, "coeffs": [one(base)]}
        return {"v": rng.choice([-1, 0, 1, 2]),
                "coeffs": [field_element(rng, p, base, False),
                           field_element(rng, p, base, False)]}
    if kind == "LocalRational":
        ell = model["params"]["ell"]
        if non_power:
            return ell * rng.choice([1, 2, 4])
        return {"num": rng.choice([1, -1]) * rng.randrange(1, 30),
                "den": rng.randrange(1, 12)}
    if kind == "RealField":
        return -rng.randrange(1, 20) if non_power else rng.choice([-3, -1, 2, 7])
    if kind == "DyadicRational":
        return rng.choice([-1, 2, 3, 5, 6, 7, -2, 10]) if non_power \
            else rng.choice([-1, 2, 3, 5, {"num": 3, "den": 7}, -6])
    return rng.choice([2, -1, {"num": 2, "den": 3}])


def group_of_order(p: int, n: int, index: int):
    """(group JSON, elements' coordinates, coordinate orders) for a group
    of order n; a coordinate tuple gives each element's cyclic components,
    with the dihedral reflection bit last, used to write down
    homomorphisms.  Round ``index`` takes the kinds in turn, the same for
    every seed."""
    choices = [("cyclic", n)]
    if n % 2 == 0 and n >= 4:
        choices.append(("dihedral", n))
    for a in range(2, n):
        if n % a == 0 and 2 <= n // a and a <= n // a:
            choices.append(("product", a, n // a))
    pick = choices[index % len(choices)]
    if pick[0] == "cyclic":
        return {"kind": "cyclic", "n": n}, [(x,) for x in range(n)], (n,)
    if pick[0] == "dihedral":
        m = n // 2
        return ({"kind": "dihedral", "order": n},
                [(x % m, x // m) for x in range(n)], (m, 2))
    a, b = pick[1], pick[2]
    return ({"kind": "product", "factors": [{"kind": "cyclic", "n": a},
                                            {"kind": "cyclic", "n": b}]},
            [(x // b, x % b) for x in range(n)], (a, b))


def homomorphism(rng, p: int, group: dict, coords, orders) -> list[int]:
    """Values of a homomorphism G -> F_p over the elements.

    A coordinate may carry a coefficient when p divides its order; for the
    dihedral group the rotation coordinate also needs an even rotation
    order, since rotations by an odd number of steps are products of two
    reflections."""
    coeff = []
    for k, order in enumerate(orders):
        ok = order % p == 0
        if group["kind"] == "dihedral" and k == 0:
            ok = p == 2 and order % 2 == 0
        coeff.append(rng.randrange(p) if ok else 0)
    return [sum(c * x for c, x in zip(coeff, xs)) % p for xs in coords]


def central_kernel(p: int, group: dict, coords, orders) -> list[int]:
    """A central subgroup of order p: multiples of order/p in one cyclic
    coordinate (the rotation half-turn for a dihedral group)."""
    k = next(i for i, o in enumerate(orders) if o % p == 0
             and not (group["kind"] == "dihedral" and i == 1))
    step = orders[k] // p
    return sorted(i for i, xs in enumerate(coords)
                  if xs[k] % step == 0 and all(x == 0 for j, x in enumerate(xs)
                                               if j != k))


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))

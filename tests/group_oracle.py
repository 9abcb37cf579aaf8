"""The structural route to dim H^1(G, F_p), kept as the tests' oracle for
``cocycles.h1_dim``: count the elements of order dividing p in the
abelianization G/[G, G], which reads no cochain and no elimination."""

from etkit.cocycles import FiniteGroup, quotient, subgroup_closure
from etkit.errors import ValidationError


def inverse(g: FiniteGroup, i: int) -> int:
    return int(g.inverses[i])


def power(g: FiniteGroup, i: int, k: int) -> int:
    acc, base = 0, i
    if k < 0:
        base, k = inverse(g, i), -k
    for _ in range(k):
        acc = int(g.table[acc, base])
    return acc


def commutator_subgroup(g: FiniteGroup) -> list[int]:
    t, inv = g.table, g.inverses
    comms = t[t, t[inv[:, None], inv[None, :]]]  # [a, b] = ab a^-1 b^-1
    return subgroup_closure(g, sorted(set(comms.ravel().tolist())))


def h1_dim_structural(g: FiniteGroup, p: int) -> int:
    """Independent route: p-torsion count in the abelianization."""
    q, _ = quotient(g, commutator_subgroup(g))
    count = sum(1 for x in range(q.order) if power(q, x, p) == 0)
    k = 0
    while p ** (k + 1) <= count:
        k += 1
    if p ** k != count:
        raise ValidationError("torsion count is not a p-power")
    return k

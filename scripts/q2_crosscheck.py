#!/usr/bin/env python3
"""Cross-check the dyadic rationals against the rank-3 case II block.

Runs the independent routes side by side: multiplicative invariants of
the theta image, whose [S : S^2] must equal the number of square classes
of Z_2^x that the field backend sees, the Hilbert-symbol Gram matrix
against the block's cup matrix, the norm-equation oracle on all 64
square-class pairs, and the pairing equivalence search.  Everything here
is recomputed from scratch; the norm-equation search is the tests' oracle
in ``tests/norm_oracle.py``.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# etkit from this checkout, and the test oracles that moved out of it
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from etkit.cohomology import build_cohomology, is_demuskin, log_level_direct
from etkit.field_models import (
    DyadicRational,
    check_pairing_match,
    class_group,
    class_of,
    from_field_model,
    hilbert2,
    predict_galois_pair,
)
from etkit.pairs import PAdicBlock, render, theta_generators
from etkit.rigidity import find_equivalence, from_cohomology
from etkit.units import subgroup_invariants
from norm_oracle import norm_oracle_solvable


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bits", type=int, default=9,
                    help="modulus 2^bits for the norm-equation search")
    args = ap.parse_args()

    block = PAdicBlock(n=3, q=2, case="II", f=2, s=4)
    print(f"block under test: {render(block)}")

    gens = theta_generators(block, 2)
    inv = subgroup_invariants(2, gens)
    print(f"theta image of {[f'{g.num}/{g.den}' for g in gens]}: "
          f"q = {inv.q_invariant}, eps nonzero = {inv.eps_nonzero}, "
          f"[S : S^2] = {inv.square_index}")

    model = DyadicRational()
    unit_classes = {class_of(model, 2, Fraction(s * u))
                    for s in (1, -1) for u in (1, 3, 5, 7)}
    squares_agree = inv.square_index == len(unit_classes)
    if not squares_agree:
        print(f"  DISAGREE: [S : S^2] = {inv.square_index}, but Z_2^x has "
              f"{len(unit_classes)} square classes")
    labels = class_group(model, 2)
    m = from_field_model(model, 2)
    print(f"square classes: {labels}, eps = class of -1 = "
          f"{class_of(model, 2, Fraction(-1))}")
    print("Hilbert Gram over the class basis:")
    for row in m.tensor[:, :, 0]:
        print("   ", row.tolist())
    alg = build_cohomology(block, 2, 3)
    print("block cup Gram:")
    for row in alg.gram_matrix():
        print("   ", row.tolist())

    bad = 0
    for a in [Fraction(s * u * t) for s in (1, -1) for u in (1, 5)
              for t in (1, 2)]:
        for b in [Fraction(s * u * t) for s in (1, -1) for u in (1, 5)
                  for t in (1, 2)]:
            formula = hilbert2(a, b) == 0
            oracle = norm_oracle_solvable(a, b, bits=args.bits)
            if formula != oracle:
                bad += 1
                print(f"  DISAGREE at ({a}, {b}): "
                      f"formula {formula}, oracle {oracle}")
    print(f"norm-equation oracle: {64 - bad}/64 pairs agree")

    match = check_pairing_match(model, block, 2)
    print(f"pairing match (exhaustive fallback available): {match}")
    found = find_equivalence(m, from_cohomology(alg))
    if found is not None:
        print(f"  witness change of basis: {found[0].tolist()}")

    predicted = predict_galois_pair(model, 2)
    print(f"predicted pair: {render(predicted)}")
    v = is_demuskin(predicted, 2)
    print(f"recognized as Demuskin: n = {v.n}, q = {v.q}, case {v.case}")
    print(f"log level, direct route at degree 6: "
          f"{log_level_direct(block, 2, 6)}")
    return 0 if not bad and match and squares_agree else 1


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Survey random expressions: classification, log levels, rigidity.

Draws seeded random normalized expressions and tabulates what the
recognizers say about them.  Useful for eyeballing distributions and as
a long-running soak beyond the sizes pinned in the acceptance tests.
"""

import argparse
import math
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# etkit from this checkout, and the test oracles that moved out of it
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from etkit.cohomology import (
    build_cohomology,
    dims_closed_form,
    is_demuskin,
    log_level_direct,
    log_level_recursive,
)
from etkit.pairs import Ext, render
from etkit.rigidity import check_rigidity_criterion
from randexpr import random_expr, random_ext_rooted


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=300, help="expressions to draw")
    ap.add_argument("--p", type=int, default=2, choices=[2, 3])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-rank", type=int, default=8)
    ap.add_argument("--show", type=int, default=5,
                    help="sample expressions to print per bucket")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    kinds = Counter()
    levels = Counter()
    demuskin = Counter()
    mismatches = 0
    samples: dict[str, list[str]] = {}

    for _ in range(args.n):
        e = random_expr(rng, args.p, max_rank=args.max_rank)
        kind = type(e).__name__
        kinds[kind] += 1
        samples.setdefault(kind, [])
        if len(samples[kind]) < args.show:
            samples[kind].append(render(e))

        if dims_closed_form(e, args.p, 4) != build_cohomology(e, args.p, 4).dims:
            mismatches += 1

        v = is_demuskin(e, args.p)
        demuskin["yes" if v.is_demuskin else "no"] += 1

        if args.p == 2:
            rec = log_level_recursive(e, 2)
            levels["inf" if rec is math.inf else str(rec)] += 1
            direct = log_level_direct(e, 2, 5)
            agree = direct == ">5" if rec is math.inf else (
                direct == rec if rec <= 5 else direct == ">5")
            if not agree:
                mismatches += 1

    print(f"drew {args.n} expressions at p = {args.p}, "
          f"seed {args.seed}, rank <= {args.max_rank}")
    print(f"kinds: {dict(kinds)}")
    for kind, exprs in sorted(samples.items()):
        print(f"  {kind}:")
        for s in exprs:
            print(f"    {s}")
    print(f"Demuskin verdicts: {dict(demuskin)}")
    if args.p == 2:
        print(f"log levels: {dict(sorted(levels.items()))}")
    print(f"dimension or level mismatches between routes: {mismatches}")

    holds = 0
    checked = 0
    for _ in range(max(args.n // 10, 10)):
        e = random_ext_rooted(rng, args.p, max_h1=6)
        assert isinstance(e, Ext)
        rep = check_rigidity_criterion(e, args.p)
        checked += 1
        if rep.holds:
            holds += 1
        else:
            print(f"  rigidity criterion FAILED on {render(e)}: "
                  f"{rep.counterexamples}")
    print(f"rigidity criterion holds on {holds}/{checked} "
          "extension-rooted draws")
    return 0 if not mismatches and holds == checked else 1


if __name__ == "__main__":
    raise SystemExit(main())

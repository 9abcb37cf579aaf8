"""Golden corpus for the expression side of the CLI.

The README expression examples, hand-picked expressions covering every
node kind, and seeded ``randexpr`` draws at p = 2 and p = 3, each run
through every non-field verb (parse, normalize, invariants, cohom,
demuskin, logl, rigid), plus inputs that must exit 1, replayed through
``main(argv)``: the exit code and stdout must match
``tests/data/expr_golden.json`` byte for byte.  The corpus was generated
before the expression walks were restructured, so it pins their
behaviour across refactors.  Regenerate it only for an intended output
change:

    PYTHONPATH=src python tests/test_expr_golden.py
"""

import contextlib
import io
import json
import random
from pathlib import Path

from etkit.cli import main

DATA = Path(__file__).parent / "data" / "expr_golden.json"


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_expr_golden_corpus():
    cases = json.loads(DATA.read_text())
    assert len(cases) > 400
    mismatches = [case["argv"] for case in cases
                  if _run(case["argv"]) != (case["code"], case["stdout"])]
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# corpus generation


VERBS = ("parse", "normalize", "invariants", "cohom", "demuskin", "logl", "rigid")

README = [
    ["invariants", "--p", "2", "ext(1,E)"],
    ["demuskin", "--p", "2", "padic(n=3,case=II,f=2,s=4)"],
    ["cohom", "--p", "3", "--max-degree", "4", "ext(2,triv)"],
    ["logl", "--p", "2", "padic(n=3,case=II,f=2)"],
    ["rigid", "--p", "3", "ext(1,Z(1))"],
]

# (p, expression): every node kind and every normalize rewrite
HAND = [
    (2, "triv"), (2, "E"), (2, "Z(3)"), (2, "Z(-3/5)"),
    (2, "padic(n=4,q=4,case=I)"), (2, "padic(n=5,case=II,f=inf)"),
    (2, "padic(n=4,case=III,f=inf)"), (2, "padic(n=4,case=IV,f=3,s=2)"),
    (2, "ext(1, (E * Z(5)))"), (2, "ext(1,triv)"), (2, "ext(2,ext(1,E))"),
    (2, "(E * triv) * (Z(5) * (E * Z(3)))"), (2, "ext(1, padic(n=3,case=II,f=2))"),
    (3, "triv"), (3, "Z(7)"), (3, "Z(4/7)"), (3, "padic(n=4,q=3,case=I)"),
    (3, "padic(n=6,q=9,case=I)"), (3, "ext(1,triv)"), (3, "ext(2, Z(4) * Z(7))"),
]

# inputs that must exit 1
BAD = [
    ["parse", "--p", "3", "E"],
    ["normalize", "--p", "2", "padic(n=3,q=4,case=I)"],
    ["invariants", "--p", "2", "Z(2)"],
    ["cohom", "--p", "2", "foo"],
    ["demuskin", "--p", "2", "ext(0, E)"],
    ["logl", "--p", "2", "Z(5) *"],
    ["rigid", "--p", "4", "E"],
    ["parse", "--p", "2", "padic(n=4,q=2,case=III)"],
    ["invariants", "--p", "3", "padic(n=4,q=3,case=II,f=2)"],
]


def _draws() -> list[tuple[int, str]]:
    from etkit.pairs import render
    from randexpr import random_expr, random_ext_rooted

    out = []
    for p in (2, 3):
        for seed in range(20):
            out.append((p, render(random_expr(random.Random(seed), p, max_rank=6))))
        for seed in range(12):
            out.append((p, render(random_ext_rooted(random.Random(seed), p))))
    return out


def _argvs() -> list[list[str]]:
    argvs = [list(a) for a in README]
    for p, text in HAND + _draws():
        argvs.extend([verb, "--p", str(p), text] for verb in VERBS)
    return argvs + [list(a) for a in BAD]


def _generate() -> list[dict]:
    cases = []
    for argv in _argvs():
        code, out = _run(argv)
        cases.append({"argv": argv, "code": code, "stdout": out})
    return cases


if __name__ == "__main__":
    DATA.write_text(json.dumps(_generate(), indent=1) + "\n")

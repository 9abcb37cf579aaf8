"""Golden corpus for the field backends.

Every `etkit field` verb on every backend at p = 2 and p = 3, plus the
README `field` examples, replayed through ``main(argv)``: the exit code
and stdout must match ``tests/data/field_golden.json`` byte for byte.
The corpus was generated before the backends were restructured, so it
pins their behaviour across refactors.  Regenerate it only for an
intended output change:

    PYTHONPATH=src python tests/test_field_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from etkit.cli import main

DATA = Path(__file__).parent / "data" / "field_golden.json"


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_field_golden_corpus():
    cases = json.loads(DATA.read_text())
    assert len(cases) > 300
    mismatches = [case["argv"] for case in cases
                  if _run(case["argv"]) != (case["code"], case["stdout"])]
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# corpus generation


def _ff(q):
    return {"kind": "FiniteField", "params": {"q": q}}


def _laurent(base, var):
    return {"kind": "Laurent", "params": {"base": base, "var": var},
            "precision": 8}


def _rational(kind, **params):
    return {"kind": kind, "params": params}


def _one(model):
    if model["kind"] == "Laurent":
        return {"v": 0, "coeffs": [_one(model["params"]["base"])]}
    return 1


def _reps(model) -> list:
    """JSON encodings of the class-group basis representatives."""
    from etkit.smallfields import gf

    kind, params = model["kind"], model["params"]
    if kind == "FiniteField":
        return [gf(params["q"]).generator]
    if kind == "LocalRational":
        return [gf(params["ell"]).generator, params["ell"]]
    if kind == "DyadicRational":
        return [-1, 2, 5]
    if kind == "RealField":
        return [-1]
    if kind == "ComplexField":
        return []
    base = params["base"]
    return ([{"v": 0, "coeffs": [r]} for r in _reps(base)]
            + [{"v": 1, "coeffs": [_one(base)]}])


def _extra(model):
    """One more nonzero element outside the basis."""
    kind = model["kind"]
    if kind == "FiniteField":
        return model["params"]["q"] - 1
    if kind == "Laurent":
        one = _one(model["params"]["base"])
        return {"v": -1, "coeffs": [one, one]}
    return {"num": -3, "den": 7}


TOWER2 = _laurent(_laurent(_ff(3), "t"), "u")
MODELS = {
    2: [_ff(3), _ff(5), _ff(9), _rational("LocalRational", ell=3),
        _rational("LocalRational", ell=5), _rational("DyadicRational"),
        _rational("RealField"), _rational("ComplexField"),
        _laurent(_ff(5), "t"), _laurent(_ff(7), "t"), TOWER2],
    3: [_ff(4), _ff(7), _rational("LocalRational", ell=7),
        _rational("ComplexField"), _laurent(_ff(7), "t"),
        _laurent(_laurent(_ff(7), "t"), "u")],
}
# a search bound for trichotomic and omember that keeps the tower cases fast
BOUND = ["--bound", "50"]

DYADIC = json.dumps(_rational("DyadicRational"))
README = [
    ["field", "classgroup", "--p", "2", "--model", DYADIC],
    ["field", "pairing", "padic(n=3,case=II,f=2)", "--p", "2", "--model", DYADIC],
    ["field", "symbol", "--p", "2", "--model", DYADIC, "--a", '{"num":2}',
     "--b", '{"num":-1}'],
    ["field", "predict", "--p", "2", "--model", json.dumps(TOWER2)],
    ["field", "trichotomic", "--p", "2", "--model", DYADIC, "--a", "2"],
    ["field", "omember", "--p", "2", "--model", json.dumps(_ff(3)), "--a", "2",
     "--h", "[[0]]", "--target", "OMinus"],
    ["field", "rigidity", "--p", "2", "--model", json.dumps(_ff(5))],
]


def _argvs() -> list[list[str]]:
    argvs = list(README)
    for p, models in MODELS.items():
        ps = str(p)
        for model in models:
            m = json.dumps(model, separators=(",", ":"))
            base = ["--p", ps, "--model", m]
            argvs.append(["field", "classgroup", *base])
            argvs.append(["field", "predict", *base])
            code, out = _run(["field", "predict", *base])
            assert code == 0, model
            argvs.append(["field", "pairing", json.loads(out)["expr"], *base])
            reps = _reps(model)
            elems = [json.dumps(x) for x in reps + [_extra(model)]]
            for a in elems:
                for b in elems:
                    argvs.append(["field", "symbol", *base, "--a", a, "--b", b])
            for a in elems:
                argvs.append(["field", "trichotomic", *base, *BOUND, "--a", a])
                for target in ("OMinus", "OPlus", "ORing"):
                    argvs.append(["field", "omember", *base, *BOUND, "--a", a,
                                  "--h", "all", "--target", target])
            argvs.append(["field", "rigidity", *base])
    return argvs


def _generate() -> list[dict]:
    cases = []
    for argv in _argvs():
        code, out = _run(argv)
        cases.append({"argv": argv, "code": code, "stdout": out})
    return cases


if __name__ == "__main__":
    DATA.write_text(json.dumps(_generate(), indent=1) + "\n")

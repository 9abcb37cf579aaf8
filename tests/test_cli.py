import contextlib
import importlib.util
import io
import json
import math
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etkit import cli, field_models
from etkit.cli import main
from etkit.laurent import MAX_TERMS, LaurentRing
from etkit.smallfields import gf

DYADIC = '{"kind":"DyadicRational","params":{}}'
FF5 = '{"kind":"FiniteField","params":{"q":5}}'
F5T = '{"kind":"Laurent","params":{"base":%s},"precision":8}' % FF5
# an integer literal past Python's 4300-digit int-to-str limit
HUGE = "1" * 5000
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    # errors are reported on stderr as JSON
    return code, captured.out if code == 0 else captured.err


def test_invariants_example(capsys):
    code, out = run(capsys, "invariants", "--p", "2", "ext(1,E)")
    assert code == 0
    assert out.strip() == '{"abelianization":[2,2],"logl":"inf","rank":2}'


def test_demuskin_example(capsys):
    code, out = run(capsys, "demuskin", "--p", "2",
                    "padic(n=3,case=II,f=2,s=4)")
    assert code == 0
    assert json.loads(out) == {"isDemuskin": True, "n": 3, "q": 2,
                               "case": "II"}


def test_cohom_example(capsys):
    code, out = run(capsys, "cohom", "--p", "3", "--max-degree", "4",
                    "ext(2,triv)")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 2, 1, 0, 0]


def test_byte_determinism(capsys):
    args = ("cohom", "--p", "2", "--max-degree", "3", "Z(5) * E")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert json.loads(first)  # sorted compact JSON parses


def test_parse_and_normalize_round_trip(capsys):
    _, out = run(capsys, "normalize", "--p", "2", "ext(1, (E * Z(5)))")
    expr = json.loads(out)["expr"]
    _, again = run(capsys, "normalize", "--p", "2", expr)
    assert json.loads(again)["expr"] == expr


def test_parse_tree_shape(capsys):
    code, out = run(capsys, "parse", "--p", "2", "E * Z(5)")
    assert code == 0
    data = json.loads(out)
    assert data["tree"]["type"] == "freeprod"
    assert data["expr"] == "E * Z(5)"


def test_exit_one_on_bad_expression(capsys):
    code, out = run(capsys, "parse", "--p", "2", "Z(4)")
    assert code == 1
    data = json.loads(out)
    assert data["kind"] == "ValidationError" and "1-unit" in data["error"]


def test_exit_one_on_bad_prime(capsys):
    code, out = run(capsys, "invariants", "--p", "6", "triv")
    assert code == 1
    assert json.loads(out)["kind"] == "ValidationError"


def test_usage_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "etkit.cli", "bogus"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_unknown_format_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "--p", "2", "ext(1,E)", "--format", "xml"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'xml'" in captured.err


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "etkit.cli", "logl", "--p", "2",
         "padic(n=3,case=II,f=2)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"direct": 3, "recursive": 3}


def test_file_input(tmp_path, capsys):
    f = tmp_path / "expr.txt"
    f.write_text("ext(1,E)\n")
    code, out = run(capsys, "invariants", "--p", "2", "--file", str(f))
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_format_table(capsys):
    code, out = run(capsys, "normalize", "--p", "2", "ext(1,E)",
                    "--format", "table")
    assert code == 0
    assert 'expr: "E * E"' in out


def test_rigid_subcommand(capsys):
    code, out = run(capsys, "rigid", "--p", "3", "ext(1,Z(1))")
    assert code == 0
    data = json.loads(out)
    assert data["nonRigid"] == [] and data["nSubspaceDim"] == 0


def test_rigid_subcommand_at_dimension_13(capsys):
    # p^d = 8192, well inside the enumeration bound of 2^16
    code, out = run(capsys, "rigid", "--p", "2", "padic(n=13,case=II,f=2)")
    assert code == 0
    data = json.loads(out)
    assert data["rigid"] == ["x1"]
    assert len(data["nonRigid"]) == 2**13 - 2
    assert data["nSubspaceDim"] == 13


def test_field_classgroup(capsys):
    code, out = run(capsys, "field", "classgroup", "--p", "2",
                    "--model", DYADIC)
    assert code == 0
    assert json.loads(out) == {"dim": 3, "eps": [1, 0, 0],
                               "labels": ["-1", "2", "5"], "symbolDim": 1}


def test_field_symbol_and_predict(capsys):
    code, out = run(capsys, "field", "symbol", "--p", "2", "--model", DYADIC,
                    "--a", '{"num":2}', "--b", '{"num":-1}')
    assert code == 0 and json.loads(out) == {"symbol": [0]}
    code, out = run(capsys, "field", "predict", "--p", "2", "--model", DYADIC)
    assert code == 0
    assert json.loads(out)["expr"] == "padic(n=3, q=2, case=II, f=2, s=4)"


def test_field_pairing_match(capsys):
    code, out = run(capsys, "field", "pairing", "padic(n=3,case=II,f=2)",
                    "--p", "2", "--model", DYADIC)
    assert code == 0 and json.loads(out) == {"match": True}
    code, out = run(capsys, "field", "pairing", "E", "--p", "2",
                    "--model", FF5)
    assert code == 0 and json.loads(out) == {"match": False}


def test_field_pairing_refused_on_dimension_first(capsys):
    # H^1 has dimension 601 against the model's 3; the ring is never built
    start = time.perf_counter()
    code, out = run(capsys, "field", "pairing", "padic(n=601,case=II,f=2)",
                    "--p", "2", "--model", DYADIC)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == '{"match":false}\n'


TOWER3 = '{"kind":"FiniteField","params":{"q":3}}'
for var in "tuv":
    TOWER3 = '{"kind":"Laurent","params":{"base":%s,"var":"%s"}}' % (TOWER3, var)


@pytest.mark.parametrize("q, match", [(3, True), (5, False)])
def test_field_pairing_depth_three_tower(capsys, q, match):
    # d = 4, e = 6 at p = 2: above the old d, e <= 4 limit
    code, out = run(capsys, "field", "pairing",
                    f"ext(1, ext(1, ext(1, Z({q}))))", "--p", "2",
                    "--model", TOWER3)
    assert code == 0 and json.loads(out) == {"match": match}


def test_unreadable_files_exit_one(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for argv in (["parse", "--p", "2", "--file", "/nonexistent.txt"],
                 ["parse", "--p", "2", "--file", str(binary)],
                 ["parse", "--p", "2", "--file", "a\x00b"],
                 ["field", "classgroup", "--p", "2", "--model", str(binary)]):
        code, err = run(capsys, *argv)
        assert code == 1
        assert json.loads(err)["kind"] == "ValidationError"


def test_huge_field_size_exits_one_fast(capsys):
    huge = 10**18 + 3
    for model in ('{"kind":"FiniteField","params":{"q":%d}}' % huge,
                  '{"kind":"LocalRational","params":{"ell":%d}}' % huge):
        start = time.perf_counter()
        code, err = run(capsys, "field", "classgroup", "--p", "2",
                        "--model", model)
        assert time.perf_counter() - start < 2
        assert code == 1 and json.loads(err)["kind"] == "InvalidModel"


def test_laurent_term_cap(capsys):
    """A Laurent element holds at most MAX_TERMS coefficients over every
    level: a decoded list at the cap is read, one more is refused, and so
    is a product past the cap, here sigma^p of the first O^+ candidate
    sigma = 1 + t at p = 2003 over F_4007, where 1 + t has p + 1 > cap
    coefficients once raised to the p-th power.  With v(a) = -1 that
    candidate refutes a (its c has valuation 1 and residue -p, and
    1 - p a is no p-th power), so its c is built as the witness."""
    cap = MAX_TERMS

    def symbol(n):
        a = json.dumps({"v": 0, "coeffs": [1] * n})
        return run(capsys, "field", "symbol", "--p", "2", "--model", F5T,
                   "--a", a, "--b", '{"v":1,"coeffs":[1]}')

    assert symbol(cap)[0] == 0
    code, err = symbol(cap + 1)
    assert code == 1 and json.loads(err)["kind"] == "ValidationError"
    model = '{"kind":"Laurent","params":{"base":{"kind":"FiniteField","params":{"q":4007}}}}'
    start = time.perf_counter()
    code, err = run(capsys, "field", "omember", "--p", "2003", "--model", model,
                    "--a", '{"v":-1,"coeffs":[1]}', "--h", "all", "--target", "OPlus",
                    "--bound", "20")
    assert time.perf_counter() - start < 2
    assert code == 1 and err.count("\n") == 1
    assert json.loads(err) == {
        "error": f"a Laurent polynomial in t holds at most {cap} coefficients, "
                 "counted over every level of its tower",
        "kind": "ValidationError"}


@pytest.mark.parametrize("target", ["OMinus", "ORing", "OPlus"])
def test_far_valuations_are_read_off_their_class(capsys, target):
    """An a of valuation +-10^9 is decided from its valuation and class,
    as one of valuation +-2 is at p = 2: 1 - a is never built, and no
    list spans the powers between."""
    outs = {}
    for v in (2, -2, 10**9, -10**9):
        start = time.perf_counter()
        outs[v] = run(capsys, "field", "omember", "--p", "2", "--model", F5T,
                      "--a", '{"v":%d,"coeffs":[3]}' % v, "--h", "all",
                      "--target", target)
        assert time.perf_counter() - start < 1
        assert outs[v][0] == 0, outs[v]
    assert outs[-10**9] == outs[-2]
    if target != "OPlus":  # the O^+ search reads v(a c) = 0 at v(a) = 2 only
        assert outs[10**9] == outs[2]
        assert json.loads(outs[10**9][1])["verdict"] == "Member"


def test_depth_two_search_reads_residues(capsys):
    """On F_311((t))((u)) at p = 31, sigma^p of a two-level candidate
    holds about p^2 / 2 coefficients over the tower, past the cap; the
    O^+ rule reads those candidates off their residues in F_311((t))
    instead, and the refuting c comes from sigma = u^-1."""
    model = ('{"kind":"Laurent","params":{"base":{"kind":"Laurent","params":'
             '{"base":{"kind":"FiniteField","params":{"q":311}},"var":"t"}},"var":"u"}}')
    start = time.perf_counter()
    code, out = run(capsys, "field", "omember", "--p", "31", "--model", model,
                    "--a", '{"v":0,"coeffs":[{"v":1,"coeffs":[1]}]}', "--h", "all",
                    "--target", "OPlus")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out) == {
        "searchBound": 200, "target": "OPlus", "verdict": "NonMember",
        "witness": "310*u^-31 + 1"}


# a Laurent model without the precision key, and (verb, arguments) pairs
F5T_PLAIN = '{"kind":"Laurent","params":{"base":%s}}' % FF5
F5TU_PLAIN = '{"kind":"Laurent","params":{"base":%s,"var":"u"}}' % F5T_PLAIN
ONE_T = '{"v":0,"coeffs":[1]}'
PRECISION_KEY_CASES = [
    (F5T_PLAIN,
     [("symbol", ["--a", '{"v":-1,"coeffs":[2,1]}', "--b", '{"v":1,"coeffs":[3]}']),
      ("trichotomic", ["--a", '{"v":1,"coeffs":[1]}']),
      ("omember", ["--a", '{"v":1,"coeffs":[1]}', "--h", "all", "--target", "OPlus"])]),
    (F5TU_PLAIN,
     [("symbol", ["--a", '{"v":0,"coeffs":[{"v":0,"coeffs":[2]},%s]}' % ONE_T,
                  "--b", '{"v":1,"coeffs":[{"v":1,"coeffs":[1]}]}']),
      ("trichotomic", ["--a", '{"v":1,"coeffs":[%s]}' % ONE_T]),
      ("omember", ["--a", '{"v":0,"coeffs":[{"v":1,"coeffs":[1]}]}', "--h", "all",
                   "--target", "OPlus"])]),
]


@pytest.mark.parametrize("plain,verbs", PRECISION_KEY_CASES, ids=["F_5((t))", "tower"])
def test_precision_key_is_accepted_and_not_read(capsys, plain, verbs):
    """Laurent models written for the truncated series carry an integer
    ``precision`` key (the bench writes 8 into every one); it is checked
    to be an integer and changes no output."""
    keyed = plain[:-1] + ',"precision":8}'
    for verb, args in [("classgroup", []), *verbs]:
        outs = [run(capsys, "field", verb, "--p", "2", "--model", model, *args)
                for model in (plain, keyed)]
        assert outs[0][0] == 0 and outs[0] == outs[1], (verb, outs)


def _tower(depth: int) -> tuple[str, str]:
    """A Laurent tower of ``depth`` levels over F_3 (variables t, ta, taa,
    ...), and its uniformizer."""
    model, one = '{"kind":"FiniteField","params":{"q":3}}', "1"
    for i in range(depth):
        model = '{"kind":"Laurent","params":{"base":%s,"var":"t%s"}}' % (model, "a" * i)
        uniformizer = '{"v":1,"coeffs":[%s]}' % one
        one = '{"v":0,"coeffs":[%s]}' % one
    return model, uniformizer


def test_laurent_tower_depth_cap(capsys):
    cap = field_models.MAX_TOWER_DEPTH
    code, out = run(capsys, "field", "classgroup", "--p", "2", "--model", _tower(cap)[0])
    assert code == 0 and json.loads(out)["dim"] == cap + 1
    model, a = _tower(cap + 1)
    for argv in (["classgroup"],
                 ["omember", "--a", a, "--h", "all", "--target", "OPlus"]):
        start = time.perf_counter()
        code, err = run(capsys, "field", *argv, "--p", "2", "--model", model)
        assert time.perf_counter() - start < 1
        assert code == 1 and err.count("\n") == 1
        assert json.loads(err) == {
            "error": f"a Laurent tower has at most {cap} levels", "kind": "InvalidModel"}


def test_laurent_tower_products_skip_zero_coefficients(capsys, monkeypatch):
    # the uniformizer of a 16-level tower is exact: every window is padded
    # with zeros, and the dense double loop made 239,656 products here
    model, a = _tower(field_models.MAX_TOWER_DEPTH)
    calls = 0
    real_mul = LaurentRing.mul

    def counting_mul(self, x, y):
        nonlocal calls
        calls += 1
        return real_mul(self, x, y)

    monkeypatch.setattr(LaurentRing, "mul", counting_mul)
    code, out = run(capsys, "field", "omember", "--p", "2", "--model", model,
                    "--a", a, "--h", "all", "--target", "OPlus", "--bound", "20")
    assert code == 0
    assert out == ('{"searchBound":20,"target":"OPlus",'
                   '"verdict":"UnknownWithinBound","witness":null}\n')
    assert calls < 5000


def test_demuskin_at_the_basis_bound(capsys):
    # ext(446, triv) has 1 + 446 + C(446, 2) = 99,682 classes up to degree
    # 2, and one more b passes MAX_BASIS
    code, out = run(capsys, "demuskin", "--p", "2", "ext(446,triv)")
    assert code == 0
    assert out == '{"case":null,"isDemuskin":false,"n":446,"q":0}\n'
    code, err = run(capsys, "demuskin", "--p", "2", "ext(447,triv)")
    assert code == 1 and err.count("\n") == 1
    assert json.loads(err)["kind"] == "DimensionTooLarge"


def test_field_predict_large_residue_prime(capsys):
    # predict never builds the residue field, so ell is not capped there
    for ell in (65537, 10**18 + 3):
        start = time.perf_counter()
        code, out = run(capsys, "field", "predict", "--p", "2", "--model",
                        '{"kind":"LocalRational","params":{"ell":%d}}' % ell)
        assert time.perf_counter() - start < 2
        assert code == 0
        assert json.loads(out) == {"expr": f"ext(1, Z({ell}))"}


def test_field_trichotomic_and_omember(capsys):
    code, out = run(capsys, "field", "trichotomic", "--p", "2",
                    "--model", DYADIC, "--a", "2")
    assert code == 0
    assert json.loads(out)["witness"] == "-1"
    code, out = run(capsys, "field", "omember", "--p", "2",
                    "--model", '{"kind":"FiniteField","params":{"q":3}}',
                    "--a", "2", "--h", "[[0]]", "--target", "OMinus")
    assert code == 0
    assert json.loads(out)["verdict"] == "NonMember"


@pytest.mark.parametrize("target", ["OPlus", "ORing"])
@pytest.mark.parametrize("q,a,verdict,witness", [
    (3, "2", "NonMember", "2"),  # a outside H = the squares is its own witness
    (3, "1", "Member", None),
    (7, "3", "NonMember", "3"),
])
def test_omember_outside_h(capsys, target, q, a, verdict, witness):
    code, out = run(capsys, "field", "omember", "--p", "2",
                    "--model", '{"kind":"FiniteField","params":{"q":%d}}' % q,
                    "--a", a, "--h", "[[0]]", "--target", target)
    assert code == 0
    assert json.loads(out) == {"searchBound": 200, "target": target,
                               "verdict": verdict, "witness": witness}


@pytest.mark.parametrize("flag,cap,argv", [
    ("--max-degree", cli.MAX_DEGREE, ["logl", "--p", "2", "E"]),
    ("--bound", cli.MAX_BOUND, ["field", "trichotomic", "--p", "2",
                                "--model", DYADIC, "--a", "2"]),
    ("--max-degree", cli.MAX_DEGREE, ["cohom", "--p", "2", "E"]),
])
def test_precision_and_bound_caps(capsys, flag, cap, argv):
    code, out = run(capsys, *argv, flag, str(cap))
    assert code == 0
    json.loads(out)
    start = time.perf_counter()
    code, err = run(capsys, *argv, flag, str(cap + 1))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(err)["kind"] == "ValidationError"


@pytest.mark.parametrize("flag,floor,message,argv", [
    ("--max-degree", 2, f"--max-degree must be between 2 and {cli.MAX_DEGREE}",
     ["logl", "--p", "2", "E"]),
    ("--max-degree", 2, f"--max-degree must be between 2 and {cli.MAX_DEGREE}",
     ["cohom", "--p", "2", "E"]),
    ("--bound", 1, f"--bound must be between 1 and {cli.MAX_BOUND}",
     ["field", "trichotomic", "--p", "2", "--model", DYADIC, "--a", "2"]),
])
def test_precision_degree_and_bound_floors(capsys, flag, floor, message, argv):
    code, out = run(capsys, *argv, flag, str(floor))
    assert code == 0
    json.loads(out)
    code, err = run(capsys, *argv, flag, str(floor - 1))
    assert code == 1
    assert json.loads(err) == {"error": message, "kind": "ValidationError"}
    # a bad prime is reported first
    code, err = run(capsys, *argv, flag, str(floor - 1), "--p", "4")
    assert code == 1
    assert json.loads(err)["error"] == "--p must be prime, got 4"


HUGE_RANK = ["ext(100000000000000000000,triv)",
             "padic(n=100000000000000000000,q=3,case=I)"]


@pytest.mark.parametrize("expr", HUGE_RANK)
def test_invariants_past_rank_cap_exit_one_fast(capsys, expr):
    # one invariant per generator: a rank of 10^20 cannot be listed
    start = time.perf_counter()
    code, err = run(capsys, "invariants", "--p", "3", expr)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(err)["kind"] == "ValidationError"


def test_invariants_rank_cap_is_inclusive(capsys):
    code, out = run(capsys, "invariants", "--p", "3", f"ext({cli.MAX_RANK},triv)")
    assert code == 0
    assert len(json.loads(out)["abelianization"]) == cli.MAX_RANK
    assert run(capsys, "invariants", "--p", "3", f"ext({cli.MAX_RANK + 1},triv)")[0] == 1


@pytest.mark.parametrize("argv", [
    ["cohom", "--p", "3", "--max-degree", "20", "ext(17,triv)"],
    # the closed-form count alone would take O(m x degree) big binomials
    ["logl", "--p", "2", "--max-degree", str(cli.MAX_DEGREE), f"ext({'9' * 400},E)"],
], ids=["basis-count", "rank-by-degree"])
def test_ring_past_basis_bound_exits_one_fast(capsys, argv):
    start = time.perf_counter()
    code, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(err)["kind"] == "DimensionTooLarge"


@pytest.mark.parametrize("argv", [
    ["logl", "--p", "2", "--max-degree", "6000", " * ".join(["E"] * 15)],
    ["cohom", "--p", "2", " * ".join(["E"] * 100)],
], ids=["logl-15-E-blocks", "cohom-100-E-blocks"])
def test_cup_products_past_bound_exit_one_fast(capsys, argv):
    start = time.perf_counter()
    code, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(err)["kind"] == "ValidationError"


def test_cup_product_bound_is_inclusive(capsys, monkeypatch):
    # dims[1] = dims[2] = k on a free product of k E blocks
    monkeypatch.setattr(cli, "MAX_CUP_WORK", 2 ** 2 * 2)
    assert run(capsys, "cohom", "--p", "2", "E * E")[0] == 0
    assert run(capsys, "cohom", "--p", "2", "E * E * E")[0] == 1
    monkeypatch.setattr(cli, "MAX_CUP_WORK", 100 * 2 ** 2)
    assert run(capsys, "logl", "--p", "2", "--max-degree", "100", "E * E")[0] == 0
    assert run(capsys, "logl", "--p", "2", "--max-degree", "101", "E * E")[0] == 1


def _fresh_process(argv):
    proc = subprocess.run([sys.executable, "-m", "etkit.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reused_across_calls(capsys):
    omember = ["field", "omember", "--p", "2", "--model", FF5, "--a", "2",
               "--h", "all"]
    symbol = ["field", "symbol", "--p", "2", "--model", DYADIC, "--b", "2",
              "--a", "-1"]
    calls = [
        ["field", "bogus"],
        [*omember, "--target", "OPlus"],
        omember,
        ["invariants", "--p", "2", "ext(1,E)"],
        # an abbreviated flag, --flag=value, a negative value, an option
        # between the verb and the expression, and help
        ["cohom", "--p", "2", "--max", "3", "E*E"],
        ["cohom", "--p", "2", "--max-degree", "3", "E*E"],
        ["parse", "--p=3", "ext(2,triv)"],
        symbol,
        ["field", "pairing", "--p", "2", "--model", DYADIC, "E"],
        ["--help"],
    ]
    outputs = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    assert outputs[0][0] == 2
    assert json.loads(outputs[1][1])["target"] == "OPlus"
    # the default comes back once --target is left out
    assert json.loads(outputs[2][1])["target"] == "OMinus"
    assert outputs[3][1] == '{"abelianization":[2,2],"logl":"inf","rank":2}\n'
    # an abbreviated flag reads as the full one
    assert outputs[4] == outputs[5] and outputs[4][0] == 0
    assert outputs[6][0] == 0 and json.loads(outputs[6][1])["expr"] == "ext(2, triv)"
    # a negative number is a value, on the direct path
    assert cli._read_argv(symbol) is not None and outputs[7][0] == 0
    # an option between the verb and the expression leaves it unread
    assert outputs[8][0] == 2 and "unrecognized arguments: E" in outputs[8][2]
    assert outputs[9][0] == 0 and outputs[9][1].startswith("usage: etkit")
    assert outputs == [_fresh_process(argv) for argv in calls]


def test_field_rigidity_report(capsys):
    code, out = run(capsys, "field", "rigidity", "--p", "2", "--model", FF5)
    assert code == 0
    data = json.loads(out)
    assert data["totallyRigid"]["verdict"] == "TotallyRigid"
    assert data["rigid"] == ["2"]


def test_field_model_file(tmp_path, capsys):
    f = tmp_path / "model.json"
    f.write_text(DYADIC)
    code, out = run(capsys, "field", "classgroup", "--p", "2",
                    "--model", str(f))
    assert code == 0 and json.loads(out)["dim"] == 3


@pytest.mark.parametrize("spelling", ["f.json", "f.json/", "./f.json/."])
def test_json_argument_path_spellings(tmp_path, monkeypatch, capsys, spelling):
    # a trailing '/' or '/.' still names the file, as pathlib reads it
    (tmp_path / "f.json").write_text(DYADIC)
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "field", "classgroup", "--p", "2", "--model", spelling)
    assert code == 0 and json.loads(out)["dim"] == 3


def test_json_argument_inline_and_missing_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli._load_structured(DYADIC, "model") == json.loads(DYADIC)
    for missing in ("f.json", "f.json/", "./missing/f.json", str(tmp_path / "f.json")):
        code, err = run(capsys, "field", "classgroup", "--p", "2", "--model", missing)
        assert code == 1
        assert json.loads(err) == {
            "error": "could not parse --model: Expecting value: line 1 column 1 (char 0)",
            "kind": "ValidationError"}


@pytest.mark.parametrize("text, char, position",
                         [("ext(1, E) # note", "#", 10), ("E  $", "$", 3)])
def test_bad_character_after_whitespace_is_named(capsys, text, char, position):
    code, err = run(capsys, "parse", "--p", "2", text)
    assert code == 1
    assert json.loads(err) == {
        "error": f"unexpected character {char!r} (at position {position})",
        "kind": "ParseError"}


def test_oracle_verbs(capsys):
    d4 = '{"kind":"dihedral","order":8}'
    code, out = run(capsys, "oracle", "h2", "--group", d4, "--p", "2")
    assert code == 0 and json.loads(out) == {"dim": 3}
    code, out = run(capsys, "oracle", "h1", "--group", '{"kind":"klein4"}',
                    "--p", "2")
    assert code == 0 and json.loads(out) == {"dim": 2}
    code, out = run(capsys, "oracle", "cup", "--group", d4, "--p", "2",
                    "--phi", "[0,1,0,1,0,1,0,1]",
                    "--psi", "[0,1,0,1,1,0,1,0]")
    assert code == 0
    assert json.loads(out) == {"coords": [0, 0, 0], "h2Dim": 3}
    code, out = run(capsys, "oracle", "extclass", "--group",
                    '{"kind":"cyclic","n":4}', "--p", "2",
                    "--kernel", "[0,2]")
    assert code == 0
    assert json.loads(out) == {"coords": [1], "quotientOrder": 2}


def test_oracle_errors_exit_one(capsys):
    code, out = run(capsys, "oracle", "extclass", "--group",
                    '{"kind":"dihedral","order":8}', "--p", "2",
                    "--kernel", "[0,4]")
    assert code == 1
    assert json.loads(out)["kind"] == "KernelNotCentral"


# id: (model JSON, the key in it that no decoder reads)
UNREAD_MODEL_KEYS = {
    "precision-in-params": (
        '{"kind":"Laurent","params":{"base":%s,"var":"t","precision":4}}' % FF5,
        "precision"),
    "precision-typo": (
        '{"kind":"Laurent","params":{"base":%s,"var":"t"},"precison":4}' % FF5,
        "precison"),
    "unread-param": ('{"kind":"FiniteField","params":{"q":5,"ell":3}}', "ell"),
    "rational-precision": ('{"kind":"RealField","params":{},"precision":8}', "precision"),
}


@pytest.mark.parametrize("argv", [
    ["classgroup", "--model", '{"kind":"FiniteField","params":{}}'],
    ["classgroup", "--model", '{"kind":"FiniteField","params":[]}'],
    ["classgroup", "--model", '{"kind":"FiniteField","params":{"q":"x"}}'],
    ["classgroup", "--model", '{"kind":["FiniteField"],"params":{"q":5}}'],
    ["classgroup", "--model", '{"kind":"Laurent","params":{"var":"t"}}'],
    ["classgroup", "--model",
     '{"kind":"Laurent","params":{"base":%s},"precision":"x"}' % FF5],
    ["symbol", "--model", DYADIC, "--a", '{"num":1,"den":0}', "--b", "2"],
    ["symbol", "--model", DYADIC, "--a", '{"num":"x"}', "--b", "2"],
    ["symbol", "--model", F5T, "--a", '{"v":"x","coeffs":[1]}', "--b", "2"],
    ["symbol", "--model", F5T, "--a", '{"v":0,"coeffs":5}', "--b", "2"],
    ["symbol", "--model", FF5, "--a", "true", "--b", "2"],
    *(["omember", "--model", FF5, "--a", "2", "--h", h, "--target", "OMinus"]
      for h in ("5", '[[0],[1],"x"]', "[[0],[true]]", '{"a":1}')),
    ["classgroup", "--model", '{"kind":"FiniteField","params":{"q":%s}}' % HUGE],
    ["symbol", "--model", DYADIC, "--a", HUGE, "--b", "2"],
    # JSON numbers that are not integers are refused, not truncated
    ["classgroup", "--model", '{"kind":"FiniteField","params":{"q":5.9}}'],
    ["classgroup", "--model", '{"kind":"FiniteField","params":{"q":"7"}}'],
    ["classgroup", "--model",
     '{"kind":"Laurent","params":{"base":%s},"precision":8.7}' % FF5],
    ["symbol", "--model", DYADIC, "--a", '{"num":2.5}', "--b", "2"],
    ["symbol", "--model", F5T, "--a", '{"v":1.9,"coeffs":[1]}', "--b", "2"],
    # a key the decoder does not read is refused, not dropped
    *(["classgroup", "--model", model] for model, _ in UNREAD_MODEL_KEYS.values()),
], ids=["no-q", "list-params", "q-not-int", "list-kind", "no-base",
        "precision-not-int", "zero-den", "num-not-int", "v-not-int",
        "coeffs-not-list", "bool-element", "h-int", "h-row-not-list",
        "h-bool-entry", "h-object", "q-huge-literal", "a-huge-literal",
        "q-float", "q-string", "precision-float", "num-float", "v-float",
        *UNREAD_MODEL_KEYS])
def test_bad_field_json_exits_one(capsys, argv):
    code = main(["field", *argv[:1], "--p", "2", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert isinstance(json.loads(captured.err), dict)


@pytest.mark.parametrize("model,key", UNREAD_MODEL_KEYS.values(), ids=UNREAD_MODEL_KEYS)
def test_unread_model_key_is_named(capsys, model, key):
    code, err = run(capsys, "field", "classgroup", "--p", "2", "--model", model)
    assert code == 1
    report = json.loads(err)
    assert report["kind"] == "InvalidModel" and repr(key) in report["error"]
    # the same model without that key decodes
    data = json.loads(model)
    data.pop(key, None)
    data["params"].pop(key, None)
    assert run(capsys, "field", "classgroup", "--p", "2",
               "--model", json.dumps(data))[0] == 0


# the flags each subcommand reads; every subcommand also reads --p and --format
READS = {"cohom": {"--max-degree"}, "logl": {"--max-degree"},
         "field": {"--bound", "--model"}}


@pytest.mark.parametrize("command", list(cli._HANDLERS))
@pytest.mark.parametrize("flag,value,dest", [
    ("--p", "3", "p"), ("--format", "table", "fmt"), ("--max-degree", "5", "max_degree"),
    ("--bound", "5", "bound"), ("--model", "{}", "model")])
def test_subcommand_takes_only_the_flags_it_reads(capsys, command, flag, value, dest):
    head = {"field": ["field", "classgroup"],
            "oracle": ["oracle", "h1", "--group", "{}"]}.get(command, [command])
    parser = cli._build_parser()
    argv = [*head, flag, value]
    if flag in {"--p", "--format"} | READS.get(command, set()):
        assert str(getattr(parser.parse_args(argv), dest)) == value
        assert vars(cli._read_argv(argv)) == vars(parser.parse_args(argv))
    else:
        assert cli._read_argv(argv) is None
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_unread_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--p", "2", "--bound", "5", "E"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --bound" in captured.err


# ---------------------------------------------------------------------------
# the direct argv reader against its oracle, the argparse parser

FLAGS = sorted({arg.name for table in cli._COMMANDS.values() for arg in table
                if arg.name.startswith("-")})
# what the reader must decline or read as a value: abbreviations,
# --flag=value, help, the end-of-options marker, unknown flags, negative
# numbers, a lone dash, empty strings, bad choices and bad ints
ODD_FLAGS = ["--max", "--mod", "--form", "--ta", "--p=3", "--format=table",
             "-h", "--help", "--", "--bogus", "-x", "-p"]
VERBS = [*cli._FIELD_VERBS, *cli._ORACLE_VERBS, "bogus"]
TOKEN = st.sampled_from([
    "E", "ext(1,E)", "{}", "all", "xml", "omicron", "x", "1.5", "-1", "-2.5",
    "-.5", "-1e3", "-", "", "a b"]) | st.text(max_size=3)
INT = st.sampled_from(["2", "3", "5", "+5", " 7", "-1", "0x3", "1_0", "x", ""])


def _value(arg):
    """Mostly a value the flag takes, sometimes one it refuses."""
    if arg.type is int:
        return INT
    if arg.choices is not None:
        return st.sampled_from([*arg.choices, "xml"])
    return TOKEN


@st.composite
def argvs(draw):
    """A subcommand, often a verb, then flags with values and words:
    mostly the subcommand's own flags, sometimes another's, a bare or an
    odd one."""
    command = draw(st.sampled_from([*cli._COMMANDS, *cli._COMMANDS, "bogus", "-h", ""]))
    table = cli._COMMANDS.get(command, ())
    own = [arg for arg in table if arg.name.startswith("-")]
    argv = [command]
    verbs = [word for arg in table if arg.name == "verb" for word in arg.choices]
    if draw(st.integers(0, 3)):
        argv.append(draw(st.sampled_from(verbs + ["bogus"])))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind < 5 and own:
            arg = draw(st.sampled_from(own))
            argv += [arg.name, draw(_value(arg))]
        elif kind < 8:
            argv.append(draw(st.sampled_from(VERBS) | TOKEN))
        elif kind == 8:
            argv += [draw(st.sampled_from(FLAGS)), draw(TOKEN)]
        else:
            argv.append(draw(st.sampled_from(ODD_FLAGS + FLAGS)))
    return argv


@settings(max_examples=1000)
@given(argvs())
@example(["field", "pairing", "--p", "2", "E"])
@example(["field", "--p", "2", "pairing", "E", "--model", "{}"])
@example(["parse", "--p", "-1", "-2.5"])
@example(["oracle", "h1", "--p", "2"])
def test_reader_matches_argparse(argv):
    args = cli._read_argv(argv)
    if args is None:
        return
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            parsed = cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse exits on {argv}: {out.getvalue()}{err.getvalue()}")
    assert vars(args) == vars(parsed)


def _readme_argvs():
    text = (ROOT / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("etkit "):
                yield shlex.split(line)[1:]


def _reach_script():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    return reach


def test_every_corpus_argv_takes_the_direct_path():
    inputs = [case["argv"] for corpus in ("expr_golden.json", "field_golden.json")
              for case in json.loads((ROOT / "tests" / "data" / corpus).read_text())]
    readme = list(_readme_argvs())
    assert len(readme) >= 15
    reach = _reach_script()
    inputs += readme + reach.EXTRA_ARGV
    assert [argv for argv in inputs if cli._read_argv(argv) is None] == []
    # the inputs that keep the argparse parser reached do reach it
    assert all(cli._read_argv(argv) is None for argv in reach.FALLBACK_ARGV)


VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats() | st.sampled_from([math.inf, -math.inf, math.nan]),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300)
@given(VALUES)
def test_dumps_matches_the_jsonable_walk(obj):
    assert cli._dumps(obj) == json.dumps(cli._jsonable(obj), sort_keys=True,
                                         separators=(",", ":"))


@pytest.mark.parametrize("group", [
    '{"kind":"table","table":[[0,1],[1]]}',
    '{"kind":"cyclic"}',
    '{"kind":"cyclic","n":"x"}',
    '{"kind":"product","factors":5}',
    '{"kind":"dihedral","order":[4]}',
    '{"kind":"cyclic","n":true}',
    '{"kind":"cyclic","n":1000000}',  # refused before its table is built
    "[" * 100_000,  # deeper than the JSON decoder recurses
], ids=["ragged-table", "no-n", "n-not-int", "factors-not-list",
        "order-list", "bool-n", "huge-n", "deep-json"])
def test_bad_group_json_exits_one(capsys, group):
    code = main(["oracle", "h1", "--p", "2", "--group", group])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert isinstance(json.loads(captured.err), dict)


@pytest.mark.parametrize("argv", [
    *(["cup", "--phi", "[0,1,0,1]", "--psi", x]
      for x in ("{}", '["a",1,0,1]', "[0,1e400,0,1]", "[0,true,0,1]",
                "[0,1.5,0,1]")),
    *(["extclass", "--kernel", x] for x in ("5", '[0,"x"]', "[0,9]", "[0,2.0]")),
    ["cup", "--phi", f"[{HUGE},1,0,1]", "--psi", "[0,1,0,1]"],
], ids=["psi-object", "psi-string", "psi-inf", "psi-bool", "psi-float",
        "kernel-int", "kernel-string", "kernel-out-of-range", "kernel-float",
        "phi-huge-literal"])
def test_bad_oracle_json_exits_one(capsys, argv):
    code = main(["oracle", argv[0], "--p", "2", "--group",
                 '{"kind":"cyclic","n":4}', *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert isinstance(json.loads(captured.err), dict)


@pytest.mark.parametrize("argv", [
    ["demuskin", "padic(n=3,case=II,f=100000000000000000000)"],
    ["normalize", f"padic(n=3,case=II,f={'9' * 400}) * E"],
], ids=["demuskin-f-1e20", "normalize-f-400-digits"])
def test_huge_demuskin_exponent_runs_fast(capsys, argv):
    start = time.perf_counter()
    code, out = run(capsys, argv[0], "--p", "2", *argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize("argv,expected", [
    (["demuskin", "padic(n=4,case=IV,f=64)"],
     '{"case":"IV","isDemuskin":true,"n":4,"q":2}'),
    (["demuskin", "padic(n=4,case=IV,f=100000000000000000000)"],
     '{"case":"IV","isDemuskin":true,"n":4,"q":2}'),
    (["invariants", "ext(1,Z(36893488147419103233))"],
     '{"abelianization":[36893488147419103232,0],"logl":1,"rank":2}'),
], ids=["case-IV-f-64", "case-IV-f-1e20", "q-2^65"])
def test_theta_invariants_are_exact(capsys, argv, expected):
    """Case IV keeps its -1 and its 1/(1 - 2^f) apart at any f, and
    alpha = 2^65 + 1 twists the fibre by 2^65: no modulus truncates them."""
    start = time.perf_counter()
    code, out = run(capsys, argv[0], "--p", "2", *argv[1:])
    assert time.perf_counter() - start < 1
    assert (code, out.strip()) == (0, expected)


@pytest.mark.parametrize("text", [
    "(" * 3000 + "triv" + ")" * 3000,
    "ext(1, " * 1500 + "triv" + ")" * 1500,
], ids=["parentheses", "ext"])
def test_deep_nesting_exits_one(tmp_path, capsys, text):
    f = tmp_path / "deep.txt"
    f.write_text(text)
    code = main(["parse", "--p", "2", "--file", str(f)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["kind"] == "ParseError"


def test_closed_stdout_exits_one():
    # the report is about 192 KB, more than a pipe buffer holds, so the
    # CLI is still writing when the reader closes its end
    with subprocess.Popen(
        [sys.executable, "-m", "etkit.cli", "rigid", "--p", "2",
         "padic(n=13,case=II,f=2)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    # one JSON object and nothing else, so no error at interpreter exit
    assert json.loads(err)["kind"] == "BrokenPipeError"


def test_internal_error_is_json(capsys, monkeypatch):
    def broken(args):
        raise KeyError("q")

    monkeypatch.setitem(cli._HANDLERS, "parse", broken)
    assert main(["parse", "--p", "2", "E"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err)
    assert set(report) == {"error", "kind", "where"}
    assert report["kind"] == "KeyError"
    assert report["where"].startswith("test_cli.py:")

"""Fuzz the CLI's input boundary.

Each example takes a command from the golden corpora (or one of the
oracle commands below, which the corpora do not hold) and mutates one
argument that a handler decodes: the expression, or the model, element,
``--h``, group, cochain or kernel JSON.  Whatever the text, ``main``
returns 0 or 1, stdout is one JSON value on exit 0 and empty on exit 1,
stderr is one JSON object on exit 1, and the call returns within 2 s.  A
flag's own value, such as ``--p``, is left alone: a bad one is an
argparse usage error (exit 2).
"""

import contextlib
import io
import json
import time
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etkit.cli import main

DATA = Path(__file__).parent / "data"
# the flags whose value a handler decodes
DECODED = {"--model", "--a", "--b", "--h", "--group", "--phi", "--psi", "--kernel"}
D4 = '{"kind":"dihedral","order":8}'
ORACLE = [
    ["oracle", "h1", "--p", "2", "--group", '{"kind":"klein4"}'],
    ["oracle", "h2", "--p", "2", "--group", D4],
    ["oracle", "cup", "--p", "2", "--group", D4, "--phi", "[0,1,0,1,0,1,0,1]",
     "--psi", "[0,1,0,1,1,0,1,0]"],
    ["oracle", "extclass", "--p", "3", "--group",
     '{"kind":"product","factors":[{"kind":"cyclic","n":3},{"kind":"cyclic","n":9}]}',
     "--kernel", "[0,3,6]"],
]
# fragments of the expression grammar and of the JSON encodings
TOKENS = ["{", "}", "[", "]", '"', ",", ":", "(", ")", "*", "=", " ", "-", ".",
          "0", "1", "2", "-1", "1e999", "9" * 30, "null", "true", '"x"', "[]",
          "{}", '"kind"', '"params"', '"v"', '"coeffs"', '"num"', '"den"',
          "ext(", "E", "Z(", "triv", "padic(", "n=", "case=", "q=", "f=", "inf"]


def _decoded_positions(argv: list[str]) -> list[int]:
    """Indices of the expression and of each decoded flag's value."""
    out = []
    i = 2 if argv[0] in ("field", "oracle") else 1
    while i < len(argv):
        if argv[i].startswith("--"):
            if argv[i] in DECODED:
                out.append(i + 1)
            i += 2
        else:
            out.append(i)
            i += 1
    return out


def _commands() -> list[list[str]]:
    cases = [case["argv"] for corpus in ("expr_golden.json", "field_golden.json")
             for case in json.loads((DATA / corpus).read_text())]
    return [argv for argv in cases + ORACLE if _decoded_positions(argv)]


COMMANDS = _commands()


@st.composite
def _mutated(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    i = draw(st.sampled_from(_decoded_positions(argv)))
    text = argv[i]
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 8)))
    piece = draw(st.one_of(st.sampled_from(TOKENS), st.text(max_size=4)))
    text = text[:start] + piece + text[end:]
    if argv[i - 1] in DECODED:
        # --flag=value: argparse never reads the value as a flag
        return argv[:i - 1] + [f"{argv[i - 1]}={text}"] + argv[i + 1:]
    assume(not text.startswith("-"))  # a positional that argparse would read as a flag
    return argv[:i] + [text] + argv[i + 1:]


@settings(max_examples=300)
@given(_mutated())
def test_mutated_input_exits_zero_or_one_with_json(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2
    assert code in (0, 1)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert isinstance(json.loads(err.getvalue()), dict)

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from etkit import pairs
from etkit.errors import ParseError, ValidationError
from etkit.pairs import (
    EBlock,
    MAX_DEPTH,
    Ext,
    FreeProd,
    PAdicBlock,
    Trivial,
    ZBlock,
    abelianization,
    normalize,
    parse,
    rank,
    render,
    theta_generators,
    theta_image,
    to_json,
    validate,
)
from randexpr import random_expr, random_padic
from token_oracle import tokenize as oracle_tokenize
from etkit.units import make_unit
from unit_closure import closure_invariants, depth


def test_parse_blocks():
    assert parse("triv", 2) == Trivial()
    assert parse("E", 2) == EBlock()
    z = parse("Z(5)", 2)
    assert isinstance(z, ZBlock) and z.alpha == make_unit(2, 5)
    z = parse("Z(-1/3)", 2)
    assert isinstance(z, ZBlock) and z.alpha.num == -1 and z.alpha.den == 3


def test_parse_padic_defaults():
    b = parse("padic(n=3,case=II,f=2)", 2)
    assert b == PAdicBlock(n=3, q=2, case="II", f=2, s=4)
    b = parse("padic(n=3,case=II,f=inf)", 2)
    assert b.f == math.inf
    b = parse("padic(n=4,q=4,case=I)", 2)
    assert b.f is None and b.s == 1


def test_parse_compound():
    e = parse("E * Z(5) * ext(2, triv)", 2)
    assert isinstance(e, FreeProd) and len(e.factors) == 3
    e = parse("ext(1, (E * E))", 2)
    assert isinstance(e, Ext) and isinstance(e.base, FreeProd)


def test_nesting_depth_limit():
    e = parse("ext(1, " * MAX_DEPTH + "triv" + ")" * MAX_DEPTH, 2)
    assert rank(normalize(e, 2)) == MAX_DEPTH
    assert isinstance(parse("(" * MAX_DEPTH + "E" + ")" * MAX_DEPTH, 2), EBlock)
    for opening in ("(", "ext(1, "):
        with pytest.raises(ParseError) as info:
            parse(opening * (MAX_DEPTH + 1) + "E" + ")" * (MAX_DEPTH + 1), 2)
        assert info.value.position == len(opening) * (MAX_DEPTH + 1)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("ext(1,", 2)
    # non-ASCII digits and a non-integer f are grammar errors
    for text in ("Z(\u0663)", "padic(n=3,case=II,f=abc)"):
        with pytest.raises(ParseError) as info:
            parse(text, 2)
        assert info.value.position is not None
    # so is an integer literal past Python's int-to-str digit limit
    huge = "1" * 5000
    for text, position in ((f"Z({huge})", 2), (f"Z(5/{huge})", 4),
                           (f"padic(n=3,case=II,f={huge})", 20),
                           (f"ext({huge},E)", 4)):
        with pytest.raises(ParseError) as info:
            parse(text, 2)
        assert info.value.position == position
    with pytest.raises(ValidationError):
        parse("padic(n=3)", 2)  # missing case
    with pytest.raises(ValidationError):
        parse("Z(4)", 2)
    with pytest.raises(ValidationError):
        parse("E", 3)


# ASCII, the whitespace \s reads (no-break, file separator, em space) and
# characters no token holds (an Arabic-Indic digit, a letter outside ASCII)
_TEXT = st.text(st.one_of(
    st.sampled_from(list("0123456789-*(),=/ \t\nEZtrivextpadicnqs#$")
                    + ["\xa0", "\x1c", "\u2003", "\u0663", "\xe9"]),
    st.characters()), max_size=40)


@given(_TEXT)
@example("ext(1, E) # note")
@example("E  $")
@example("Z(- 3)")
@example("5-5 -x")
@example("Z(\u0663) \xa0")
def test_tokenizer_matches_match_loop_oracle(text):
    """The same tokens, kinds and positions as one match per token, and
    the same error, but at the bad character rather than the whitespace
    before it."""
    try:
        want = oracle_tokenize(text)
    except ParseError as exc:
        pos = exc.position
        while text[pos].isspace():
            pos += 1
        with pytest.raises(ParseError) as info:
            pairs._tokenize(text)
        assert str(info.value) == f"unexpected character {text[pos]!r} (at position {pos})"
        assert info.value.position == pos
        return
    got = pairs._tokenize(text)
    # the parser's kind of a token: a literal ends in a digit, a name is letters
    kinds = ["num" if t[-1].isdigit() else "name" if t.isalpha() else "punct"
             for t in got]
    assert list(zip(kinds, got, pairs._token_starts(text))) == want


def test_bad_character_is_named_after_whitespace():
    for text, char, pos in (("ext(1, E) # note", "#", 10), ("E  $", "$", 3),
                            ("Z(- 3)", "-", 2), ("E\u2003\u0663", "\u0663", 2)):
        with pytest.raises(ParseError) as info:
            parse(text, 2)
        assert str(info.value) == f"unexpected character {char!r} (at position {pos})"


def test_validation_rules():
    with pytest.raises(ValidationError):
        validate(PAdicBlock(n=2, q=2, case="II"), 2)
    with pytest.raises(ValidationError):
        validate(PAdicBlock(n=4, q=2, case="II", f=2), 2)  # II needs odd n
    with pytest.raises(ValidationError):
        validate(PAdicBlock(n=3, q=2, case="II", f=1), 2)
    with pytest.raises(ValidationError):
        validate(PAdicBlock(n=4, q=2, case="IV", f=math.inf), 2)
    with pytest.raises(ValidationError):
        validate(PAdicBlock(n=4, q=2, case="III", f=2, s=1), 2)  # s=1 iff case I
    with pytest.raises(ValidationError):
        validate(PAdicBlock(n=5, q=3, case="I"), 3)  # odd p needs even n
    validate(PAdicBlock(n=4, q=3, case="I"), 3)
    validate(PAdicBlock(n=6, q=2, case="III", f=math.inf), 2)
    # the one check for input that is not a node also covers children
    for bad in ("E", FreeProd((EBlock(), "E")), Ext(1, FreeProd((None,)))):
        with pytest.raises(ValidationError, match="not a pair expression"):
            validate(bad, 2)


def test_normalize_sorts_and_flattens():
    e = parse("(Z(5) * E) * triv * E", 2)
    n = normalize(e, 2)
    assert isinstance(n, FreeProd)
    assert render(n) == "Z(5) * E * E"


def test_normalize_ext_rules():
    # a 1-step extension of E splits into a free product
    assert render(normalize(parse("ext(1, E)", 2), 2)) == "E * E"
    assert render(normalize(parse("ext(2, E)", 2), 2)) == "ext(1, E * E)"
    n = normalize(parse("ext(1, ext(2, Z(5)))", 2), 2)
    assert isinstance(n, Ext) and n.m == 3 and isinstance(n.base, ZBlock)
    z = normalize(parse("ext(1, triv)", 2), 2)
    assert isinstance(z, ZBlock) and z.alpha == make_unit(2, 1)


def test_normalize_fills_s():
    n = normalize(parse("padic(n=3,case=II,f=2)", 2), 2)
    assert n.s == 4
    n = normalize(parse("padic(n=4,q=4,case=I)", 2), 2)
    assert n.s == 1


def test_render_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([2, 3])
        e = random_expr(rng, p, max_rank=6)
        again = normalize(parse(render(e), p), p)
        assert again == e, (render(e), render(again))


def test_json_shapes():
    e = parse("ext(1, Z(-1/3))", 2)
    j = to_json(e)
    assert j["type"] == "ext" and j["base"]["alpha"] == {"num": -1, "den": 3}


def test_rank_values():
    assert rank(parse("triv", 2)) == 0
    assert rank(parse("E * Z(5)", 2)) == 2
    assert rank(parse("padic(n=3,case=II,f=2)", 2)) == 3
    assert rank(parse("ext(2, E * E)", 2)) == 4


def test_theta_generators_and_image():
    gens = theta_generators(parse("padic(n=3,case=II,f=2)", 2), 2)
    assert [(g.num, g.den) for g in gens] == [(-1, 1), (1, -3)]
    inv = theta_image(parse("padic(n=3,case=II,f=2)", 2), 2)
    assert inv.q_invariant == 2 and inv.square_index == 4
    inv = theta_image(parse("Z(5) * Z(9)", 2), 2)
    assert inv.q_invariant == 4


@st.composite
def theta_cases(draw):
    """A random_expr draw at p in {2, 3}; at p = 2, maybe beside a Case III
    or IV block with f in 2..12."""
    p = draw(st.sampled_from([2, 3]))
    e = random_expr(random.Random(draw(st.integers(0, 2**32))), p, max_rank=6)
    if p == 2 and draw(st.booleans()):
        block = PAdicBlock(n=4, q=2, case=draw(st.sampled_from(["III", "IV"])),
                           f=draw(st.integers(2, 12)))
        e = FreeProd((e, block))
    return p, e


def _theta_rationals(e):
    """The theta values of a tree's generators as rationals, from the
    block formulas, with 2^inf = 0."""
    if isinstance(e, ZBlock):
        return [(e.alpha.num, e.alpha.den)]
    if isinstance(e, EBlock):
        return [(-1, 1)]
    if isinstance(e, PAdicBlock):
        if e.case == "I":
            return [(1, 1 - e.q)]
        tf = 0 if e.f == math.inf else 2**e.f
        return [(-1, 1 + tf)] if e.case == "III" else [(-1, 1), (1, 1 - tf)]
    if isinstance(e, FreeProd):
        return [r for f in e.factors for r in _theta_rationals(f)]
    return _theta_rationals(e.base) if isinstance(e, Ext) else []


@given(theta_cases())
@example((2, PAdicBlock(n=4, q=2, case="IV", f=12)))
@example((2, PAdicBlock(n=4, q=2, case="III", f=12)))
@example((2, parse("Z(-7) * Z(9) * padic(n=4,case=IV,f=3)", 2)))
@example((2, parse("padic(n=4,case=III,f=2) * Z(-5)", 2)))  # both -(1 + 4w)
def test_theta_image_matches_closure(case):
    """theta_image of a whole tree against the literal closure of its
    theta values mod p^K, with K above every finite depth + 2."""
    p, e = case
    rationals = _theta_rationals(e)
    K = 3 + max((d for d in (depth(p, *r) for r in rationals) if d != math.inf),
                default=0)
    assert K <= 15  # the drawn depths; this also keeps the closure small
    assert theta_image(e, p) == closure_invariants(p, rationals, K)


def test_abelianization():
    assert abelianization(parse("Z(5)", 2), 2) == [0]
    assert abelianization(parse("E", 2), 2) == [2]
    assert abelianization(parse("ext(1, E)", 2), 2) == [2, 2]
    assert abelianization(parse("padic(n=3,case=II,f=2)", 2), 2) == [0, 0, 2]
    # extension twists the fibre by the base theta image
    assert abelianization(parse("ext(2, Z(5))", 2), 2) == [4, 4, 0]


def test_structural_isomorphism_on_sorted_forms():
    a = normalize(parse("Z(5) * E", 2), 2)
    b = normalize(parse("E * Z(5)", 2), 2)
    assert normalize(a, 2) == normalize(b, 2)
    c = normalize(parse("E * Z(9)", 2), 2)
    assert normalize(a, 2) != normalize(c, 2)


def test_exponents_past_float_precision_sort_exactly():
    # 2^60 and 2^60 + 1 are one float; the sort key compares them exactly
    f1, f2 = 2**60, 2**60 + 1
    a = parse(f"padic(n=3,case=II,f={f1}) * padic(n=3,case=II,f={f2})", 2)
    b = parse(f"padic(n=3,case=II,f={f2}) * padic(n=3,case=II,f={f1})", 2)
    assert render(normalize(a, 2)) == render(normalize(b, 2))
    assert normalize(a, 2) == normalize(b, 2)


@pytest.mark.parametrize("left,right", [("Z(4/4)", "Z(7/7)"), ("Z(-2/-2)", "Z(1)")])
def test_equal_z_blocks_normalize_in_one_order(left, right):
    # equal values written differently: the written num/den breaks the tie
    a = normalize(parse(f"{left}*{right}", 3), 3)
    b = normalize(parse(f"{right}*{left}", 3), 3)
    assert a == b
    assert render(a) == render(b) == f"{left} * {right}"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_random_padic_draws_are_valid(p):
    # random_padic draws no second time, so every draw must pass
    rng = random.Random(p)
    for _ in range(2000):
        validate(random_padic(rng, p), p)


@given(st.integers(0, 2**32))
def test_random_exprs_stay_valid_after_normalize(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    e = random_expr(rng, p, max_rank=8)
    # the node walks, since normalize and validate answer a normal form
    # from its memo: a normal form is valid and normalization idempotent
    e.validate(p)
    assert e.normalize(p) == e

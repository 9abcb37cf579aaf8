"""Expression trees for cyclotomic pro-p pairs of elementary type.

The constructors mirror the closure operations of the elementary-type
machinery: the trivial pair, Z-blocks Z^alpha, the order-two block E
(p = 2 only), Demuskin blocks of p-adic type, free products, and
semidirect extensions by Z_p^m.  A small textual grammar, a confluent
normalizer, and the structural invariants (rank, abelianization,
theta-image) live here too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Union

from .errors import (
    DenominatorNotInvertible,
    NotAUnit,
    ParseError,
    ValidationError,
)
from .fplinear import is_prime
from .units import (
    DEFAULT_PRECISION,
    PAdicUnit,
    UnitSubgroupInvariants,
    epsilon_of,
    make_unit,
    subgroup_invariants,
)

INF = math.inf

CASES = ("I", "II", "III", "IV")

# Deepest nesting of parentheses and ext(...) the parser accepts.  Every
# tree walk recurses once per level, so this keeps parsing, validation,
# normalization and rendering well inside Python's recursion limit.
MAX_DEPTH = 100


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class ZBlock:
    alpha: PAdicUnit


@dataclass(frozen=True)
class EBlock:
    pass


@dataclass(frozen=True)
class PAdicBlock:
    """Demuskin block of p-adic type.

    ``f`` is the secondary exponent of Cases II-IV (math.inf allowed for
    II/III, absent for Case I); ``s`` is the level metadata in {1,2,4},
    p = 2 only.
    """

    n: int
    q: int
    case: str
    f: float | int | None = None
    s: int | None = None


@dataclass(frozen=True)
class FreeProd:
    factors: tuple["PairExpr", ...]


@dataclass(frozen=True)
class Ext:
    m: int
    base: "PairExpr"


PairExpr = Union[Trivial, ZBlock, EBlock, PAdicBlock, FreeProd, Ext]

_DEFAULT_S = {"I": 1, "II": 4, "III": 2, "IV": 2}


def default_level(case: str) -> int:
    """Case-consistent level metadata: the value of s forced by the case."""
    return _DEFAULT_S[case]


def two_to(f) -> int:
    """2^f with the convention 2^inf = 0."""
    return 0 if f == INF else 2**int(f)


def _is_p_power(q: int, p: int) -> bool:
    if q < p:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def validate(e: PairExpr, p: int, K: int = DEFAULT_PRECISION) -> None:
    """Check the structural invariants of ``e`` for the ambient prime."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    _validate(e, p)


def _validate(e: PairExpr, p: int) -> None:
    if isinstance(e, Trivial):
        return
    if isinstance(e, ZBlock):
        if e.alpha.p != p:
            raise ValidationError(
                f"ZBlock unit lives at p={e.alpha.p}, ambient prime is {p}"
            )
        return
    if isinstance(e, EBlock):
        if p != 2:
            raise ValidationError("EBlock requires p=2")
        return
    if isinstance(e, PAdicBlock):
        _validate_block(e, p)
        return
    if isinstance(e, FreeProd):
        if not e.factors:
            raise ValidationError("free product needs at least one factor")
        for f in e.factors:
            _validate(f, p)
        return
    if isinstance(e, Ext):
        if e.m < 1:
            raise ValidationError("extension rank m must be >= 1")
        _validate(e.base, p)
        return
    raise ValidationError(f"not a pair expression: {e!r}")


def _validate_block(e: PAdicBlock, p: int) -> None:
    if e.case not in CASES:
        raise ValidationError(f"unknown case tag {e.case!r}")
    if e.n < 3:
        raise ValidationError("p-adic blocks have rank n >= 3")
    if not _is_p_power(e.q, p):
        raise ValidationError(f"q={e.q} is not a power of {p} (>1)")
    if p != 2:
        if e.case != "I":
            raise ValidationError("cases II-IV force p=2")
        if e.s is not None:
            raise ValidationError("level s is p=2 metadata only")
        if e.n % 2 or e.n < p + 1 or (e.n - 2) % (p - 1):
            raise ValidationError(
                f"odd-p block needs n even, n >= {p + 1}, n-2 divisible by {p - 1}"
            )
        return
    finite_f = e.f is not None and e.f != INF
    if e.case == "I":
        if e.q == 2:
            raise ValidationError("case I requires q != 2")
        if e.n % 2:
            raise ValidationError("case I rank n is even")
        if e.f is not None:
            raise ValidationError("case I carries no exponent f")
    else:
        if e.q != 2:
            raise ValidationError(f"case {e.case} requires q=2")
        if e.f is None:
            raise ValidationError(f"case {e.case} requires exponent f")
        if (finite_f and int(e.f) < 2) or (e.f == INF and e.case == "IV"):
            raise ValidationError(
                "f must be an integer >= 2, or inf for cases II/III only"
            )
        if e.case == "II":
            if e.n % 2 == 0:
                raise ValidationError("case II rank n is odd")
        elif e.n % 2:
            raise ValidationError(f"case {e.case} rank n is even")
    if e.s is not None:
        if e.s not in (1, 2, 4):
            raise ValidationError("level s lies in {1,2,4}")
        if (e.s == 1) != (e.case == "I"):
            raise ValidationError(
                "s=1 holds exactly when the theta-image avoids -1 (case I)"
            )


# ---------------------------------------------------------------------------
# grammar


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>-?[0-9]+)|(?P<name>[A-Za-z]+)|(?P<punct>[*(),=/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, p: int, K: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.p = p
        self.K = K
        self.length = len(text)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def expect(self, text: str):
        tok = self.next()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1]!r}", tok[2])
        return tok

    def expr(self) -> PairExpr:
        if self.depth > MAX_DEPTH:
            tok = self.peek()
            raise ParseError(f"expression nested more than {MAX_DEPTH} deep",
                             tok[2] if tok else self.length)
        self.depth += 1
        factors = [self.term()]
        while self.peek() and self.peek()[1] == "*":
            self.next()
            factors.append(self.term())
        self.depth -= 1
        if len(factors) == 1:
            return factors[0]
        return FreeProd(tuple(factors))

    def integer(self) -> int:
        tok = self.next()
        if tok[0] != "num":
            raise ParseError(f"expected an integer, found {tok[1]!r}", tok[2])
        return int(tok[1])

    def rational(self) -> tuple[int, int]:
        num = self.integer()
        if self.peek() and self.peek()[1] == "/":
            self.next()
            return num, self.integer()
        return num, 1

    def term(self) -> PairExpr:
        tok = self.next()
        kind, text, pos = tok
        if text == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind != "name":
            raise ParseError(f"expected a term, found {text!r}", pos)
        if text == "triv":
            return Trivial()
        if text == "E":
            return EBlock()
        if text == "Z":
            self.expect("(")
            num, den = self.rational()
            self.expect(")")
            try:
                alpha = make_unit(self.p, num, den, self.K)
            except (NotAUnit, DenominatorNotInvertible) as exc:
                raise ValidationError(f"Z-block at position {pos}: {exc}") from exc
            return ZBlock(alpha)
        if text == "ext":
            self.expect("(")
            m = self.integer()
            self.expect(",")
            base = self.expr()
            self.expect(")")
            return Ext(m, base)
        if text == "padic":
            self.expect("(")
            fields = self.keyvals()
            self.expect(")")
            return self.block_from(fields, pos)
        raise ParseError(f"unknown term {text!r}", pos)

    def keyvals(self) -> dict:
        fields: dict = {}
        while True:
            key = self.next()
            if key[0] != "name":
                raise ParseError(f"expected a key, found {key[1]!r}", key[2])
            self.expect("=")
            val = self.next()
            if key[1] in fields:
                raise ParseError(f"duplicate key {key[1]!r}", key[2])
            fields[key[1]] = val
            nxt = self.peek()
            if nxt and nxt[1] == ",":
                self.next()
                continue
            return fields

    def block_from(self, fields: dict, pos: int) -> PAdicBlock:
        def intval(key):
            tok = fields.pop(key, None)
            if tok is None:
                return None
            if tok[0] != "num":
                raise ParseError(f"{key} expects an integer, found {tok[1]!r}", tok[2])
            return int(tok[1])

        n = intval("n")
        if n is None:
            raise ValidationError("padic block requires n")
        case_tok = fields.pop("case", None)
        if case_tok is None:
            raise ValidationError("padic block requires case")
        case = case_tok[1]
        if "f" in fields and fields["f"][1] == "inf":
            del fields["f"]
            f = INF
        else:
            f = intval("f")
        q = intval("q")
        if q is None:
            if case == "I":
                raise ValidationError("case I requires q")
            q = 2
        s = intval("s")
        if s is None and self.p == 2 and case in _DEFAULT_S:
            s = default_level(case)
        if fields:
            key, tok = next(iter(fields.items()))
            raise ParseError(f"unknown block key {key!r}", tok[2])
        return PAdicBlock(n=n, q=q, case=case, f=f, s=s)


def parse(text: str, p: int, K: int = DEFAULT_PRECISION) -> PairExpr:
    """Parse and validate an expression in the textual grammar."""
    parser = _Parser(text, p, K)
    e = parser.expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    validate(e, p, K)
    return e


def _render_rational(alpha: PAdicUnit) -> str:
    if alpha.num is not None and alpha.den is not None:
        if alpha.den == 1:
            return str(alpha.num)
        return f"{alpha.num}/{alpha.den}"
    return str(alpha.value)


def render(e: PairExpr) -> str:
    """Textual form in the grammar; inverse of parse on normal forms."""
    if isinstance(e, Trivial):
        return "triv"
    if isinstance(e, EBlock):
        return "E"
    if isinstance(e, ZBlock):
        return f"Z({_render_rational(e.alpha)})"
    if isinstance(e, PAdicBlock):
        parts = [f"n={e.n}", f"q={e.q}", f"case={e.case}"]
        if e.f is not None:
            parts.append("f=inf" if e.f == INF else f"f={int(e.f)}")
        if e.s is not None:
            parts.append(f"s={e.s}")
        return f"padic({', '.join(parts)})"
    if isinstance(e, FreeProd):
        rendered = [
            f"({render(f)})" if isinstance(f, FreeProd) else render(f)
            for f in e.factors
        ]
        return " * ".join(rendered)
    if isinstance(e, Ext):
        return f"ext({e.m}, {render(e.base)})"
    raise ValidationError(f"not a pair expression: {e!r}")


def to_json(e: PairExpr) -> dict:
    """Expression tree as plain JSON data (units per the unit contract)."""
    if isinstance(e, Trivial):
        return {"type": "trivial"}
    if isinstance(e, EBlock):
        return {"type": "E"}
    if isinstance(e, ZBlock):
        return {"type": "Z", "alpha": e.alpha.to_json()}
    if isinstance(e, PAdicBlock):
        out = {"type": "padic", "n": e.n, "q": e.q, "case": e.case}
        if e.f is not None:
            out["f"] = "inf" if e.f == INF else int(e.f)
        if e.s is not None:
            out["s"] = e.s
        return out
    if isinstance(e, FreeProd):
        return {"type": "freeprod", "factors": [to_json(f) for f in e.factors]}
    if isinstance(e, Ext):
        return {"type": "ext", "m": e.m, "base": to_json(e.base)}
    raise ValidationError(f"not a pair expression: {e!r}")


# ---------------------------------------------------------------------------
# normalization


def sort_key(e: PairExpr):
    """Total order on expressions: tag, numeric parameters, children."""
    if isinstance(e, Trivial):
        return (0, (), ())
    if isinstance(e, ZBlock):
        return (1, (e.alpha.value, e.alpha.K), ())
    if isinstance(e, EBlock):
        return (2, (), ())
    if isinstance(e, PAdicBlock):
        f_enc = -1.0 if e.f is None else float(e.f)
        return (3, (e.n, e.q, CASES.index(e.case), f_enc, e.s or 0), ())
    if isinstance(e, FreeProd):
        return (4, (len(e.factors),), tuple(sort_key(f) for f in e.factors))
    return (5, (e.m,), (sort_key(e.base),))


def normalize(e: PairExpr, p: int, K: int = DEFAULT_PRECISION) -> PairExpr:
    """Canonical form: flatten and sort free products, drop trivial factors,
    merge nested extensions, rewrite Ext(1,Trivial) and Ext(m,E)."""
    validate(e, p, K)
    return _norm(e, p, K)


def _norm(e: PairExpr, p: int, K: int) -> PairExpr:
    if isinstance(e, FreeProd):
        kids: list[PairExpr] = []
        for f in e.factors:
            nf = _norm(f, p, K)
            if isinstance(nf, FreeProd):
                kids.extend(nf.factors)
            elif not isinstance(nf, Trivial):
                kids.append(nf)
        if not kids:
            return Trivial()
        kids.sort(key=sort_key)
        if len(kids) == 1:
            return kids[0]
        return FreeProd(tuple(kids))
    if isinstance(e, Ext):
        m, base = e.m, _norm(e.base, p, K)
        if isinstance(base, Ext):
            m, base = m + base.m, base.base
        if isinstance(base, EBlock):
            # Z_2 ⋊ E splits as E * E, peeling one extension layer
            ee = FreeProd((EBlock(), EBlock()))
            return ee if m == 1 else Ext(m - 1, ee)
        if isinstance(base, Trivial) and m == 1:
            return ZBlock(make_unit(p, 1, 1, K))
        return Ext(m, base)
    if isinstance(e, PAdicBlock) and p == 2 and e.s is None:
        return replace(e, s=default_level(e.case))
    return e


def structurally_isomorphic(e1: PairExpr, e2: PairExpr, p: int,
                            K: int = DEFAULT_PRECISION) -> bool:
    """Equality of normal forms.

    True means "isomorphic (structural)"; False only means "not known
    isomorphic" — the rewrite system is sound but not complete.
    """
    return normalize(e1, p, K) == normalize(e2, p, K)


# ---------------------------------------------------------------------------
# invariants


def rank(e: PairExpr) -> int:
    """dim H^1: generator rank of the pair."""
    if isinstance(e, Trivial):
        return 0
    if isinstance(e, (ZBlock, EBlock)):
        return 1
    if isinstance(e, PAdicBlock):
        return e.n
    if isinstance(e, FreeProd):
        return sum(rank(f) for f in e.factors)
    if isinstance(e, Ext):
        return e.m + rank(e.base)
    raise ValidationError(f"not a pair expression: {e!r}")


def theta_generators(e: PairExpr, p: int, K: int = DEFAULT_PRECISION) -> list[PAdicUnit]:
    """Generators of the theta-image, read off the blocks."""
    if isinstance(e, Trivial):
        return []
    if isinstance(e, ZBlock):
        return [e.alpha.reduce(min(K, e.alpha.K))]
    if isinstance(e, EBlock):
        return [make_unit(2, -1, 1, K)]
    if isinstance(e, PAdicBlock):
        if e.case == "I":
            return [make_unit(p, 1, 1 - e.q, K)]
        tf = two_to(e.f)
        minus_one = make_unit(2, -1, 1, K)
        if e.case == "II":
            return [minus_one, make_unit(2, 1, 1 - tf, K)]
        if e.case == "III":
            return [make_unit(2, -1, 1 + tf, K)]
        return [minus_one, make_unit(2, 1, 1 - tf, K)]  # case IV
    if isinstance(e, FreeProd):
        out: list[PAdicUnit] = []
        for f in e.factors:
            out.extend(theta_generators(f, p, K))
        return out
    if isinstance(e, Ext):
        return theta_generators(e.base, p, K)
    raise ValidationError(f"not a pair expression: {e!r}")


def theta_image(e: PairExpr, p: int, K: int = DEFAULT_PRECISION) -> UnitSubgroupInvariants:
    """Invariants of the subgroup of units generated by the theta-values."""
    validate(e, p, K)
    return subgroup_invariants(p, theta_generators(e, p, K), K)


def abelianization(e: PairExpr, p: int, K: int = DEFAULT_PRECISION) -> list[int]:
    """Divisor sequence of G/[G,G]: 0 per Z_p factor, q per Z_p/q factor."""
    if isinstance(e, Trivial):
        return []
    if isinstance(e, ZBlock):
        return [0]
    if isinstance(e, EBlock):
        return [2]
    if isinstance(e, PAdicBlock):
        return [0] * (e.n - 1) + [e.q]
    if isinstance(e, FreeProd):
        out: list[int] = []
        for f in e.factors:
            out.extend(abelianization(f, p, K))
        return out
    if isinstance(e, Ext):
        q = subgroup_invariants(p, theta_generators(e.base, p, K), K).q_invariant
        return [q] * e.m + abelianization(e.base, p, K)
    raise ValidationError(f"not a pair expression: {e!r}")


def eps_of_expr(e: PairExpr, p: int, K: int = DEFAULT_PRECISION) -> int:
    """Whether the pair's epsilon-character is nonzero (p=2), as 0/1."""
    if p != 2:
        return 0
    return 1 if any(epsilon_of(u) for u in theta_generators(e, p, K)) else 0

"""Expression trees for cyclotomic pro-p pairs of elementary type.

The constructors mirror the closure operations of the elementary-type
machinery: the trivial pair, Z-blocks Z^alpha, the order-two block E
(p = 2 only), Demuskin blocks of p-adic type, free products, and
semidirect extensions by Z_p^m.  Each of the six node classes carries
its own version of every structural walk (validation, rendering, JSON,
the sort key and normalize rewrite, rank, theta generators,
abelianization, closed-form Betti numbers and the recursive log level);
the module-level functions of the same names delegate to them.  A small
textual grammar and the theta-image invariants live here too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    DenominatorNotInvertible,
    NotAUnit,
    ParseError,
    ValidationError,
)
from .fplinear import is_prime
from .units import (
    PAdicUnit,
    UnitSubgroupInvariants,
    epsilon_of,
    make_unit,
    subgroup_invariants,
    valuation,
)

INF = math.inf

CASES = ("I", "II", "III", "IV")

# Deepest nesting of parentheses and ext(...) the parser accepts.  Every
# tree walk recurses once per level, so this keeps parsing, validation,
# normalization and rendering well inside Python's recursion limit.
MAX_DEPTH = 100


class PairExpr:
    """A node of an expression tree.

    Subclasses are frozen dataclasses whose fields are the node's
    parameters and children.  Each implements the walks named after the
    module-level functions: ``render()``, ``to_json()``, ``sort_key()``,
    ``rank()``, ``theta_generators(p)``, ``abelianization(p)``,
    ``dims_closed_form(max_degree)`` and ``log_level_recursive()``, and
    overrides the two defaults below where they do not fit.
    """

    def validate(self, p: int) -> None:
        """Raise ValidationError unless the subtree is well formed at p."""

    def normalize(self, p: int) -> PairExpr:
        """The normal form of a validated subtree."""
        return self


@dataclass(frozen=True)
class Trivial(PairExpr):
    def render(self) -> str:
        return "triv"

    def to_json(self) -> dict:
        return {"type": "trivial"}

    def sort_key(self) -> tuple:
        return (0, (), ())

    def rank(self) -> int:
        return 0

    def theta_generators(self, p: int) -> list[PAdicUnit]:
        return []

    def abelianization(self, p: int) -> list[int]:
        return []

    def dims_closed_form(self, max_degree: int) -> list[int]:
        return [1] + [0] * max_degree

    def log_level_recursive(self) -> float | int:
        return 1


@dataclass(frozen=True)
class ZBlock(PairExpr):
    alpha: PAdicUnit

    def validate(self, p: int) -> None:
        if self.alpha.p != p:
            raise ValidationError(
                f"ZBlock unit lives at p={self.alpha.p}, ambient prime is {p}"
            )

    def render(self) -> str:
        return f"Z({_render_rational(self.alpha)})"

    def to_json(self) -> dict:
        return {"type": "Z", "alpha": self.alpha.to_json()}

    def sort_key(self) -> tuple:
        # alpha mod p^64, the exact rational, then the written num/den:
        # this fixes the order of Z-blocks in normal forms, equal values
        # included, and the residue enters no invariant
        a, mod = self.alpha, self.alpha.p**64
        return (1, (a.num * pow(a.den, -1, mod) % mod, Fraction(a.num, a.den),
                    (a.num, a.den)), ())

    def rank(self) -> int:
        return 1

    def theta_generators(self, p: int) -> list[PAdicUnit]:
        return [self.alpha]

    def abelianization(self, p: int) -> list[int]:
        return [0]

    def dims_closed_form(self, max_degree: int) -> list[int]:
        return [1, 1] + [0] * (max_degree - 1)

    def log_level_recursive(self) -> float | int:
        return 2 if epsilon_of(self.alpha) else 1


@dataclass(frozen=True)
class EBlock(PairExpr):
    def validate(self, p: int) -> None:
        if p != 2:
            raise ValidationError("EBlock requires p=2")

    def render(self) -> str:
        return "E"

    def to_json(self) -> dict:
        return {"type": "E"}

    def sort_key(self) -> tuple:
        return (2, (), ())

    def rank(self) -> int:
        return 1

    def theta_generators(self, p: int) -> list[PAdicUnit]:
        return [make_unit(2, -1)]

    def abelianization(self, p: int) -> list[int]:
        return [2]

    def dims_closed_form(self, max_degree: int) -> list[int]:
        return [1] * (max_degree + 1)

    def log_level_recursive(self) -> float | int:
        return math.inf


@dataclass(frozen=True)
class PAdicBlock(PairExpr):
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

    def validate(self, p: int) -> None:
        if self.case not in CASES:
            raise ValidationError(f"unknown case tag {self.case!r}")
        if self.n < 3:
            raise ValidationError("p-adic blocks have rank n >= 3")
        if self.q < 2 or self.q != p ** valuation(self.q, p):
            raise ValidationError(f"q={self.q} is not a power of {p} (>1)")
        if p != 2:
            if self.case != "I":
                raise ValidationError("cases II-IV force p=2")
            if self.s is not None:
                raise ValidationError("level s is p=2 metadata only")
            if self.n % 2 or self.n < p + 1 or (self.n - 2) % (p - 1):
                raise ValidationError(
                    f"odd-p block needs n even, n >= {p + 1}, n-2 divisible by {p - 1}"
                )
            return
        finite_f = self.f is not None and self.f != INF
        if self.case == "I":
            if self.q == 2:
                raise ValidationError("case I requires q != 2")
            if self.n % 2:
                raise ValidationError("case I rank n is even")
            if self.f is not None:
                raise ValidationError("case I carries no exponent f")
        else:
            if self.q != 2:
                raise ValidationError(f"case {self.case} requires q=2")
            if self.f is None:
                raise ValidationError(f"case {self.case} requires exponent f")
            if (finite_f and int(self.f) < 2) or (self.f == INF and self.case == "IV"):
                raise ValidationError(
                    "f must be an integer >= 2, or inf for cases II/III only"
                )
            if self.case == "II":
                if self.n % 2 == 0:
                    raise ValidationError("case II rank n is odd")
            elif self.n % 2:
                raise ValidationError(f"case {self.case} rank n is even")
        if self.s is not None:
            if self.s not in (1, 2, 4):
                raise ValidationError("level s lies in {1,2,4}")
            if (self.s == 1) != (self.case == "I"):
                raise ValidationError(
                    "s=1 holds exactly when the theta-image avoids -1 (case I)"
                )

    def normalize(self, p: int) -> PairExpr:
        if p == 2 and self.s is None:
            return replace(self, s=default_level(self.case))
        return self

    def render(self) -> str:
        parts = [f"n={self.n}", f"q={self.q}", f"case={self.case}"]
        if self.f is not None:
            parts.append("f=inf" if self.f == INF else f"f={int(self.f)}")
        if self.s is not None:
            parts.append(f"s={self.s}")
        return f"padic({', '.join(parts)})"

    def to_json(self) -> dict:
        out = {"type": "padic", "n": self.n, "q": self.q, "case": self.case}
        if self.f is not None:
            out["f"] = "inf" if self.f == INF else int(self.f)
        if self.s is not None:
            out["s"] = self.s
        return out

    def sort_key(self) -> tuple:
        f_enc = -1 if self.f is None else self.f  # int against inf is exact
        return (3, (self.n, self.q, CASES.index(self.case), f_enc, self.s or 0), ())

    def rank(self) -> int:
        return self.n

    def theta_generators(self, p: int) -> list[PAdicUnit]:
        # PAdicUnit(p, s, k) is s/(1 - s p^k): its sign is s, its depth k
        if self.case == "I":
            return [PAdicUnit(p, 1, valuation(self.q, p))]  # 1/(1 - q)
        f = self.f if self.f == INF else int(self.f)
        if self.case == "III":
            return [PAdicUnit(2, -1, f)]  # -1/(1 + 2^f)
        return [PAdicUnit(2, -1, INF), PAdicUnit(2, 1, f)]  # II, IV: -1, 1/(1 - 2^f)

    def abelianization(self, p: int) -> list[int]:
        return [0] * (self.n - 1) + [self.q]

    def dims_closed_form(self, max_degree: int) -> list[int]:
        return [1, self.n, 1] + [0] * (max_degree - 2)

    def log_level_recursive(self) -> float | int:
        # s in {1,2,4} is filled by normalization at p=2
        return int(math.log2(self.s or 1)) + 1


@dataclass(frozen=True)
class FreeProd(PairExpr):
    factors: tuple[PairExpr, ...]

    def validate(self, p: int) -> None:
        if not self.factors:
            raise ValidationError("free product needs at least one factor")
        for f in self.factors:
            _validate(f, p)

    def normalize(self, p: int) -> PairExpr:
        kids: list[PairExpr] = []
        for f in self.factors:
            nf = f.normalize(p)
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

    def render(self) -> str:
        return " * ".join(
            f"({f.render()})" if isinstance(f, FreeProd) else f.render()
            for f in self.factors
        )

    def to_json(self) -> dict:
        return {"type": "freeprod", "factors": [f.to_json() for f in self.factors]}

    def sort_key(self) -> tuple:
        return (4, (len(self.factors),), tuple(f.sort_key() for f in self.factors))

    def rank(self) -> int:
        return sum(f.rank() for f in self.factors)

    def theta_generators(self, p: int) -> list[PAdicUnit]:
        return [u for f in self.factors for u in f.theta_generators(p)]

    def abelianization(self, p: int) -> list[int]:
        return [q for f in self.factors for q in f.abelianization(p)]

    def dims_closed_form(self, max_degree: int) -> list[int]:
        rows = [f.dims_closed_form(max_degree) for f in self.factors]
        return [1] + [sum(r[d] for r in rows) for d in range(1, max_degree + 1)]

    def log_level_recursive(self) -> float | int:
        return max(f.log_level_recursive() for f in self.factors)


@dataclass(frozen=True)
class Ext(PairExpr):
    m: int
    base: PairExpr

    def validate(self, p: int) -> None:
        if self.m < 1:
            raise ValidationError("extension rank m must be >= 1")
        _validate(self.base, p)

    def normalize(self, p: int) -> PairExpr:
        m, base = self.m, self.base.normalize(p)
        if isinstance(base, Ext):
            m, base = m + base.m, base.base
        if isinstance(base, EBlock):
            # Z_2 ⋊ E splits as E * E, peeling one extension layer
            ee = FreeProd((EBlock(), EBlock()))
            return ee if m == 1 else Ext(m - 1, ee)
        if isinstance(base, Trivial) and m == 1:
            return ZBlock(make_unit(p, 1))
        return Ext(m, base)

    def render(self) -> str:
        return f"ext({self.m}, {self.base.render()})"

    def to_json(self) -> dict:
        return {"type": "ext", "m": self.m, "base": self.base.to_json()}

    def sort_key(self) -> tuple:
        return (5, (self.m,), (self.base.sort_key(),))

    def rank(self) -> int:
        return self.m + self.base.rank()

    def theta_generators(self, p: int) -> list[PAdicUnit]:
        return self.base.theta_generators(p)

    def abelianization(self, p: int) -> list[int]:
        q = subgroup_invariants(p, self.base.theta_generators(p)).q_invariant
        return [q] * self.m + self.base.abelianization(p)

    def dims_closed_form(self, max_degree: int) -> list[int]:
        b = self.base.dims_closed_form(max_degree)
        return [
            sum(math.comb(self.m, j) * b[d - j] for j in range(min(self.m, d) + 1))
            for d in range(max_degree + 1)
        ]

    def log_level_recursive(self) -> float | int:
        return self.base.log_level_recursive()


_DEFAULT_S = {"I": 1, "II": 4, "III": 2, "IV": 2}


def default_level(case: str) -> int:
    """Case-consistent level metadata: the value of s forced by the case."""
    return _DEFAULT_S[case]


def validate(e: PairExpr, p: int) -> None:
    """Check the structural invariants of ``e`` for the ambient prime."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    _validate(e, p)


def _validate(e: PairExpr, p: int) -> None:
    if not isinstance(e, PairExpr):
        raise ValidationError(f"not a pair expression: {e!r}")
    e.validate(p)


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


def _int_token(tok) -> int:
    """The value of a "num" token; a literal past Python's int-to-str
    digit limit is a grammar error at the token."""
    try:
        return int(tok[1])
    except ValueError as exc:
        raise ParseError(f"integer literal of {len(tok[1])} characters is too long",
                         tok[2]) from exc


class _Parser:
    def __init__(self, text: str, p: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.p = p
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
        return _int_token(tok)

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
                alpha = make_unit(self.p, num, den)
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
            return _int_token(tok)

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


def parse(text: str, p: int) -> PairExpr:
    """Parse and validate an expression in the textual grammar."""
    parser = _Parser(text, p)
    e = parser.expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    validate(e, p)
    return e


def _render_rational(alpha: PAdicUnit) -> str:
    if alpha.den == 1:
        return str(alpha.num)
    return f"{alpha.num}/{alpha.den}"


def render(e: PairExpr) -> str:
    """Textual form in the grammar; inverse of parse on normal forms."""
    return e.render()


def to_json(e: PairExpr) -> dict:
    """Expression tree as plain JSON data (units per the unit contract)."""
    return e.to_json()


# ---------------------------------------------------------------------------
# normalization


def sort_key(e: PairExpr):
    """Total order on expressions: tag, numeric parameters, children."""
    return e.sort_key()


def normalize(e: PairExpr, p: int) -> PairExpr:
    """Canonical form: flatten and sort free products, drop trivial factors,
    merge nested extensions, rewrite Ext(1,Trivial) and Ext(m,E)."""
    validate(e, p)
    return e.normalize(p)


# ---------------------------------------------------------------------------
# invariants


def rank(e: PairExpr) -> int:
    """dim H^1: generator rank of the pair."""
    return e.rank()


def theta_generators(e: PairExpr, p: int) -> list[PAdicUnit]:
    """Generators of the theta-image, read off the blocks."""
    return e.theta_generators(p)


def theta_image(e: PairExpr, p: int) -> UnitSubgroupInvariants:
    """Invariants of the subgroup of units generated by the theta-values."""
    validate(e, p)
    return subgroup_invariants(p, theta_generators(e, p))


def abelianization(e: PairExpr, p: int) -> list[int]:
    """Divisor sequence of G/[G,G]: 0 per Z_p factor, q per Z_p/q factor."""
    return e.abelianization(p)

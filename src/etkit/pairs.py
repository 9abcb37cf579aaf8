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

``validate``, ``normalize`` and ``theta_image`` remember their answers
on the expression object, so each walks a tree once per prime.  The
memo is a dict by p in the instance ``__dict__``, as
``functools.cached_property`` keeps its values: it is no dataclass field,
so equality, hash, repr and JSON never see it.  It is keyed by p because
validity is: E is valid at p = 2 only, and a p-adic block's default
level is filled at p = 2 only.  A failed validation is not remembered.
The normal form that ``normalize`` returns is remembered as valid and
as its own normal form, by a flag rather than a reference to itself, so
the memo makes no reference cycle.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType

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

    # the read-only default of the per-object memo; ``_remember`` puts an
    # object's own dict, by prime, into its instance ``__dict__``
    _memo = MappingProxyType({})

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
    _memo_at(e, p)


class _Memo:
    """What one expression object has shown at one prime.  The entry
    exists once the object validated there; ``normal`` is its normal form,
    or True when the object is one, and ``theta`` its theta image, each
    None until first asked for."""

    __slots__ = ("normal", "theta")

    def __init__(self):
        self.normal = self.theta = None


def _memo_at(e: PairExpr, p: int) -> _Memo:
    """The memo entry of ``e`` at p.  The first call at p validates e and
    makes the entry; later calls return it and walk no node."""
    entry = e._memo.get(p) if isinstance(e, PairExpr) else None
    if entry is None:
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        _validate(e, p)
        entry = _remember(e, p)
    return entry


def _remember(e: PairExpr, p: int) -> _Memo:
    """The memo entry of ``e`` at p, made if missing; e is valid at p."""
    memo = e.__dict__.setdefault("_memo", {})
    entry = memo.get(p)
    if entry is None:
        entry = memo[p] = _Memo()
    return entry


def _validate(e: PairExpr, p: int) -> None:
    if not isinstance(e, PairExpr):
        raise ValidationError(f"not a pair expression: {e!r}")
    e.validate(p)


# ---------------------------------------------------------------------------
# grammar


# A token is an integer literal, an ASCII name or one punctuation mark;
# whitespace separates tokens and is dropped.  Every other character, and
# a '-' that no digit follows, starts no token: ``_BAD_RE`` finds the
# first such character, and the text is sound if there is none.  A
# sound text is tokens and whitespace only, so one ``findall`` splits it
# with the same leftmost longest-alternative choice a match per token
# makes, and a token's kind shows in its characters: a literal ends in a
# digit, a name is letters, anything else is punctuation.
_TOKEN_RE = re.compile(r"-?[0-9]+|[A-Za-z]+|[*(),=/]")
_BAD_RE = re.compile(r"[^\s0-9A-Za-z*(),=/-]|-(?![0-9])")


def _tokenize(text: str) -> list[str]:
    """The tokens of ``text``, or a ParseError at its first bad character."""
    bad = _BAD_RE.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    return _TOKEN_RE.findall(text)


def _token_starts(text: str) -> list[int]:
    """The position of each token of a sound ``text``, for error messages."""
    return [m.start() for m in _TOKEN_RE.finditer(text)]


class _Parser:
    """Recursive descent over the token strings.  An empty string ends the
    list, so reading never runs off it; positions are looked up only when
    an error is raised."""

    def __init__(self, text: str, p: int):
        self.text = text
        self.tokens = _tokenize(text) + [""]
        self.i = 0
        self.depth = 0
        self.p = p

    def at(self, i: int) -> int:
        """Position of token i in the text; the text's length past the last."""
        starts = _token_starts(self.text)
        return starts[i] if i < len(starts) else len(self.text)

    def fail(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.at(i))

    def next(self) -> str:
        tok = self.tokens[self.i]
        if not tok:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise self.fail(f"expected {text!r}, found {tok!r}", self.i - 1)

    def integer(self, i: int, expects: str = "expected an integer") -> int:
        """The value of token i, which must be a literal; a literal past
        Python's int-to-str digit limit is a grammar error at the token."""
        tok = self.tokens[i]
        if not tok[-1].isdigit():
            raise self.fail(f"{expects}, found {tok!r}", i)
        try:
            return int(tok)
        except ValueError as exc:
            raise self.fail(f"integer literal of {len(tok)} characters is too long",
                            i) from exc

    def next_integer(self) -> int:
        self.next()
        return self.integer(self.i - 1)

    def expr(self) -> PairExpr:
        if self.depth > MAX_DEPTH:
            raise self.fail(f"expression nested more than {MAX_DEPTH} deep", self.i)
        self.depth += 1
        factors = [self.term()]
        while self.tokens[self.i] == "*":
            self.i += 1
            factors.append(self.term())
        self.depth -= 1
        if len(factors) == 1:
            return factors[0]
        return FreeProd(tuple(factors))

    def term(self) -> PairExpr:
        tok = self.next()
        at = self.i - 1
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if not tok.isalpha():
            raise self.fail(f"expected a term, found {tok!r}", at)
        if tok == "triv":
            return Trivial()
        if tok == "E":
            return EBlock()
        if tok == "Z":
            self.expect("(")
            num = self.next_integer()
            den = 1
            if self.tokens[self.i] == "/":
                self.i += 1
                den = self.next_integer()
            self.expect(")")
            try:
                alpha = make_unit(self.p, num, den)
            except (NotAUnit, DenominatorNotInvertible) as exc:
                raise ValidationError(f"Z-block at position {self.at(at)}: {exc}") from exc
            return ZBlock(alpha)
        if tok == "ext":
            self.expect("(")
            m = self.next_integer()
            self.expect(",")
            base = self.expr()
            self.expect(")")
            return Ext(m, base)
        if tok == "padic":
            self.expect("(")
            fields = self.keyvals()
            self.expect(")")
            return self.block_from(fields)
        raise self.fail(f"unknown term {tok!r}", at)

    def keyvals(self) -> dict[str, int]:
        """The block's keys, each to the index of its value token."""
        fields: dict[str, int] = {}
        while True:
            key = self.next()
            if not key.isalpha():
                raise self.fail(f"expected a key, found {key!r}", self.i - 1)
            self.expect("=")
            self.next()
            if key in fields:
                raise self.fail(f"duplicate key {key!r}", self.i - 3)
            fields[key] = self.i - 1
            if self.tokens[self.i] != ",":
                return fields
            self.i += 1

    def block_from(self, fields: dict[str, int]) -> PAdicBlock:
        def intval(key):
            i = fields.pop(key, None)
            return None if i is None else self.integer(i, f"{key} expects an integer")

        n = intval("n")
        if n is None:
            raise ValidationError("padic block requires n")
        if "case" not in fields:
            raise ValidationError("padic block requires case")
        case = self.tokens[fields.pop("case")]
        if "f" in fields and self.tokens[fields["f"]] == "inf":
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
            key, i = next(iter(fields.items()))
            raise self.fail(f"unknown block key {key!r}", i)
        return PAdicBlock(n=n, q=q, case=case, f=f, s=s)


def parse(text: str, p: int) -> PairExpr:
    """Parse and validate an expression in the textual grammar."""
    parser = _Parser(text, p)
    e = parser.expr()
    tok = parser.tokens[parser.i]
    if tok:
        raise parser.fail(f"trailing input {tok!r}", parser.i)
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
    merge nested extensions, rewrite Ext(1,Trivial) and Ext(m,E).

    Computed once per object and prime.  The normal form of a valid tree
    is valid at p and is its own normal form, so it is remembered as both
    and ``normalize(normalize(e, p), p)`` returns its argument."""
    entry = _memo_at(e, p)
    ne = entry.normal
    if ne is True:
        return e
    if ne is None:
        ne = e.normalize(p)
        _remember(ne, p).normal = True
        if ne is not e:
            entry.normal = ne
    return ne


# ---------------------------------------------------------------------------
# invariants


def rank(e: PairExpr) -> int:
    """dim H^1: generator rank of the pair."""
    return e.rank()


def theta_generators(e: PairExpr, p: int) -> list[PAdicUnit]:
    """Generators of the theta-image, read off the blocks."""
    return e.theta_generators(p)


def theta_image(e: PairExpr, p: int) -> UnitSubgroupInvariants:
    """Invariants of the subgroup of units generated by the theta-values,
    computed once per object and prime."""
    entry = _memo_at(e, p)
    if entry.theta is None:
        entry.theta = subgroup_invariants(p, theta_generators(e, p))
    return entry.theta


def abelianization(e: PairExpr, p: int) -> list[int]:
    """Divisor sequence of G/[G,G]: 0 per Z_p factor, q per Z_p/q factor."""
    return e.abelianization(p)

"""Concrete fields with computable p-th-power class groups and symbols.

Six backends: finite fields, Q_ell for odd ell (tame), Q_2, R, C, and
truncated Laurent extensions of the finite/Laurent backends.  Each is a
frozen dataclass subclassing :class:`FieldModel` and answers for itself:
a labeled basis of F^x/(F^x)^p with class coordinates, the symbol tensor
on that basis, a predicted Galois pair, an element codec and a candidate
pool.  The degree-2 symbol is bilinear and kills p-th powers, so
``symbol_vector`` reads it off the tensor and its arguments' classes.
The module-level functions check their arguments once and call those
methods; the bounded searches (the trichotomy probe, O(S,H) membership)
and total rigidity are written once on top of them.  A backend complete
for a discrete valuation, tame for p (Q_ell, Laurent), names its residue
field in ``residue()``: its symbol tensor is the tame rule over that
field, and total rigidity reads the enumerated pair set of the bottom
residue field only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .cohomology import build_cohomology
from .errors import (
    InvalidModel,
    JsonRecord,
    ModelUnsupported,
    PrecisionExhausted,
    ValidationError,
    int_param,
    is_int,
)
from .fplinear import echelon_insert, is_prime, sparse_row
from .laurent import LaurentRing
from .pairs import EBlock, Ext, PAdicBlock, PairExpr, Trivial, ZBlock, normalize, rank
from .rigidity import AugBilinearMap, _all_vectors, _q_finder, find_equivalence, from_cohomology
from .smallfields import GF, gf
from .units import make_unit, valuation

DEFAULT_SERIES_PRECISION = 16
# README "Limits": the most coefficients a Laurent model keeps per series
MAX_SERIES_PRECISION = 32
# README "Limits": the most Laurent levels in a tower
MAX_TOWER_DEPTH = 16


# ---------------------------------------------------------------------------
# exact rationals and their 2-adic / ell-adic helpers


class _FracOps:
    """Exact rationals; shared by the local, real, and complex backends."""

    one = Fraction(1)
    minus_one = Fraction(-1)

    @staticmethod
    def sub(x, y):
        return x - y

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def inv(x):
        if x == 0:
            raise ValidationError("0 is not invertible")
        return 1 / Fraction(x)

    @staticmethod
    def pow_(x, n: int):
        if x == 0 and n <= 0:
            raise ValidationError("0 to a nonpositive power")
        return Fraction(x) ** n

    @staticmethod
    def is_zero(x) -> bool:
        return x == 0

    @staticmethod
    def render(x) -> str:
        return str(Fraction(x))


def _val_unit(x: Fraction, ell: int) -> tuple[int, Fraction]:
    if x == 0:
        raise ValidationError("0 has no valuation")
    num, den = x.numerator, x.denominator
    vn, vd = valuation(num, ell), valuation(den, ell)
    return vn - vd, Fraction(num // ell**vn, den // ell**vd)


def _residue(u: Fraction, m: int) -> int:
    """A unit rational mod m."""
    return (u.numerator * pow(u.denominator, -1, m)) % m


def _eps2(u: Fraction) -> int:
    """(u-1)/2 mod 2 of a 2-adic unit given as an odd rational."""
    return 0 if _residue(u, 4) == 1 else 1


def _omega2(u: Fraction) -> int:
    """(u^2-1)/8 mod 2 of a 2-adic unit."""
    return 1 if _residue(u, 8) in (3, 5) else 0


def hilbert2(a: Fraction, b: Fraction) -> int:
    """Quadratic Hilbert symbol of Q_2, written additively in F_2."""
    alpha, u = _val_unit(Fraction(a), 2)
    beta, w = _val_unit(Fraction(b), 2)
    return (_eps2(u) * _eps2(w) + alpha * _omega2(w) + beta * _omega2(u)) % 2


# ---------------------------------------------------------------------------
# candidate pools for the bounded searches


def _rational_pool():
    seen = {Fraction(0), Fraction(1)}
    h = 2
    while True:
        for den in range(1, h):
            num_abs = h - den
            for num in (num_abs, -num_abs):
                f = Fraction(num, den)
                if f.denominator == den and f not in seen:
                    seen.add(f)
                    yield f
        h += 1


def _seeded_pool(seed: list):
    """The seed, then the rational pool without the seed's elements."""
    yield from seed
    skip = set(seed)
    for f in _rational_pool():
        if f not in skip:
            yield f


def _coeff_pool(domain, limit: int = 8) -> list:
    """Small nonzero coefficients of a series domain."""
    if isinstance(domain, GF):
        return list(domain.units()[:limit])
    out = [domain.one, domain.add(domain.one, domain.gen()), domain.gen()]
    for c in _coeff_pool(domain.base, 3):
        out.append(domain.from_const(c))
    return out[:limit]


def _refuse_unread_keys(data: dict, keys: set, params, names: set) -> None:
    """Refuse a model key or a params key that the decoder does not read,
    so that a misplaced or misspelt one is not silently dropped."""
    unread = sorted(set(data) - keys)
    if unread:
        raise InvalidModel(f"unknown model key {unread[0]!r}")
    unread = sorted(set(params) - names) if isinstance(params, dict) else []
    if unread:
        raise InvalidModel(f"unknown model parameter {unread[0]!r} for {data['kind']}")


# ---------------------------------------------------------------------------
# the backends


class FieldModel(ABC):
    """A field backend.  Subclasses are frozen dataclasses whose fields
    are the model's parameters; the defaults here serve the rational
    backends (local, dyadic, real, complex)."""

    @abstractmethod
    def check(self, p: int) -> None:
        """Raise InvalidModel unless mu_p lives in the field and the
        backend is tame for p."""

    @classmethod
    def from_json(cls, data: dict, p: int) -> FieldModel:
        """Decode ``{"kind", "params"}``; every field is an integer param."""
        params = data.get("params", {})
        _refuse_unread_keys(data, {"kind", "params"}, params,
                            {f.name for f in fields(cls)})
        return cls(**{f.name: int_param(params, f.name, InvalidModel,
                                        f"model parameter {f.name!r} must be an integer")
                      for f in fields(cls)})

    def domain(self):
        """Element operations: a GF, a LaurentRing, or rational ops."""
        return _FracOps()

    def decode(self, data):
        """A field element from JSON: an int or {"num","den"} here."""
        if isinstance(data, bool) or not isinstance(data, (int, dict)):
            raise ValidationError("rational elements are ints or {\"num\",\"den\"}")
        if isinstance(data, int):
            return Fraction(data)
        if "num" not in data:
            raise ValidationError('rational elements need a "num" key')
        num, den = data["num"], data.get("den", 1)
        if not (is_int(num) and is_int(den)) or den == 0:
            raise ValidationError(
                'rational elements need integer "num" and nonzero integer "den"')
        return Fraction(num, den)

    @abstractmethod
    def basis(self, p: int) -> list[tuple[str, object]]:
        """(label, representative) pairs of a basis of F^x/(F^x)^p."""

    @abstractmethod
    def class_of(self, p: int, a) -> tuple[int, ...]:
        """Coordinates of a nonzero a in the basis."""

    def residue(self) -> FieldModel | None:
        """The residue field of a backend complete for a discrete
        valuation and tame for p, whose uniformizer is its last class;
        None for a backend without one."""
        return None

    def symbol_tensor(self, p: int) -> np.ndarray:
        """The (d, d, e) int64 tensor whose entry (i, j) is the symbol of
        the i-th and j-th basis representatives, in F_p^e.  Here the tame
        rule over ``residue()``; a backend without a residue field
        overrides it."""
        return _tame_tensor(self.residue(), p)

    def symbol_dim(self, p: int) -> int:
        return _symbol_tensor(self, p).shape[2]

    @abstractmethod
    def predict(self, p: int) -> PairExpr:
        """The predicted elementary-type Galois pair."""

    def pool(self, p: int):
        """Deterministic stream of nonzero candidates, excluding 1."""
        return _rational_pool()

    def pair_set(self, p: int) -> set[tuple]:
        """P(K) = {(class x, class(1 - x)) : x not in {0, 1}}, so that
        1 lies in aS + bS iff (class a, class b) lies in P(K).

        Here the zero set of the symbol tensor, in one einsum.  That is
        exact only for a backend without a residue field that keeps it
        (Q_2, R, C): they exist only at p = 2 or have no classes (d = 0),
        and at p = 2 a form <a, b> over an infinite field represents 1
        iff {a, b} = 0.  It is never asked of a tame backend: total
        rigidity reads the pairs of the bottom residue field."""
        t = _symbol_tensor(self, p)
        vecs = _all_vectors(p, t.shape[0])
        zero = ~(np.einsum("ai,ijk,bj->abk", vecs, t, vecs) % p).any(axis=2)
        rows = [tuple(v) for v in vecs.tolist()]
        return {(rows[i], rows[j]) for i, j in np.argwhere(zero).tolist()}


def _tame_tensor(residue: FieldModel, p: int) -> np.ndarray:
    """The symbol tensor of a field complete for a discrete valuation,
    tame for p, on the lifted basis of ``residue`` and then the
    uniformizer t: the residue field's tensor on its classes, then the
    class of the tame residue (-1)^(va*vb) ua^vb ub^(-va): for a residue
    basis element c, {c, t} = class(c), {t, c} = -class(c), and
    {t, t} = class(-1)."""
    base = _symbol_tensor(residue, p)
    k, e = base.shape[0], base.shape[2]
    t = np.zeros((k + 1, k + 1, e + k), dtype=np.int64)
    t[:k, :k, :e] = base
    t[:k, k, e:] = np.eye(k, dtype=np.int64)
    t[k, :k, e:] = (p - 1) * np.eye(k, dtype=np.int64)
    t[k, k, e:] = class_of(residue, p, residue.domain().minus_one)
    return t


@dataclass(frozen=True)
class FiniteField(FieldModel):
    q: int

    def check(self, p):
        gf(self.q)
        if (self.q - 1) % p:
            raise InvalidModel(
                f"F_{self.q} has no p-th roots of unity for p={p}"
            )

    def domain(self):
        return gf(self.q)

    def decode(self, data):
        """Integer encodings in [0, q)."""
        if isinstance(data, bool) or not isinstance(data, int):
            raise ValidationError("finite-field elements are integer encodings")
        if not 0 <= data < self.q:
            raise ValidationError(f"element {data} outside [0, {self.q})")
        return data

    def basis(self, p):
        f = gf(self.q)
        return [(f.render(f.generator), f.generator)]

    def class_of(self, p, a):
        return gf(self.q).class_of(a, p)

    def symbol_tensor(self, p):
        return np.zeros((1, 1, 0), dtype=np.int64)

    def predict(self, p):
        return ZBlock(make_unit(p, self.q))

    def pool(self, p):
        return iter(range(2, self.q))

    def pair_set(self, p):
        """Every x other than 0 and 1, enumerated."""
        f = gf(self.q)
        return {(f.class_of(x, p), f.class_of(f.sub(f.one, x), p))
                for x in f.units() if x != f.one}


@dataclass(frozen=True)
class LocalRational(FieldModel):
    ell: int

    def check(self, p):
        if not is_prime(self.ell) or self.ell == 2:
            raise InvalidModel("the residue prime must be an odd prime")
        if p != 2 and (self.ell - 1) % p:
            raise InvalidModel(f"need ell = 1 mod {p} for mu_{p} in Q_ell")

    def basis(self, p):
        g = gf(self.ell).generator
        return [(str(g), Fraction(g)), (str(self.ell), Fraction(self.ell))]

    def class_of(self, p, a):
        v, u = _val_unit(a, self.ell)
        return gf(self.ell).class_of(_residue(u, self.ell), p) + (v % p,)

    def residue(self):
        return FiniteField(self.ell)

    def predict(self, p):
        return Ext(1, ZBlock(make_unit(p, self.ell)))

    def pool(self, p):
        ell = self.ell
        seed = [Fraction(r) for r in range(2, min(ell, 12))]
        seed += [Fraction(ell), Fraction(ell + 1), Fraction(1, ell),
                 Fraction(1 - ell)]
        return _seeded_pool(seed)


@dataclass(frozen=True)
class DyadicRational(FieldModel):
    def check(self, p):
        if p != 2:
            raise InvalidModel(f"{type(self).__name__} requires p=2")

    def basis(self, p):
        return [(str(r), Fraction(r)) for r in (-1, 2, 5)]

    def class_of(self, p, a):
        v, u = _val_unit(Fraction(a), 2)
        return (_eps2(u), v % 2, _omega2(u))

    def symbol_tensor(self, p):
        reps = [r for _, r in self.basis(p)]
        return np.array([[[hilbert2(a, b)] for b in reps] for a in reps],
                        dtype=np.int64)

    def predict(self, p):
        return PAdicBlock(n=3, q=2, case="II", f=2, s=4)

    def pool(self, p):
        return _seeded_pool([Fraction(-1), Fraction(2), Fraction(5), Fraction(-2),
                             Fraction(10), Fraction(-5), Fraction(-10)])


@dataclass(frozen=True)
class RealField(FieldModel):
    def check(self, p):
        if p != 2:
            raise InvalidModel(f"{type(self).__name__} requires p=2")

    def basis(self, p):
        return [("-1", Fraction(-1))]

    def class_of(self, p, a):
        return (1 if a < 0 else 0,)

    def symbol_tensor(self, p):
        return np.ones((1, 1, 1), dtype=np.int64)

    def predict(self, p):
        return EBlock()


@dataclass(frozen=True)
class ComplexField(FieldModel):
    def check(self, p):
        pass

    def basis(self, p):
        return []

    def class_of(self, p, a):
        return ()

    def symbol_tensor(self, p):
        return np.zeros((0, 0, 0), dtype=np.int64)

    def predict(self, p):
        return Trivial()


@dataclass(frozen=True)
class Laurent(FieldModel):
    """F((var)) over a finite or Laurent base, with series kept to
    ``precision`` coefficients."""

    base: FieldModel
    var: str = "t"
    precision: int = DEFAULT_SERIES_PRECISION

    def check(self, p):
        if not isinstance(self.base, (FiniteField, Laurent)):
            raise InvalidModel(
                "Laurent models are supported over finite fields and "
                "Laurent models only"
            )
        if not 2 <= self.precision <= MAX_SERIES_PRECISION:
            raise InvalidModel(
                f"series precision must be in 2..{MAX_SERIES_PRECISION}"
            )
        inner, depth = self.base, 1
        while isinstance(inner, Laurent):
            if inner.var == self.var:
                raise InvalidModel(f"variable {self.var!r} reused in the tower")
            inner, depth = inner.base, depth + 1
        if depth > MAX_TOWER_DEPTH:
            raise InvalidModel(f"a Laurent tower has at most {MAX_TOWER_DEPTH} levels")
        self.base.check(p)

    @classmethod
    def from_json(cls, data, p):
        """``{"kind": "Laurent", "params": {"base", "var"}, "precision"}``."""
        params = data.get("params", {})
        _refuse_unread_keys(data, {"kind", "params", "precision"}, params,
                            {"base", "var"})
        if not isinstance(params, dict) or "base" not in params:
            raise InvalidModel("a Laurent model needs a 'base' param")
        base = model_from_json(params["base"], p)
        precision = (int_param(data, "precision", InvalidModel,
                               "model parameter 'precision' must be an integer")
                     if "precision" in data else DEFAULT_SERIES_PRECISION)
        return cls(base, str(params.get("var", "t")), precision)

    def domain(self):
        return self._ring

    @cached_property
    def _ring(self) -> LaurentRing:
        """The model's ring, built on first use and kept in the instance
        ``__dict__``: it is no dataclass field, so ``==``, ``hash`` and
        ``repr`` read only the parameters."""
        return LaurentRing(self.base.domain(), self.var, self.precision)

    def decode(self, data):
        """{"v": valuation, "coeffs": [...]}, coefficients in the base."""
        if not isinstance(data, dict) or "v" not in data or "coeffs" not in data:
            raise ValidationError('series elements look like {"v":0,"coeffs":[...]}')
        if not isinstance(data["coeffs"], list):
            raise ValidationError('series "coeffs" must be a list')
        coeffs = [self.base.decode(c) for c in data["coeffs"]]
        if not is_int(data["v"]):
            raise ValidationError('series "v" must be an integer')
        return self.domain().from_coeffs(data["v"], coeffs)

    def basis(self, p):
        ring = self.domain()
        lifted = [(label, ring.from_const(r)) for label, r in self.base.basis(p)]
        return lifted + [(self.var, ring.gen())]

    def class_of(self, p, a):
        """Residue-field class of the unit part, then valuation mod p."""
        ring = self.domain()
        v = ring.val(a)
        return self.base.class_of(p, ring.lead(a)) + (v % p,)

    def residue(self):
        return self.base

    def predict(self, p):
        return Ext(1, self.base.predict(p))

    def pool(self, p):
        ring = self.domain()
        units = _coeff_pool(ring.base)
        yield ring.add(ring.one, ring.gen())
        yield ring.gen()
        for c in units:
            # value equality here, exact subtraction of equal series
            # would exhaust the precision window
            if c != ring.base.one:
                yield ring.from_const(c)
        for v in (0, 1, -1, 2):
            for c0 in units:
                for c1 in [ring.base.zero] + units:
                    if v == 0 and c1 == ring.base.zero and c0 == ring.base.one:
                        continue
                    yield ring.from_coeffs(v, [c0, c1])  # never zero: c0 is a unit


_KINDS = {cls.__name__: cls for cls in (FiniteField, LocalRational, DyadicRational,
                                        RealField, ComplexField, Laurent)}


def validate_model(model: FieldModel, p: int) -> None:
    """mu_p must live in the field and the backend must be tame for p."""
    if not is_prime(p):
        raise InvalidModel(f"{p} is not prime")
    if not isinstance(model, FieldModel):
        raise ModelUnsupported(f"unknown model {model!r}")
    model.check(p)


def model_from_json(data, p: int) -> FieldModel:
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidModel("model JSON needs a 'kind' key")
    kind = data["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidModel(f"unknown model kind {kind!r}")
    model = cls.from_json(data, p)
    validate_model(model, p)
    return model


# ---------------------------------------------------------------------------
# class groups and symbols


def class_group(model: FieldModel, p: int) -> list[str]:
    """Labels of a basis of F^x/(F^x)^p."""
    validate_model(model, p)
    return [label for label, _ in model.basis(p)]


def class_of(model: FieldModel, p: int, a) -> tuple[int, ...]:
    """Coordinates of a in the class_group basis."""
    if model.domain().is_zero(a):
        raise ValidationError("0 has no power class")
    return model.class_of(p, a)


def is_pth_power(model: FieldModel, p: int, a) -> bool:
    return not any(class_of(model, p, a))


@lru_cache
def _symbol_tensor(model: FieldModel, p: int) -> np.ndarray:
    """``model.symbol_tensor(p)``, built once per (model, p), read-only."""
    t = model.symbol_tensor(p)
    t.flags.writeable = False
    return t


def symbol_vector(model: FieldModel, p: int, a, b) -> np.ndarray:
    """Degree-2 symbol of {a, b} in the model's F_p^e target, as
    class(a)^T T class(b) mod p for the symbol tensor T.

    Raises PrecisionExhausted when a leading coefficient of a or b is
    unknown at some level of a tower, because ``class_of`` reads only
    valuations and leading coefficients."""
    ops = model.domain()
    if ops.is_zero(a) or ops.is_zero(b):
        raise ValidationError("symbols take nonzero arguments")
    x = np.array(model.class_of(p, a), dtype=np.int64)
    y = np.array(model.class_of(p, b), dtype=np.int64)
    return np.einsum("i,ijk,j->k", x, _symbol_tensor(model, p), y) % p


def _symbols_of(model: FieldModel, p: int, a):
    """y -> {a, y}, as ``symbol_vector`` gives it for a nonzero y, with
    M = class(a)^T T mod p, a d x e matrix, built once: {a, y} is then
    class(y) M mod p.  Raises PrecisionExhausted where ``symbol_vector``
    does, from ``class_of``."""
    x = np.array(model.class_of(p, a), dtype=np.int64)
    m = np.einsum("i,ijk->jk", x, _symbol_tensor(model, p)) % p
    return lambda y: np.array(model.class_of(p, y), dtype=np.int64) @ m % p


# ---------------------------------------------------------------------------
# Galois-pair prediction and the pairing match


def predict_galois_pair(model: FieldModel, p: int) -> PairExpr:
    validate_model(model, p)
    return model.predict(p)


def from_field_model(model: FieldModel, p: int) -> AugBilinearMap:
    """The symbol pairing on F^x/(F^x)^p with eps = class of -1."""
    validate_model(model, p)
    eps = np.array(class_of(model, p, model.domain().minus_one), dtype=np.int64)
    return AugBilinearMap(
        p=p, tensor=_symbol_tensor(model, p), eps=eps,
        labels=tuple(label for label, _ in model.basis(p)), multiplicative=True,
    )


def check_pairing_match(model: FieldModel, e: PairExpr, p: int) -> bool:
    """Are the field's symbol map and the expression's cup map isomorphic
    as augmented bilinear maps?

    Two routes, chosen by the normal form of ``e``:

    - it is the normal form of ``model.predict(p)``: the identity basis
      map certifies the match, with no key, no search and no p^d bound.
      Every backend lists its class basis in the order of the predicted
      ring's degree-1 basis (``_tame_tensor`` puts the residue classes
      first and the uniformizer last, as ``ext(1, .)`` puts the base's
      classes before its new one), so P = I.  That is sound: P = I is
      invertible, P eps1 = eps2 is tested as eps1 = eps2, and
      ``_q_finder`` returns Q only when V Q^T = W holds exactly, Q^T
      being B1^-1 B2 for two bases of F_p^e, so Q is invertible.  When
      the identity fails, a backend broke that order: a bug, raised as
      ``RuntimeError``, never answered as no match.
    - any other normal form: ``find_equivalence``, the only way to
      compare two different normal forms, bounded as it is.  Different
      H^1 dimensions are refused before the ring is built.
    """
    m1 = from_field_model(model, p)
    ne = normalize(e, p)
    if ne == normalize(model.predict(p), p):
        m2 = from_cohomology(build_cohomology(ne, p, 2))
        if (np.array_equal(m1.eps, m2.eps)
                and _q_finder(m1, m2)(np.eye(m1.d, dtype=np.int64)) is not None):
            return True
        raise RuntimeError(
            f"the identity basis map does not certify {type(model).__name__}"
            " against its own prediction")
    if rank(ne) != m1.d:  # H^1 dimensions differ: refused before the ring
        return False
    m2 = from_cohomology(build_cohomology(ne, p, 2))
    return find_equivalence(m1, m2) is not None


# ---------------------------------------------------------------------------
# trichotomy search


@dataclass(frozen=True)
class TrichotomyResult(JsonRecord):
    verdict: str
    witness: str | None
    searched: int
    search_bound: int


def trichotomic_search(model: FieldModel, p: int, a,
                       bound: int = 200) -> TrichotomyResult:
    """Look for b with {a,b}, {a,1-b}, {a,1-1/b} all zero.

    The symbol is bimultiplicative and 1 - 1/b = -(1-b)/b, so
    {a,1-1/b} = {a,-1} + {a,1-b} - {a,b}: once the first two vanish, the
    third vanishes iff {a,-1} does, whatever b is.  If it does not, the
    pool is only counted.  At odd p it always does: -1 = (-1)^p is a p-th
    power.  And 1 - 1/b = 0 iff 1 - b = 0, so no candidate is inverted."""
    validate_model(model, p)
    if is_pth_power(model, p, a):
        raise ValidationError("a must not be a p-th power")
    ops = model.domain()
    candidates = islice(model.pool(p), bound)
    searched = 0
    symbol = _symbols_of(model, p, a)  # every pool candidate is nonzero
    if not symbol(ops.minus_one).any():
        for searched, b in enumerate(candidates, 1):
            try:
                one_minus_b = ops.sub(ops.one, b)
                if (ops.is_zero(one_minus_b) or symbol(b).any()
                        or symbol(one_minus_b).any()):
                    continue
            except PrecisionExhausted:
                continue
            return TrichotomyResult("Witness", ops.render(b), searched, bound)
    searched += sum(1 for _ in candidates)
    return TrichotomyResult("NoCounterexampleWithinBound", None, searched, bound)


# ---------------------------------------------------------------------------
# O(S, H) membership


@dataclass(frozen=True)
class OVerdict(JsonRecord):
    target: str
    verdict: str
    search_bound: int
    witness: str | None = None


def _class_code(vec, p: int) -> int:
    """A class vector as one base-p integer, its first coordinate the
    highest digit: one small integer per class, where a tuple of d
    integers would cost several times the memory."""
    code = 0
    for c in vec:
        code = code * p + c
    return code


def _parse_h(h_spec, d: int, p: int) -> set | None:
    """H as a set of ``_class_code``s of its class vectors, or None for
    all of F_p^d."""
    if h_spec == "all":
        return None
    if not isinstance(h_spec, list) or not all(
        isinstance(row, list) and all(is_int(c) for c in row) for row in h_spec
    ):
        raise ValidationError('H must be "all" or a list of integer coset vectors')
    vecs = set()
    basis: dict = {}  # an echelon basis of H's span, grown until it is full
    for row in h_spec:
        t = tuple(c % p for c in row)
        if len(t) != d:
            raise ValidationError(f"coset vector {row} should have length {d}")
        code = _class_code(t, p)
        if code not in vecs:
            vecs.add(code)
            if len(basis) < d:
                echelon_insert(basis, sparse_row(dict(enumerate(t)), p), p)
    if 0 not in vecs:
        raise ValidationError("H must contain the trivial coset")
    # H lies in its span, so it is the span, a subgroup, iff it is as large
    if len(vecs) != p ** len(basis):
        raise ValidationError("H is not closed under multiplication")
    return vecs


def o_membership(model: FieldModel, p: int, a, h_spec, target: str,
                 bound: int = 200) -> OVerdict:
    """Membership of a in O^-, O^+, or their union, for S = (F^x)^p.

    O^- = (1-S) and H intersected; O^+ multiplies O^- into itself.  O^-
    is decided exactly; the O^+ side reports NonMember on a concrete
    refuting c, and otherwise Member only when the backend is exhaustive.
    O^+ is taken inside H, so an a outside H (and, for ORing, outside
    O^-) is a NonMember at once, and its witness is a itself, not a
    refuting c.
    """
    validate_model(model, p)
    if target not in ("OMinus", "OPlus", "ORing"):
        raise ValidationError(f"unknown target {target!r}")
    ops = model.domain()
    if ops.is_zero(a):
        raise ValidationError("membership is about nonzero elements")
    h = _parse_h(h_spec, len(model.basis(p)), p)

    def in_h(x) -> bool:
        return h is None or _class_code(class_of(model, p, x), p) in h

    def in_o_minus(x) -> bool:
        if not in_h(x):
            return False
        s = ops.sub(ops.one, x)
        if ops.is_zero(s):
            return False
        return is_pth_power(model, p, s)

    if target == "OMinus":
        verdict = "Member" if in_o_minus(a) else "NonMember"
        return OVerdict(target, verdict, bound)

    if target == "ORing" and in_o_minus(a):
        return OVerdict(target, "Member", bound)
    if not in_h(a):
        return OVerdict(target, "NonMember", bound, ops.render(a))

    if isinstance(model, FiniteField):
        o_minus = [c for c in ops.units() if in_o_minus(c)]
        for c in o_minus:
            if not in_o_minus(ops.mul(a, c)):
                return OVerdict(target, "NonMember", bound, ops.render(c))
        return OVerdict(target, "Member", bound)

    for sigma in islice(model.pool(p), bound):
        try:
            s = ops.pow_(sigma, p)
            c = ops.sub(ops.one, s)
            if ops.is_zero(c) or not in_h(c):
                continue
            # c = 1 - s is certified to lie in O^-
            if not in_o_minus(ops.mul(a, c)):
                return OVerdict(target, "NonMember", bound, ops.render(c))
        except PrecisionExhausted:
            continue
    return OVerdict(target, "UnknownWithinBound", bound)


# ---------------------------------------------------------------------------
# total rigidity


@dataclass(frozen=True)
class TotalRigidityVerdict(JsonRecord):
    verdict: str
    witness: str | None
    st_dim: int
    d_dim: int
    decided_pairs: int
    total_pairs: int


def is_totally_rigid_bounded(model: FieldModel, p: int) -> TotalRigidityVerdict:
    """Compare the Steinberg subgroup St_2(S), spanned by the tensors
    a (x) b with 1 in aS + bS, that is by alpha (x) beta over the pair set
    P(K), with D, spanned by the tensors a (x) (a + eps), eps = class(-1).

    Both are spans of O(d^2) rows plus the pairs of one small field:

    - D has the basis e_i (x) (e_i + eps) and e_i (x) e_j + e_j (x) e_i
      for i < j, by polarization: (a + b) (x) (a + b + eps) - a (x)
      (a + eps) - b (x) (b + eps) = a (x) b + b (x) a, and a sum of
      basis classes expands into these rows.  At odd p, eps = 0 (-1 is
      a p-th power) and a multiple c a gives c^2 a (x) a, in the same
      span.
    - St = D + the zero-padded lifts of the pairs of the bottom field F:
      ``residue()`` followed down to a backend without one (F_q, or the
      model itself for Q_2, R and C).  On a tame backend 1 + tO consists
      of p-th powers, so P(K) is the residue field's pairs lifted at
      valuation 0 and three families: (c, 0) and (0, c) from x or 1 - x
      of positive valuation, and (c, c + eps) from v(x) < 0, since
      1 - x = -x (1 - 1/x).  The lift of a residue family is again a
      family, as eps_K lifts eps_F, so every pair but the bottom's lifts
      gives a zero tensor or a row of D.  And D lies in St on every
      field: a (x) (-a) = a (x) (1 - a) + a^-1 (x) (1 - a^-1).

    The witness is the first pair of P(K), in the lexicographic order of
    (class a, class b), whose tensor lies outside D.  Only lifted pairs
    can be, and zero-padding keeps their order, so it is the first of
    the bottom's sorted pairs outside D.  Until it comes, the basis is
    D's, so one basis serves both: St is D's basis grown by the pairs.
    ``decided_pairs`` and ``total_pairs`` are both p^(2d): every pair is
    decided, and no coset representative is built."""
    validate_model(model, p)
    eps = class_of(model, p, model.domain().minus_one)
    d = len(eps)
    bottom = model
    while bottom.residue() is not None:
        bottom = bottom.residue()
    pad = (0,) * (d - len(bottom.basis(p)))
    basis: dict = {}
    for i in range(d):
        echelon_insert(basis, sparse_row({i * d + k: c + (k == i)
                                          for k, c in enumerate(eps)}, p), p)
        for j in range(i + 1, d):
            echelon_insert(basis, sparse_row({i * d + j: 1, j * d + i: 1}, p), p)
    d_dim = len(basis)
    witness = None
    for va, vb in sorted(bottom.pair_set(p)):
        row = sparse_row({i * d + j: x * y for i, x in enumerate(va)
                          for j, y in enumerate(vb)}, p)
        if echelon_insert(basis, row, p) and witness is None:
            witness = f"[{_vec_label(va + pad)}] (x) [{_vec_label(vb + pad)}]"
    total = p ** (2 * d)
    return TotalRigidityVerdict("TotallyRigid" if witness is None else "NotTotallyRigid",
                                witness, len(basis), d_dim, total, total)


def _vec_label(vec) -> str:
    return ",".join(str(int(c)) for c in vec)

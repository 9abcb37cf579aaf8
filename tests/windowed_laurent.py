"""The truncated Laurent-series kernel, kept as a test oracle.

This is the kernel that ``etkit.laurent`` replaced with exact Laurent
polynomials.  A series carries its valuation and a window of known
coefficients; every operation tracks how much of the result is still
certified, and anything that needs a leading coefficient the window no
longer covers raises PrecisionExhausted rather than guessing.  The
coefficient domain can be a GF instance or another WindowedRing.

The tests use it two ways: every coefficient a window certifies must
equal the exact kernel's, and the routes that invert a series that is
no monomial (the tame residue as full series) run here, since the
exact ring inverts only monomials.  ``windowed_ring`` builds the twin
ring of a Laurent model and ``to_window`` carries an exact element into
it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from etkit.errors import PrecisionExhausted, ValidationError
from etkit.field_models import FiniteField, _symbol_tensor
from etkit.laurent import LaurentRing


class Series(NamedTuple):
    """Element of F((t)): coeffs[i] is the t^(v+i) coefficient.

    An empty window with zero=False means only "valuation >= v" is known.
    """

    v: int
    coeffs: tuple
    zero: bool = False


# builds a Series from its three fields without the keyword handling of
# Series(...); the kernel makes one per operation
_new = tuple.__new__


class WindowedRing:
    def __init__(self, base, var: str, precision: int):
        if precision < 1:
            raise ValidationError("series precision must be >= 1")
        if not var or not var.isalpha():
            raise ValidationError("variable name must be alphabetic")
        self.base = base
        self.var = var
        self.T = precision
        self._laurent_base = isinstance(base, WindowedRing)
        self._pad = (base.zero,) * precision
        self.zero = Series(0, (), True)
        self.one = self.from_const(base.one)
        self.minus_one = self.from_const(base.minus_one)

    # -- construction --------------------------------------------------------

    def from_const(self, c) -> Series:
        return self.from_coeffs(0, [c])

    def gen(self) -> Series:
        """The uniformizer t."""
        return self.from_coeffs(1, [self.base.one])

    def from_coeffs(self, v: int, coeffs) -> Series:
        """Exact element sum coeffs[i] * t^(v+i); truncated at precision,
        its window reading base.zero past the given coefficients."""
        cl = tuple(coeffs)
        # is_zero raises PrecisionExhausted on a coefficient known only to
        # a valuation, so the first that is not an exact zero must be known
        if all(self.base.is_zero(c) for c in cl):
            return self.zero
        return self._norm(v, cl[: self.T] + self._pad[len(cl):])

    def _norm(self, v: int, coeffs) -> Series:
        """The series with window ``coeffs[:T]`` from t^v, less its
        leading exact zeros."""
        n = min(len(coeffs), self.T)
        i = 0
        if self._laurent_base:
            try:
                while i < n and self.base.is_zero(coeffs[i]):
                    i += 1
            except PrecisionExhausted:
                # the first coefficient not known to vanish is itself known
                # only to a valuation, so only "valuation >= v + i" is certain
                return _new(Series, (v + i, (), False))
        else:
            while i < n and not coeffs[i]:
                i += 1
        return _new(Series, (v + i, tuple(coeffs[i:n]), False))

    # -- structure queries ----------------------------------------------------

    def is_zero(self, x: Series) -> bool:
        if x.zero:
            return True
        if x.coeffs:
            return False
        raise PrecisionExhausted(
            f"window exhausted: only v >= {x.v} known in {self.var}-series"
        )

    def val(self, x: Series) -> int:
        if x.zero:
            raise ValidationError("the zero series has no valuation")
        if not x.coeffs:
            raise PrecisionExhausted(
                f"valuation undecidable beyond {self.var}^{x.v}"
            )
        return x.v

    def lead(self, x: Series):
        self.val(x)
        return x.coeffs[0]

    # -- arithmetic ------------------------------------------------------------

    def add(self, x: Series, y: Series) -> Series:
        return y if x.zero else self._combine(x, y, self.base.add, None)

    def sub(self, x: Series, y: Series) -> Series:
        if x.zero:
            return self.neg(y)
        return self._combine(x, y, self.base.sub, self.base.neg)

    def _combine(self, x: Series, y: Series, op, lone) -> Series:
        """x op y, x nonzero, op the base's add or sub, at every position
        both windows cover from the lower valuation on.  Where only one
        window reaches, the other reads base.zero, and op(a, zero) = a and
        op(zero, b) = lone(b): b for add (lone None), -b for sub."""
        if y.zero:
            return x
        xv, xc, yv, yc = x.v, x.coeffs, y.v, y.coeffs
        v = min(xv, yv)
        n = min(xv + len(xc), yv + len(yc)) - v
        if xv <= yv:
            d = yv - xv
            if d >= n:
                return self._norm(v, xc[:n])
            return self._norm(v, [*xc[:d], *map(op, xc[d:n], yc)])
        d = xv - yv
        ys = yc[:min(d, n)]
        head = ys if lone is None else map(lone, ys)
        if d >= n:
            return self._norm(v, tuple(head))
        return self._norm(v, [*head, *map(op, xc, yc[d:n])])

    def neg(self, x: Series) -> Series:
        if x.zero:
            return x
        return _new(Series, (x.v, tuple(map(self.base.neg, x.coeffs)), False))

    def mul(self, x: Series, y: Series) -> Series:
        if x.zero or y.zero:
            return self.zero
        n = min(len(x.coeffs), len(y.coeffs))
        v = x.v + y.v
        if n == 0:
            return _new(Series, (v, (), False))
        base = self.base
        add, times, zero = base.add, base.mul, base.zero
        # an exact zero coefficient adds nothing (base.mul(zero, c) is zero
        # and base.add(s, zero) is s), so only nonzero pairs are multiplied.
        # The exact zero is the one coefficient equal to base.zero: 0 in a
        # finite field, Series(0, (), True) in a Laurent base; an empty
        # window is not zero and still goes through base.mul
        ys = [(j, c) for j, c in enumerate(y.coeffs[:n]) if c != zero]
        out = [zero] * n
        for i, xi in enumerate(x.coeffs[:n]):
            if xi == zero:
                continue
            for j, yj in ys:
                k = i + j
                if k >= n:
                    break
                out[k] = add(out[k], times(xi, yj))
        return self._norm(v, out)

    def inv(self, x: Series) -> Series:
        c0 = self.lead(x)
        base = self.base
        d = [base.inv(c0)]
        for k in range(1, len(x.coeffs)):
            acc = base.zero
            for i in range(1, k + 1):
                acc = base.add(acc, base.mul(x.coeffs[i], d[k - i]))
            d.append(base.neg(base.mul(d[0], acc)))
        return _new(Series, (-x.v, tuple(d), False))

    def pow_(self, x: Series, n: int) -> Series:
        """x^n by left-to-right square-and-multiply: n.bit_length() - 1
        squarings and one product per further set bit of n."""
        if n < 0:
            return self.pow_(self.inv(x), -n)
        if n == 0:
            return self.one
        acc = x
        for bit in bin(n)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, x)
        return acc

    # -- presentation ---------------------------------------------------------

    def _term(self, c, k: int) -> str:
        cs = self.base.render(c)
        if any(ch in cs for ch in "+-* "):
            cs = f"({cs})"
        if k == 0:
            return cs
        tv = self.var if k == 1 else f"{self.var}^{k}"
        return tv if cs == "1" else f"{cs}*{tv}"

    def render(self, x: Series) -> str:
        if x.zero:
            return "0"
        if not x.coeffs:
            return f"O({self.var}^{x.v})"
        parts = [
            self._term(c, x.v + i)
            for i, c in enumerate(x.coeffs)
            if not self.base.is_zero(c)
        ]
        tail = f"O({self.var}^{x.v + len(x.coeffs)})"
        return " + ".join(parts + [tail])


# -- the twin of an exact Laurent model --------------------------------------


@lru_cache
def windowed_ring(model, precision: int) -> WindowedRing:
    """The windowed twin of a Laurent model's ring, every level of the
    tower kept to ``precision`` coefficients; one per (model, precision)."""
    base = model.base
    inner = (base.domain() if isinstance(base, FiniteField)
             else windowed_ring(base, precision))
    return WindowedRing(inner, model.var, precision)


def to_window(ring, x):
    """The exact element x as a series of the windowed ``ring``: its
    coefficients carried down level by level, each window cut at the
    ring's precision."""
    if not isinstance(ring, WindowedRing):
        return x
    return ring.from_coeffs(x.v, [to_window(ring.base, c) for c in x.coeffs])


def windowed_class(model, ring, p: int, x) -> tuple[int, ...]:
    """``model.class_of`` read off a windowed series: the class of the
    leading coefficient, level by level, then the valuation mod p."""
    if isinstance(model, FiniteField):
        return model.class_of(p, x)
    return windowed_class(model.base, ring.base, p, ring.lead(x)) + (ring.val(x) % p,)


def windowed_symbol(model, ring, p: int, a, b):
    """``symbol_vector`` of two nonzero windowed series: their classes,
    read off the window, through the model's symbol tensor."""
    x = np.array(windowed_class(model, ring, p, a), dtype=np.int64)
    y = np.array(windowed_class(model, ring, p, b), dtype=np.int64)
    return np.einsum("i,ijk,j->k", x, _symbol_tensor(model, p), y) % p


def certifies(ring, w, x) -> bool:
    """Does every coefficient that the window ``w`` certifies equal the
    exact element x's?  ``ring`` is the exact ring of x.  A window from
    t^v certifies that x has no term below t^v, and each of its entries
    certifies one coefficient, in turn read as a window one level down."""
    if w.zero:
        return not x.coeffs
    if x.coeffs and x.v < w.v:
        return False
    base = ring.base
    for i, c in enumerate(w.coeffs):
        k = w.v + i - x.v
        xc = x.coeffs[k] if 0 <= k < len(x.coeffs) else base.zero
        if not (certifies(base, c, xc) if isinstance(base, LaurentRing) else c == xc):
            return False
    return True

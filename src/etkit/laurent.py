"""Exact Laurent polynomials over an exact coefficient domain.

An element of F[t, 1/t] is a valuation v and a coefficient tuple c, the
sum of c[i] * t^(v+i), trimmed at both ends: c[0] and c[-1] are nonzero,
and zero is the empty tuple at v = 0.  So ``is_zero``, ``add``, ``sub``,
``mul`` and ``pow_`` are exact, and ``val`` and ``lead`` read c[0].  Every
element the verbs see is one: it is decoded from a finite coefficient
list, and the verbs combine elements by sums, differences and products
alone.  The coefficient domain can be a GF instance or another
LaurentRing, so iterated extensions nest.  Each level is an integral
domain, so the product of two leading (or two last) coefficients is
nonzero, and a product needs no trimming.

An element holds at most ``MAX_TERMS`` coefficients, counted over every
level of its tower: its own, from its lowest power of the variable to
its highest, and in a tower each of theirs in turn.  A decoded list, a
sum or a product that would hold more is refused with ValidationError.
So a product of two elements costs at most MAX_TERMS^2 products of
coefficients at any depth, where a cap on each level alone would let a
product at depth d cost up to MAX_TERMS^(2d).  A sum or a product whose
top level alone spans more than the cap is refused before it is laid
out: a product's top level is as long as its factors' together less
one, and a sum's is the union of its operands' spans, whose two ends
cannot cancel once it is longer than either.

A ring builds its constants (zero, one, minus one) once, when it is made,
and each field model makes its ring once.  Elements are immutable, so
every caller shares them.  An exact zero coefficient is found by
comparison with the base's zero: the integer 0 in a finite field, the
empty element in a Laurent base.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError

# README "Limits": the most coefficients a Laurent element holds, over every level
MAX_TERMS = 1024


class Series(NamedTuple):
    """Element of F[t, 1/t]: coeffs[i] is the t^(v+i) coefficient."""

    v: int
    coeffs: tuple


# builds a Series from its two fields without the keyword handling of
# Series(...); the kernel makes one per operation
_new = tuple.__new__


class LaurentRing:
    def __init__(self, base, var: str):
        if not var or not var.isalpha():
            raise ValidationError("variable name must be alphabetic")
        self.base = base
        self.var = var
        self._nested = isinstance(base, LaurentRing)
        self.zero = Series(0, ())
        self.one = self.from_const(base.one)
        self.minus_one = self.from_const(base.minus_one)

    def _capped(self, v: int, coeffs: tuple) -> Series:
        """The element of trimmed ``coeffs`` from t^v, refused when it
        holds more than ``MAX_TERMS`` coefficients over every level."""
        self._check_terms(self._terms(coeffs))
        return _new(Series, (v, coeffs))

    def _terms(self, coeffs) -> int:
        """The coefficients in ``coeffs``, and in a tower those of each
        of them in turn."""
        n = len(coeffs)
        if self._nested:
            terms = self.base._terms
            for c in coeffs:
                n += terms(c.coeffs)
        return n

    def _check_terms(self, n: int) -> None:
        if n > MAX_TERMS:
            raise ValidationError(
                f"a Laurent polynomial in {self.var} holds at most {MAX_TERMS} "
                "coefficients, counted over every level of its tower")

    # -- construction --------------------------------------------------------

    def from_const(self, c) -> Series:
        return self.from_coeffs(0, (c,))

    def gen(self) -> Series:
        """The uniformizer t."""
        return self.from_coeffs(1, (self.base.one,))

    def from_coeffs(self, v: int, coeffs) -> Series:
        """The element sum coeffs[i] * t^(v+i), trimmed at both ends."""
        zero = self.base.zero
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == zero:
            lo += 1
        if lo == hi:
            return self.zero
        while coeffs[hi - 1] == zero:
            hi -= 1
        return self._capped(v + lo, tuple(coeffs[lo:hi]))

    # -- structure queries ----------------------------------------------------

    def is_zero(self, x: Series) -> bool:
        return not x.coeffs

    def val(self, x: Series) -> int:
        if not x.coeffs:
            raise ValidationError("the zero series has no valuation")
        return x.v

    def lead(self, x: Series):
        self.val(x)
        return x.coeffs[0]

    # -- arithmetic ------------------------------------------------------------

    def add(self, x: Series, y: Series) -> Series:
        return self._combine(x, y, self.base.add)

    def sub(self, x: Series, y: Series) -> Series:
        return self._combine(x, y, self.base.sub)

    def _combine(self, x: Series, y: Series, op) -> Series:
        """x op y, op the base's add or sub: x's coefficients laid out over
        the span of both, then op applied with y's where they lie, which
        reads op(zero, b), that is b for add and -b for sub, where only y
        reaches.  The span is checked against the cap before it is laid
        out."""
        yv, yc = y.v, y.coeffs
        if not yc:
            return x
        xv, xc = x.v, x.coeffs
        lo, hi = yv, yv + len(yc)
        if xc:
            lo, hi = min(lo, xv), max(hi, xv + len(xc))
        self._check_terms(hi - lo)
        out = [self.base.zero] * (hi - lo)
        if xc:
            out[xv - lo:xv - lo + len(xc)] = xc
        k = yv - lo
        out[k:k + len(yc)] = map(op, out[k:k + len(yc)], yc)
        return self.from_coeffs(lo, out)

    def mul(self, x: Series, y: Series) -> Series:
        xc, yc = x.coeffs, y.coeffs
        if not xc or not yc:
            return self.zero
        n = len(xc) + len(yc) - 1
        self._check_terms(n)  # the top level alone, before the work
        base = self.base
        add, times, zero = base.add, base.mul, base.zero
        # an exact zero coefficient adds nothing (base.mul(zero, c) is zero
        # and base.add(s, zero) is s), so only nonzero pairs are multiplied
        ys = [(j, c) for j, c in enumerate(yc) if c != zero]
        out = [zero] * n
        for i, xi in enumerate(xc):
            if xi == zero:
                continue
            for j, yj in ys:
                out[i + j] = add(out[i + j], times(xi, yj))
        # the first and last entries are products of nonzero coefficients
        # of a domain, so the result is already trimmed
        return self._capped(x.v + y.v, tuple(out))

    def inv(self, x: Series) -> Series:
        """The inverse of a unit of the polynomial ring, c * t^v with c a
        unit of the base; the inverse of anything else is no Laurent
        polynomial, and is refused."""
        if len(x.coeffs) != 1:
            raise ValidationError(
                f"only a monomial c*{self.var}^v is invertible among Laurent polynomials")
        return _new(Series, (-x.v, (self.base.inv(x.coeffs[0]),)))

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
        if not x.coeffs:
            return "0"
        if x.v == 0 and len(x.coeffs) == 1:  # a constant: no term to set it off from
            return self.base.render(x.coeffs[0])
        zero = self.base.zero
        return " + ".join(self._term(c, x.v + i)
                          for i, c in enumerate(x.coeffs) if c != zero)

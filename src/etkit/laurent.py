"""Truncated Laurent series over an exact coefficient domain.

A series carries its valuation and a window of known coefficients; every
operation tracks how much of the result is still certified, and anything
that needs a leading coefficient the window no longer covers raises
PrecisionExhausted rather than guessing.  The coefficient domain can be a
GF instance or another LaurentRing, so iterated extensions nest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrecisionExhausted, ValidationError


@dataclass(frozen=True)
class Series:
    """Element of F((t)): coeffs[i] is the t^(v+i) coefficient.

    An empty window with zero=False means only "valuation >= v" is known.
    """

    v: int
    coeffs: tuple
    zero: bool = False


class LaurentRing:
    def __init__(self, base, var: str, precision: int):
        if precision < 1:
            raise ValidationError("series precision must be >= 1")
        if not var or not var.isalpha():
            raise ValidationError("variable name must be alphabetic")
        self.base = base
        self.var = var
        self.T = precision

    # -- construction --------------------------------------------------------

    @property
    def zero(self) -> Series:
        return Series(0, (), True)

    @property
    def one(self) -> Series:
        return self.from_const(self.base.one)

    @property
    def minus_one(self) -> Series:
        return self.from_int(-1)

    def from_const(self, c) -> Series:
        return self.from_coeffs(0, [c])

    def from_int(self, n: int) -> Series:
        return self.from_const(self.base.from_int(n))

    def gen(self) -> Series:
        """The uniformizer t."""
        return self.from_coeffs(1, [self.base.one])

    def from_coeffs(self, v: int, coeffs) -> Series:
        """Exact element sum coeffs[i] * t^(v+i); truncated at precision."""
        cl = list(coeffs)
        if all(self.base.is_zero(c) for c in cl):
            return self.zero
        cl = cl[: self.T] + [self.base.zero] * max(0, self.T - len(cl))
        return self._norm(v, cl)

    def _norm(self, v: int, coeffs: list) -> Series:
        coeffs = coeffs[: self.T]
        i = 0
        try:
            while i < len(coeffs) and self.base.is_zero(coeffs[i]):
                i += 1
        except PrecisionExhausted:
            # the first coefficient not known to vanish is itself known
            # only to a valuation, so only "valuation >= v + i" is certain
            return Series(v + i, ())
        return Series(v + i, tuple(coeffs[i:]))

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
        if x.zero:
            return y
        if y.zero:
            return x
        v = min(x.v, y.v)
        bound = min(x.v + len(x.coeffs), y.v + len(y.coeffs))
        out = []
        for i in range(v, bound):
            c = self.base.zero
            if 0 <= i - x.v < len(x.coeffs):
                c = self.base.add(c, x.coeffs[i - x.v])
            if 0 <= i - y.v < len(y.coeffs):
                c = self.base.add(c, y.coeffs[i - y.v])
            out.append(c)
        return self._norm(v, out)

    def neg(self, x: Series) -> Series:
        if x.zero:
            return x
        return Series(x.v, tuple(self.base.neg(c) for c in x.coeffs), False)

    def sub(self, x: Series, y: Series) -> Series:
        return self.add(x, self.neg(y))

    def mul(self, x: Series, y: Series) -> Series:
        if x.zero or y.zero:
            return self.zero
        n = min(len(x.coeffs), len(y.coeffs))
        v = x.v + y.v
        if n == 0:
            return Series(v, ())
        base, zero = self.base, self.base.zero
        # an exact zero coefficient adds nothing (base.mul(zero, c) is zero
        # and base.add(s, zero) is s), so only nonzero pairs are multiplied;
        # an empty window is not zero and still goes through base.mul
        ys = [(j, c) for j, c in enumerate(y.coeffs[:n]) if c != zero]
        out = [zero] * n
        for i, xi in enumerate(x.coeffs[:n]):
            if xi == zero:
                continue
            for j, yj in ys:
                if i + j >= n:
                    break
                out[i + j] = base.add(out[i + j], base.mul(xi, yj))
        return self._norm(v, out)

    def inv(self, x: Series) -> Series:
        c0 = self.lead(x)
        d = [self.base.inv(c0)]
        for k in range(1, len(x.coeffs)):
            acc = self.base.zero
            for i in range(1, k + 1):
                acc = self.base.add(acc, self.base.mul(x.coeffs[i], d[k - i]))
            d.append(self.base.neg(self.base.mul(d[0], acc)))
        return Series(-x.v, tuple(d), False)

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

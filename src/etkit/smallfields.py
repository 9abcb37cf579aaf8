"""Exact arithmetic in small finite fields GF(q).

Elements are integers in [0, q) encoding coefficient vectors base the
characteristic (low digit = constant term).  Multiplication goes through
exp/log tables built from the generator g of least encoding, which keeps
p-th-power tests and class-group coordinates one table lookup away.
Addition goes through Zech logarithms, zech[k] = log(1 + g^k), so x + y
is g^(log x + zech[log y - log x]) and no operation decodes digits.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidModel, ValidationError
from .fplinear import is_prime

MAX_FIELD_SIZE = 1 << 16


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """(ell, k) with q = ell^k, or None."""
    if q < 2:
        return None
    ell = 2
    while ell * ell <= q:
        if q % ell == 0:
            break
        ell += 1
    else:
        return q, 1
    k, m = 0, q
    while m % ell == 0:
        m //= ell
        k += 1
    return (ell, k) if m == 1 else None


def _poly_mulmod(a: tuple, b: tuple, mod: tuple, ell: int) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % ell
    # reduce by the monic modulus
    k = len(mod) - 1
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * mod[j]) % ell
    return tuple(out[:k])


def _poly_divides(d: tuple, f: tuple, ell: int) -> bool:
    """Whether monic d divides f over F_ell."""
    r = list(f)
    k = len(d) - 1
    while len(r) > k:
        c = r[-1]
        if c:
            for j in range(len(d)):
                r[len(r) - len(d) + j] = (r[len(r) - len(d) + j] - c * d[j]) % ell
        r.pop()
    return not any(r)


def _monic_polys(ell: int, deg: int):
    for idx in range(ell**deg):
        coeffs = []
        n = idx
        for _ in range(deg):
            coeffs.append(n % ell)
            n //= ell
        yield tuple(coeffs) + (1,)


def _find_irreducible(ell: int, k: int) -> tuple:
    for cand in _monic_polys(ell, k):
        if cand[0] == 0:
            continue
        if all(
            not _poly_divides(d, cand, ell)
            for deg in range(1, k // 2 + 1)
            for d in _monic_polys(ell, deg)
        ):
            return cand
    raise InvalidModel(f"no irreducible polynomial of degree {k} over F_{ell}")


class GF:
    """GF(q); see the module docstring for the element encoding."""

    def __init__(self, q: int):
        # checked first: factoring is trial division up to sqrt(q)
        if q > MAX_FIELD_SIZE:
            raise InvalidModel(f"field size {q} exceeds {MAX_FIELD_SIZE}")
        fac = factor_prime_power(q)
        if fac is None or not is_prime(fac[0]):
            raise InvalidModel(f"{q} is not a prime power")
        self.q = q
        self.char, self.deg = fac
        self.modulus = None if self.deg == 1 else _find_irreducible(self.char, self.deg)
        self.zero = 0
        self.one = 1
        self._build_tables()

    def is_zero(self, x: int) -> bool:
        return x == 0

    # -- encoding ----------------------------------------------------------

    def _digits(self, x: int) -> tuple:
        out = []
        for _ in range(self.deg):
            out.append(x % self.char)
            x //= self.char
        return tuple(out)

    def _undigits(self, coeffs) -> int:
        x = 0
        for c in reversed(list(coeffs)):
            x = x * self.char + (c % self.char)
        return x

    # -- ring structure ----------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return x or y
        lx = self.dlog[x]
        z = self.zech[(self.dlog[y] - lx) % (self.q - 1)]
        return 0 if z is None else self.exp[(lx + z) % (self.q - 1)]

    def neg(self, x: int) -> int:
        if x == 0:
            return 0
        return self.exp[(self.dlog[x] + self._log_minus_one) % (self.q - 1)]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def _raw_mul(self, x: int, y: int) -> int:
        if self.deg == 1:
            return (x * y) % self.char
        return self._undigits(
            _poly_mulmod(self._digits(x), self._digits(y), self.modulus, self.char)
        )

    def _raw_pow(self, x: int, k: int) -> int:
        acc = 1
        while k:
            if k & 1:
                acc = self._raw_mul(acc, x)
            x = self._raw_mul(x, x)
            k >>= 1
        return acc

    def _build_tables(self):
        target = self.q - 1
        # g generates exactly when g^(target/r) != 1 for each prime r | target
        primes = [r for r in range(2, target + 1) if target % r == 0 and is_prime(r)]
        # g = 1 passes only for q = 2, where no prime divides q - 1 = 1
        self.generator = next(
            g for g in range(1, self.q)
            if all(self._raw_pow(g, target // r) != 1 for r in primes)
        )
        # the generator goes first: _poly_mulmod skips its zero digits
        self.exp = [1]
        for _ in range(target - 1):
            self.exp.append(self._raw_mul(self.generator, self.exp[-1]))
        self.dlog = {v: i for i, v in enumerate(self.exp)}
        # zech[k] = log(1 + g^k), None where 1 + g^k = 0; adding 1 changes
        # only the constant (low) digit of the encoding
        c = self.char
        self.zech = [
            self.dlog.get(x + 1 if x % c != c - 1 else x + 1 - c) for x in self.exp
        ]
        self._log_minus_one = self.dlog[c - 1]

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.exp[(self.dlog[x] + self.dlog[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ValidationError("0 is not invertible")
        return self.exp[(-self.dlog[x]) % (self.q - 1)]

    def pow_(self, x: int, n: int) -> int:
        if x == 0:
            if n <= 0:
                raise ValidationError("0 to a nonpositive power")
            return 0
        return self.exp[(self.dlog[x] * n) % (self.q - 1)]

    def from_int(self, n: int) -> int:
        """Image of the rational integer n in the prime subfield."""
        return n % self.char

    @property
    def minus_one(self) -> int:
        return self.char - 1

    # -- p-th power classes --------------------------------------------------

    def class_of(self, x: int, p: int) -> tuple[int, ...]:
        """Coordinates of x in F^x/(F^x)^p w.r.t. the generator basis."""
        if x == 0:
            raise ValidationError("0 has no power class")
        if (self.q - 1) % p:
            return ()
        return (self.dlog[x] % p,)

    # -- presentation --------------------------------------------------------

    def render(self, x: int) -> str:
        parts = []
        for i in reversed(range(self.deg)):
            c = self._digits(x)[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "w" if i == 1 else f"w^{i}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return "+".join(parts) if parts else "0"

    def units(self):
        return range(1, self.q)


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)

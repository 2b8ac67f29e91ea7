"""Exact scalar arithmetic for the representation builders.

Scalars are fractions.Fraction throughout: weights (half-integers
included), pattern l-values and matrix entries alike.

The deformed route of the type B builder shifts pattern entries by a formal
t and needs only the limit at t = 0. Its data are linear forms a + b*t
(LinearForm), products and quotients of them in factored form (Monomial),
and per-target sums of those, expanded exactly to t^0 (LaurentSum).
rf_limit_at reads off the t^0 coefficient; a surviving negative power
raises PoleError, which is exactly the "no finite limit" case.
"""
from __future__ import annotations

import re
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class PoleError(ArithmeticError):
    """No finite value at the requested point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def parse_rational(s):
    """Parse "p/q" (q omitted when 1) into a Fraction."""
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ValueError("bad rational literal: %r" % (s,))
    return Fraction(s)


def format_rational(x):
    """Inverse of parse_rational; Fraction prints reduced, /1 omitted."""
    return str(Fraction(x))


def _monomial(x):
    # x as a Monomial, or None for an operand outside the field
    if isinstance(x, Monomial):
        return x
    if isinstance(x, LinearForm):
        return x.monomial()
    if isinstance(x, (int, Fraction)):
        return Monomial(x)
    return None


class LinearForm:
    """a + b*t over Fraction, t the deformation parameter. Sums and scalar
    multiples stay linear; products and quotients become a Monomial."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=F0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __bool__(self):
        return bool(self.a or self.b)

    def monomial(self):
        if self.a:
            return Monomial(self.a, 0, {self.b / self.a: 1} if self.b else {})
        return Monomial(self.b, 1)

    @staticmethod
    def _coerce(other):
        if isinstance(other, LinearForm):
            return other
        if isinstance(other, (int, Fraction)):
            return LinearForm(other)
        return None

    def __neg__(self):
        return LinearForm(-self.a, -self.b)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LinearForm(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LinearForm(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LinearForm(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LinearForm(self.a * other, self.b * other)
        return self.monomial() * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.monomial() / other

    def __rtruediv__(self, other):
        return other / self.monomial()


class Monomial:
    """c * t^v * prod (1 + beta*t)^e, the factors kept as {beta: e}.

    Products and quotients of linear forms stay exact in this shape, and
    c == 0 is an exact zero test. There is no addition: sums of products
    only happen in a LaurentSum."""

    __slots__ = ("c", "v", "f")

    def __init__(self, c, v=0, f=None):
        self.c = Fraction(c)
        if self.c:
            self.v = v
            self.f = f or {}
        else:
            self.v = 0
            self.f = {}

    def __bool__(self):
        return bool(self.c)

    def __neg__(self):
        return Monomial(-self.c, self.v, self.f)

    def _merge(self, o, sign):
        f = dict(self.f)
        for beta, e in o.f.items():
            e = f.get(beta, 0) + sign * e
            if e:
                f[beta] = e
            else:
                del f[beta]
        return f

    def __mul__(self, other):
        o = _monomial(other)
        if o is None:
            return NotImplemented
        return Monomial(self.c * o.c, self.v + o.v, self._merge(o, 1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _monomial(other)
        if o is None:
            return NotImplemented
        if not o.c:
            raise ZeroDivisionError("division by an exactly zero form")
        return Monomial(self.c / o.c, self.v - o.v, self._merge(o, -1))

    def __rtruediv__(self, other):
        o = _monomial(other)
        if o is None:
            return NotImplemented
        return o / self

    def expand(self):
        """Coefficients of t^v ... t^0, empty when v > 0. The unit part
        needs exactly its first -v terms past the constant, so the pole
        order fixes the work and nothing is guessed."""
        n = 1 - self.v
        if n <= 1:
            return [self.c] if n == 1 else []
        s = [self.c] + [F0] * (n - 1)
        for beta, e in self.f.items():
            for _ in range(abs(e)):
                if e > 0:
                    for i in range(n - 1, 0, -1):
                        s[i] += beta * s[i - 1]
                else:
                    for i in range(1, n):
                        s[i] -= beta * s[i - 1]
        return s


class LaurentSum:
    """A sum of monomials, kept as its coefficients of t^lo ... t^0.

    Each term is expanded exactly to t^0, so the pole part and the constant
    term are exact; higher powers cannot reach the limit at t = 0 and are
    not kept. Monomials, linear forms and scalars can be added in; any
    other arithmetic raises TypeError."""

    __slots__ = ("lo", "c")

    def __init__(self, lo=0, coeffs=(F0,)):
        self.lo = lo
        self.c = tuple(coeffs)

    def __add__(self, other):
        m = _monomial(other)
        if m is None:
            return NotImplemented
        terms = m.expand()
        if not terms:
            return self
        lo = min(self.lo, m.v)
        c = [F0] * (self.lo - lo) + list(self.c)
        for i, x in enumerate(terms, m.v - lo):
            c[i] += x
        return LaurentSum(lo, c)

    def __str__(self):
        parts = []
        for p, x in enumerate(self.c, self.lo):
            if x:
                parts.append(format_rational(x) if p == 0
                             else "%s*t^%d" % (format_rational(x), p))
        return " + ".join(parts + ["O(t)"])


def rf_limit_at(f):
    """Exact limit at t = 0 of a LaurentSum (a monomial, linear form or
    scalar is summed into an empty one first). A surviving negative power
    is a genuine pole and raises PoleError with the expansion as witness.
    """
    if not isinstance(f, LaurentSum):
        f = LaurentSum() + f
    if any(f.c[:-1]):
        raise PoleError("pole at t = 0", witness=str(f))
    return f.c[-1]

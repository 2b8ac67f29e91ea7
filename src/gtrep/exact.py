"""Exact scalar arithmetic for the representation builders.

Scalars are fractions.Fraction throughout: weights (half-integers
included), pattern l-values and matrix entries alike.

The type B builder writes each coefficient term as c times a ratio of
products of factors (A, b), each standing for A/2 + b*t with int A and b:
A is a doubled pattern value, b its drift when every pattern entry is
shifted by a formal t. factor_value evaluates such a ratio at t = 0 as
one Fraction. The deformed route needs only the limit at t = 0 of sums of
such ratios: factor_monomial gives one term in factored form (Monomial),
and the per-target sums are expanded exactly to t^0 (LaurentSum).
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
    if isinstance(x, (int, Fraction)):
        return Monomial(x)
    return None


def factor_value(num, den, c=1):
    """c * prod(num) / prod(den) at t = 0, where a factor (A, b) stands for
    A/2 + b*t: the products run on the A's as ints and one Fraction is
    made at the end. A zero A in den raises ZeroDivisionError."""
    p = c
    for a, _ in num:
        p *= a
    q = 1
    for a, _ in den:
        q *= a
    e = len(den) - len(num)  # every factor carries a 1/2
    if e >= 0:
        return Fraction(p * 2 ** e, q)
    return Fraction(p, q * 2 ** -e)


def factor_monomial(num, den, c=1):
    """The same ratio as factor_value, as a Monomial in t: a factor with
    A != 0 is A/2 * (1 + (2b/A)*t), one with A == 0 is b*t. A factor
    (0, 0) in den raises ZeroDivisionError; one in num makes the zero
    Monomial."""
    p, q, v, f = c, 1, 0, {}
    zero = False
    for a, b in num:
        if a:
            p *= a
            q *= 2
            if b:
                beta = Fraction(2 * b, a)
                f[beta] = f.get(beta, 0) + 1
        elif b:
            p *= b
            v += 1
        else:
            zero = True
    for a, b in den:
        if a:
            p *= 2
            q *= a
            if b:
                beta = Fraction(2 * b, a)
                f[beta] = f.get(beta, 0) - 1
        elif b:
            q *= b
            v -= 1
        else:
            raise ZeroDivisionError("division by an exactly zero factor")
    if zero:
        return Monomial(0)
    return Monomial(Fraction(p, q), v, {x: e for x, e in f.items() if e})


class Monomial:
    """c * t^v * prod (1 + beta*t)^e, the factors kept as {beta: e}.

    factor_monomial builds one per coefficient term; products stay exact
    in this shape, and c == 0 is an exact zero test. There is no addition:
    sums of products only happen in a LaurentSum."""

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

    def __mul__(self, other):
        o = _monomial(other)
        if o is None:
            return NotImplemented
        f = dict(self.f)
        for beta, e in o.f.items():
            e += f.get(beta, 0)
            if e:
                f[beta] = e
            else:
                del f[beta]
        return Monomial(self.c * o.c, self.v + o.v, f)

    __rmul__ = __mul__

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
    not kept. Monomials and scalars can be added in; any other arithmetic
    raises TypeError."""

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
    """Exact limit at t = 0 of a LaurentSum (a monomial or scalar is
    summed into an empty one first). A surviving negative power
    is a genuine pole and raises PoleError with the expansion as witness.
    """
    if not isinstance(f, LaurentSum):
        f = LaurentSum() + f
    if any(f.c[:-1]):
        raise PoleError("pole at t = 0", witness=str(f))
    return f.c[-1]
